"""devmux: edge/cloud task routing with semantic code context.

Subsystems: an MDP-based router deciding where assistant tasks run, a
structural code embedder with an exact-search vector index, a constraint
layout describer/linter, a multi-source context fusion stage, and a
deterministic simulation harness with a unified CLI.
"""

from .codegraph import CodeGraph, EdgeKind, ParseError, parse_to_graph
from .configfile import AppConfig, ConfigError, load_config, parse_config_text
from .embedding import VECTOR_DIM, BandConfig, cosine, graph_to_vector
from .fusion import (
    ContextItem,
    ContextSource,
    FusedContext,
    FusionWeights,
    assemble_context,
    score_items,
)
from .layoutlint import (
    ConstraintGraph,
    FindingKind,
    Inconsistency,
    LayoutParseError,
    LayoutStatement,
    build_constraint_graph,
    check_layout_source,
    describe,
    detect_inconsistencies,
    parse_layout,
)
from .routing import (
    ACTION_MASK,
    Action,
    Battery,
    Complexity,
    CostModel,
    DeviceClass,
    DeviceProfile,
    MdpModel,
    NetworkModel,
    NetworkState,
    RoutingPolicy,
    RoutingState,
    TaskKind,
    build_mdp,
    cost_breakdown,
    cost_table,
    default_network_model,
    drain_odds,
    value_iteration,
)
from .simulate import (
    ComparisonReport,
    MetricsReport,
    PolicyKind,
    SimConfig,
    SimTrace,
    compare_policies,
    metrics_from_events,
    run_simulation,
)
from .vindex import QueryResult, RecordMetadata, VectorIndex
from .workload import KindRanges, Workload, WorkloadSpec, generate_workload

__version__ = "0.1.0"
