"""devmux: edge/cloud task routing with semantic code context.

Subsystems: an MDP-based router deciding where assistant tasks run, a
structural code embedder with an exact-search vector index, a constraint
layout describer/linter, a multi-source context fusion stage, and a
deterministic simulation harness with a unified CLI.

Importing the package loads no subsystem. Each public name below is looked
up in its home module on first access (PEP 562 module `__getattr__`), so
`import devmux` and `import devmux.layoutlint` stay free of numpy and the
config loader, and a CLI command loads only the modules it runs.
"""

__version__ = "0.1.0"

# Home module of each public name. The routing enums and the error classes
# live in the stdlib-only `base`; `routing`, `configfile` and `layoutlint`
# re-export them, so both paths give the same object.
_EXPORTS = {
    "base": (
        "Action", "Battery", "Complexity", "DeviceClass", "NetworkState", "TaskKind",
        "ConfigError", "LayoutParseError",
    ),
    "codegraph": ("CodeGraph", "EdgeKind", "ParseError", "parse_to_graph"),
    "configfile": ("AppConfig", "load_config", "parse_config_text"),
    "embedding": ("VECTOR_DIM", "BandConfig", "cosine", "graph_to_vector"),
    "fusion": ("ContextItem", "ContextSource", "FusedContext", "FusionWeights", "assemble_context", "score_items"),
    "layoutlint": (
        "ConstraintGraph", "FindingKind", "Inconsistency", "LayoutStatement", "build_constraint_graph",
        "check_layout_source", "describe", "detect_inconsistencies", "parse_layout",
    ),
    "routing": (
        "ACTION_MASK", "CostModel", "DeviceProfile", "MdpModel", "NetworkModel", "RoutingPolicy",
        "RoutingState", "build_mdp", "cost_breakdown", "cost_table", "default_network_model",
        "drain_odds", "value_iteration",
    ),
    "simulate": (
        "ComparisonReport", "MetricsReport", "PolicyKind", "SimConfig", "SimTrace", "compare_policies",
        "metrics_from_events", "run_simulation",
    ),
    "vindex": ("QueryResult", "RecordMetadata", "VectorIndex"),
    "workload": ("KindRanges", "Workload", "WorkloadSpec", "generate_workload"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
