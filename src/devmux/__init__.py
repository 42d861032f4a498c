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

# Home module of each public name. The enums and the error classes live in
# the stdlib-only `base`, and the setting records in `configfile`, which
# imports only `base`; a subsystem that imports one of them holds the same
# object.
_EXPORTS = {
    "base": (
        "Action", "Battery", "Complexity", "ContextSource", "DeviceClass", "NetworkState", "PolicyKind",
        "TaskKind", "ConfigError", "LayoutParseError",
    ),
    "codegraph": ("CodeGraph", "EdgeKind", "ParseError", "parse_to_graph"),
    "configfile": (
        "VECTOR_DIM", "AppConfig", "BandConfig", "CostModel", "DeviceProfile", "FusionWeights", "KindRanges",
        "NetworkModel", "RouterConfig", "SimConfig", "WorkloadSpec", "default_network_model", "load_config",
        "parse_config_text",
    ),
    "embedding": ("cosine", "graph_to_vector"),
    "fusion": ("ContextItem", "FusedContext", "assemble_context", "score_items"),
    "layoutlint": (
        "ConstraintGraph", "FindingKind", "Inconsistency", "LayoutStatement", "build_constraint_graph",
        "check_layout_source", "describe", "detect_inconsistencies", "parse_layout",
    ),
    "routing": (
        "ACTION_MASK", "MdpModel", "RoutingPolicy", "build_mdp", "cost_table", "drain_odds", "value_iteration",
    ),
    "simulate": (
        "ComparisonReport", "MetricsReport", "SimTrace", "compare_policies", "metrics_from_events",
        "run_simulation",
    ),
    "vindex": ("QueryResult", "VectorIndex"),
    "workload": ("Workload", "generate_workload"),
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
