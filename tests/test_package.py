"""The package's public names and what importing it loads."""

import importlib
import os
import subprocess
import sys

import pytest

import devmux

# The public names and the submodules that exported them before the package
# became lazy; every one of these import paths must still work.
EXPORTS = {
    "codegraph": ("CodeGraph", "EdgeKind", "ParseError", "parse_to_graph"),
    "configfile": ("AppConfig", "ConfigError", "load_config", "parse_config_text"),
    "embedding": ("VECTOR_DIM", "BandConfig", "cosine", "graph_to_vector"),
    "fusion": ("ContextItem", "ContextSource", "FusedContext", "FusionWeights", "assemble_context", "score_items"),
    "layoutlint": (
        "ConstraintGraph", "FindingKind", "Inconsistency", "LayoutParseError", "LayoutStatement",
        "build_constraint_graph", "check_layout_source", "describe", "detect_inconsistencies", "parse_layout",
    ),
    "routing": (
        "ACTION_MASK", "Action", "Battery", "Complexity", "CostModel", "DeviceClass", "DeviceProfile",
        "MdpModel", "NetworkModel", "NetworkState", "RoutingPolicy", "RoutingState", "TaskKind", "build_mdp",
        "cost_breakdown", "cost_table", "default_network_model", "drain_odds", "value_iteration",
    ),
    "simulate": (
        "ComparisonReport", "MetricsReport", "PolicyKind", "SimConfig", "SimTrace", "compare_policies",
        "metrics_from_events", "run_simulation",
    ),
    "vindex": ("QueryResult", "RecordMetadata", "VectorIndex"),
    "workload": ("KindRanges", "Workload", "WorkloadSpec", "generate_workload"),
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]

# Names that moved to the stdlib-only `base` module, and where they used to live.
MOVED = [
    ("configfile", "ConfigError"),
    ("vindex", "IndexFileError"),
    ("layoutlint", "LayoutParseError"),
    *[("routing", name) for name in ("Action", "Battery", "Complexity", "DeviceClass", "NetworkState", "TaskKind")],
]

HEAVY = ("numpy", "devmux.configfile", "devmux.routing")


def test_all_lists_the_exported_names():
    assert sorted(devmux.__all__) == sorted(name for _, name in PAIRS)
    assert len(devmux.__all__) == 62


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_name_resolves_to_the_object_in_its_module(module, name):
    assert getattr(devmux, name) is getattr(importlib.import_module(f"devmux.{module}"), name)


@pytest.mark.parametrize("module, name", MOVED, ids=[name for _, name in MOVED])
def test_moved_name_is_the_base_object(module, name):
    base = importlib.import_module("devmux.base")
    assert getattr(importlib.import_module(f"devmux.{module}"), name) is getattr(base, name)


def test_dir_lists_every_public_name():
    assert set(devmux.__all__) <= set(dir(devmux))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        devmux.no_such_name
    with pytest.raises(ImportError):
        from devmux import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "code",
    [
        "import devmux",
        "import devmux.layoutlint",
        "from devmux.cli import cli_main; cli_main(['describe-layout', LAYOUT])",
    ],
    ids=["import-devmux", "import-layoutlint", "describe-layout"],
)
def test_fresh_interpreter_loads_no_numpy(code, tmp_path):
    layout = tmp_path / "layout.xml"
    layout.write_text('<Layout><TextView id="B"/><Button id="A" layout_below="B" onClick="go"/></Layout>')
    script = f"import sys\nLAYOUT = {str(layout)!r}\n{code}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
