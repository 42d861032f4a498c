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
    "configfile": ("AppConfig", "ConfigError", "RouterConfig", "load_config", "parse_config_text"),
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
    ("simulate", "PolicyKind"),
    ("fusion", "ContextSource"),
]

# Setting records, defaults and checks that moved to `configfile`, and where they used to live.
MOVED_SETTINGS = [
    *[("routing", name) for name in (
        "CostModel", "DeviceProfile", "NetworkModel", "default_network_model", "default_complexity_mix",
        "check_odds", "STOCHASTIC_TOL", "DEFAULT_TOLERANCE", "DEFAULT_P_DRAIN", "DEFAULT_GOOD_RTT_MS",
        "DEFAULT_DEGRADED_RTT_FACTOR", "DEFAULT_CLOUD_ENERGY_RATIO",
    )],
    ("simulate", "SimConfig"),
    ("workload", "KindRanges"),
    ("workload", "WorkloadSpec"),
    ("embedding", "BandConfig"),
    ("embedding", "VECTOR_DIM"),
    ("fusion", "FusionWeights"),
    ("fusion", "DEFAULT_PRIORS"),
]

HEAVY = ("numpy", "devmux.configfile", "devmux.routing", "dataclasses")


def test_all_lists_the_exported_names():
    assert sorted(devmux.__all__) == sorted(name for _, name in PAIRS)
    assert len(devmux.__all__) == 63


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_name_resolves_to_the_object_in_its_module(module, name):
    assert getattr(devmux, name) is getattr(importlib.import_module(f"devmux.{module}"), name)


@pytest.mark.parametrize("module, name", MOVED, ids=[name for _, name in MOVED])
def test_moved_name_is_the_base_object(module, name):
    base = importlib.import_module("devmux.base")
    assert getattr(importlib.import_module(f"devmux.{module}"), name) is getattr(base, name)


@pytest.mark.parametrize("module, name", MOVED_SETTINGS, ids=[name for _, name in MOVED_SETTINGS])
def test_moved_setting_is_the_configfile_object(module, name):
    configfile = importlib.import_module("devmux.configfile")
    assert getattr(importlib.import_module(f"devmux.{module}"), name) is getattr(configfile, name)


def test_dir_lists_every_public_name():
    assert set(devmux.__all__) <= set(dir(devmux))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        devmux.no_such_name
    with pytest.raises(ImportError):
        from devmux import no_such_name  # noqa: F401


def _loaded_in_fresh_interpreter(code, modules, cwd):
    """Run `code` in a new interpreter in `cwd`; return the list of those of
    `modules` it loaded, as printed."""
    script = f"import sys\n{code}\nprint([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "code",
    [
        "import devmux",
        "import devmux.layoutlint",
        "from devmux.cli import cli_main; cli_main(['describe-layout', 'layout.xml'])",
    ],
    ids=["import-devmux", "import-layoutlint", "describe-layout"],
)
def test_fresh_interpreter_loads_no_numpy(code, tmp_path):
    layout = tmp_path / "layout.xml"
    layout.write_text('<Layout><TextView id="B"/><Button id="A" layout_below="B" onClick="go"/></Layout>')
    assert _loaded_in_fresh_interpreter(code, HEAVY, tmp_path) == "[]"


SIM_SIDE = ("devmux.routing", "devmux.simulate", "devmux.workload")
INDEX_SIDE = ("devmux.codegraph", "devmux.embedding", "devmux.fusion", "devmux.vindex")
ROUTE = "'route', '--complexity', 'low', '--device', 'cpu', '--network', 'good', '--battery', 'ok'"


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import devmux.configfile", ("numpy", *SIM_SIDE, *INDEX_SIDE)),
        ("assert cli_main(['index', 'tree', '--out', 'fresh.bin']) == 0", SIM_SIDE),
        ("assert cli_main(['query', 'class', '--index', 'index.bin', '--config', 'c.yaml']) == 0", SIM_SIDE),
        (f"assert cli_main([{ROUTE}, '--config', 'c.yaml']) == 0", INDEX_SIDE),
        (f"assert cli_main([{ROUTE}, '--config', 'c.yaml']) == 0",
         ("devmux.simulate", "devmux.workload", *INDEX_SIDE)),
        ("assert cli_main(['simulate', '--n-tasks', '50', '--out', 'r.json', '--events', 'e.jsonl']) == 0",
         (*INDEX_SIDE, "numpy.ma")),
        ("assert cli_main(['compare', '--seed', '1', '--out', 'c.json']) == 0", INDEX_SIDE),
    ],
    ids=["import-configfile", "index", "query", "route", "route-no-simulator", "simulate-events", "compare"],
)
def test_fresh_command_loads_only_what_it_runs(code, absent, tmp_path, capsys):
    from devmux.cli import cli_main

    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.java").write_text("class A { void run() { helper(); } void helper() { } }")
    (tmp_path / "c.yaml").write_text("router:\n  w_latency: 0.002\n")
    assert cli_main(["index", str(tree), "--out", str(tmp_path / "index.bin")]) == 0
    capsys.readouterr()
    # `devmux.cli` imports no subsystem, so it does not mask what `code` loads.
    assert _loaded_in_fresh_interpreter(f"from devmux.cli import cli_main\n{code}", absent, tmp_path) == "[]"
