"""The package's public names and what importing it loads."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import devmux

# The public names and the submodules that exported them before the package
# became lazy; every one of these import paths must still work.
# `KindRanges` and `default_network_model` resolve only in `configfile`.
EXPORTS = {
    "codegraph": ("CodeGraph", "EdgeKind", "ParseError", "parse_to_graph"),
    "configfile": (
        "VECTOR_DIM", "AppConfig", "ConfigError", "KindRanges", "RouterConfig", "default_network_model",
        "load_config", "parse_config_text",
    ),
    "embedding": ("BandConfig", "cosine", "graph_to_vector"),
    "fusion": ("ContextItem", "ContextSource", "FusedContext", "FusionWeights", "assemble_context", "score_items"),
    "layoutlint": (
        "ConstraintGraph", "FindingKind", "Inconsistency", "LayoutParseError", "LayoutStatement",
        "build_constraint_graph", "check_layout_source", "describe", "detect_inconsistencies", "parse_layout",
    ),
    "routing": (
        "ACTION_MASK", "Action", "Battery", "Complexity", "CostModel", "DeviceClass", "DeviceProfile",
        "MdpModel", "NetworkModel", "NetworkState", "RoutingPolicy", "TaskKind", "build_mdp", "cost_table",
        "drain_odds", "value_iteration",
    ),
    "simulate": (
        "ComparisonReport", "MetricsReport", "PolicyKind", "SimConfig", "SimTrace", "compare_policies",
        "metrics_from_events", "run_simulation",
    ),
    "vindex": ("QueryResult", "VectorIndex"),
    "workload": ("Workload", "WorkloadSpec", "generate_workload"),
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

# Setting records, defaults and checks that moved to `configfile`, each with
# the subsystems that import it for their own use; no other subsystem holds
# the name.
MOVED_SETTINGS = {
    **dict.fromkeys(("CostModel", "DeviceProfile", "NetworkModel", "STOCHASTIC_TOL"), ("routing",)),
    "SimConfig": ("simulate",),
    "WorkloadSpec": ("workload",),
    "BandConfig": ("embedding",),
    "VECTOR_DIM": ("fusion", "vindex"),
    "FusionWeights": ("fusion",),
    **dict.fromkeys((
        "default_network_model", "default_complexity_mix", "check_odds", "DEFAULT_P_DRAIN", "DEFAULT_GOOD_RTT_MS",
        "DEFAULT_DEGRADED_RTT_FACTOR", "DEFAULT_CLOUD_ENERGY_RATIO", "KindRanges", "DEFAULT_PRIORS",
    ), ()),
}
SUBSYSTEMS = (
    "base", "cli", "codegraph", "embedding", "fusion", "layoutlint", "routing", "simulate", "vindex", "workload",
)

HEAVY = ("numpy", "devmux.configfile", "devmux.routing", "dataclasses")


def test_all_lists_the_exported_names():
    assert sorted(devmux.__all__) == sorted(name for _, name in PAIRS)
    assert len(devmux.__all__) == 60


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_name_resolves_to_the_object_in_its_module(module, name):
    assert getattr(devmux, name) is getattr(importlib.import_module(f"devmux.{module}"), name)


@pytest.mark.parametrize("module, name", MOVED, ids=[name for _, name in MOVED])
def test_moved_name_is_the_base_object(module, name):
    base = importlib.import_module("devmux.base")
    assert getattr(importlib.import_module(f"devmux.{module}"), name) is getattr(base, name)


@pytest.mark.parametrize("name", sorted(MOVED_SETTINGS))
def test_moved_setting_is_the_configfile_object(name):
    configfile = importlib.import_module("devmux.configfile")
    holders = [module for module in SUBSYSTEMS if hasattr(importlib.import_module(f"devmux.{module}"), name)]
    assert holders == list(MOVED_SETTINGS[name])
    for module in holders:
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


def _load_tracer():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _devmux_attributes():
    """Every attribute of every loaded devmux module and of the classes they define."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "devmux"]
    owners += [value for mod in owners for value in vars(mod).values()
               if isinstance(value, type) and value.__module__.startswith("devmux.")]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_benchmark_tracer_patches_and_restores_every_target():
    """The benchmark's `--trace 1` runs patch each function its `TARGETS`
    table names, where it is defined and wherever devmux imported it; a
    renamed or deleted one would break every traced run."""
    tracer_module = _load_tracer()
    targets = set()
    for module_name, attr, _, _ in tracer_module.TARGETS:
        owner = importlib.import_module(f"devmux.{module_name}")
        *cls, name = attr.split(".")
        targets.add((getattr(owner, cls[0]) if cls else owner, name))
    before = _devmux_attributes()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in _devmux_attributes().items() if before.get(key) is not value}
        assert targets <= patched
    finally:
        tracer.uninstall()
    after = _devmux_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
