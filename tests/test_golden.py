"""Stored SHA-256 goldens of the route, simulate and compare output bytes.

Event logs, simulate reports and compare reports for seeds 42-51 under four
configs (default, GPU device, an often-offline network, a low battery) and
all four policies must hash to the stored values: "same inputs, same bytes"
has to hold across refactors, not only between two runs of one build. Event
logs of 10k tasks (seeds 42 and 43, the `mdp` and `all_cloud` policies, the
same four configs) are pinned too, because the event-log writer works in row
blocks and a 1,000-task log fits in one. The
route golden pins the solved policy itself: for the default config,
`test_config.py`'s `SAMPLE` and the often-offline network, the
`route --policy` file (actions and values of all 36 states), the `route`
stdout over every state and the `policy_fingerprint`. The query golden
pins `index` and `query` stdout and exit codes and the `index.bin` bytes
over a seeded corpus that stores every unit under three ids, so the k-th
score is often tied, and the search results of `index_v1.bin`, an index
file in the version-1 layout. Its `index_tree` entry pins `index` over a
seeded tree with one broken file per parse error and a unit with non-ASCII
names: exit code, stdout, the stderr warnings with their line and column,
and the `index.bin` bytes.

After a deliberate, documented byte change, rewrite the goldens with
`PYTHONPATH=src python tests/test_golden.py`. `index_v1.bin` is not
rewritten: `save` no longer writes that layout.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from devmux.cli import cli_main
from devmux.configfile import load_config
from devmux.routing import all_states, policy_fingerprint
from devmux.simulate import PolicyKind, compare_policies, run_simulation, workload_from_config
from devmux.vindex import RecordMetadata, VectorIndex
from test_config import SAMPLE

GOLDEN = Path(__file__).with_name("golden") / "sim_sha256.json"
ROUTE_GOLDEN = GOLDEN.with_name("route_sha256.json")
QUERY_GOLDEN = GOLDEN.with_name("query_sha256.json")
V1_FIXTURE = GOLDEN.with_name("index_v1.bin")
N_TASKS = 1_000
SEEDS = range(42, 52)
POLICIES = ("all_cloud", "all_edge", "threshold", "mdp")
# Event logs long enough to cross several of the writer's row blocks.
LONG_N_TASKS = 10_000
LONG_SEEDS = (42, 43)
LONG_POLICIES = ("mdp", "all_cloud")
FLAKY_NETWORK = (
    "network:\n  transition_matrix:\n"
    "    good:\n      good: 0.55\n      degraded: 0.15\n      offline: 0.30\n"
    "    degraded:\n      good: 0.30\n      degraded: 0.35\n      offline: 0.35\n"
    "    offline:\n      good: 0.25\n      degraded: 0.15\n      offline: 0.60\n"
)
# name -> (extra `simulate:` keys, extra top-level config text)
CONFIGS = {
    "default": ({}, ""),
    "gpu": ({"device": "gpu"}, ""),
    "flaky": ({}, FLAKY_NETWORK),
    "battery_low": ({"battery": "low"}, ""),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, name: str, **sim) -> None:
    sim_keys, extra = CONFIGS[name]
    lines = ["simulate:", *(f"  {k}: {v}" for k, v in {**sim_keys, **sim}.items())]
    path.write_text("\n".join(lines) + "\n" + extra, encoding="utf-8")


def collect_hashes(directory: Path, n_tasks: int = N_TASKS) -> dict:
    """Run the CLI over the whole matrix and hash every output file."""
    out = {"n_tasks": n_tasks, "events": {}, "reports": {}, "compare": {}, "events_10k": {}}
    config, report, events = directory / "c.yaml", directory / "report.json", directory / "events.jsonl"

    def simulate(key: str, seed: int, tasks: int) -> None:
        code = cli_main(["simulate", "--config", str(config), "--seed", str(seed),
                         "--n-tasks", str(tasks), "--out", str(report), "--events", str(events)])
        assert code == 0, key

    for name in CONFIGS:
        for policy in POLICIES:
            _write_config(config, name, policy=policy)
            for seed in SEEDS:
                key = f"{name}/{policy}/{seed}"
                simulate(key, seed, n_tasks)
                out["events"][key] = _sha256(events)
                out["reports"][key] = _sha256(report)
            if policy in LONG_POLICIES:
                for seed in LONG_SEEDS:
                    key = f"{name}/{policy}/{seed}"
                    simulate(key, seed, LONG_N_TASKS)
                    out["events_10k"][key] = _sha256(events)
        _write_config(config, name, n_tasks=n_tasks)
        for seed in SEEDS:
            code = cli_main(["compare", "--config", str(config), "--seed", str(seed), "--out", str(report)])
            assert code == 0, f"{name}/{seed}"
            out["compare"][f"{name}/{seed}"] = _sha256(report)
    return out


# name -> config file text for the route golden
ROUTE_CONFIGS = {"default": "", "sample": SAMPLE, "flaky": FLAKY_NETWORK}


def collect_route_hashes(directory: Path) -> dict:
    """Solve each route config, hash its policy file and the route lines of
    every state, and record its router fingerprint."""
    out = {}
    config, policy = directory / "route.yaml", directory / "policy.json"
    for name, text in ROUTE_CONFIGS.items():
        config.write_text(text, encoding="utf-8")
        policy.unlink(missing_ok=True)
        stdout = hashlib.sha256()
        for state in all_states():
            argv = ["route", "--config", str(config), "--policy", str(policy),
                    "--complexity", state.complexity.value, "--device", state.device_class.value,
                    "--network", state.network.value, "--battery", state.battery.value]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert cli_main(argv) == 0, f"{name}/{state}"
            stdout.update(buffer.getvalue().encode("utf-8"))
        out[name] = {
            "fingerprint": policy_fingerprint(load_config(str(config)).sim.router),
            "policy": _sha256(policy),
            "stdout": stdout.hexdigest(),
        }
    return out


QUERY_SEED = 2024
COPIES = ("a", "b", "c")
_WORDS = ("load", "save", "parse", "route", "charge", "render", "fetch", "merge", "token", "cache")


def query_corpus(seed: int = QUERY_SEED, n_units: int = 30) -> list[str]:
    """Seeded mini-language units: one class each, with a field, 1-3
    methods, calls, assignments and literals."""
    rng = random.Random(seed)
    units = []
    for i in range(n_units):
        lines = [f"class {rng.choice(_WORDS).title()}{i} {{", f"  int {rng.choice(_WORDS)} = {rng.randrange(100)};"]
        for m in range(rng.randrange(1, 4)):
            callee = rng.choice(_WORDS)
            lines.append(f"  void {rng.choice(_WORDS)}{m}(int a) {{ {callee}(\"{rng.choice(_WORDS)}\"); "
                         f"x = {rng.randrange(10)}; return x; }}")
        units.append("\n".join(lines) + "\n}\n")
    return units


def query_cases(units: list[str]) -> dict[str, list[str]]:
    """name -> `query` argv tail: copies of indexed units, a fresh snippet,
    free text for the token fallback and an empty (zero-vector) query, each
    at top-k 10 and 50 under both budgets, plus one top-k 0."""
    texts = {
        "copy0": units[0],
        "copy7": units[7],
        "snippet": "class Fetch { void merge0(int a) { cache(\"token\"); return a; } }",
        "free": "where is the render cache loaded",
        "empty": "",
    }
    cases = {
        f"{name}/k{k}/b{budget}": [text, "--top-k", str(k), "--budget", str(budget)]
        for name, text in texts.items() for k in (10, 50) for budget in (1024, 4096)
    }
    cases["copy0/k0/b4096"] = [units[0], "--top-k", "0", "--budget", "4096"]
    return cases


INDEX_TREE_SEED = 4243
NON_ASCII_UNIT = (
    "class Straße extends Größe {\n"
    "  int maß = \u0663\u0664;\n"
    "  void zähle(int n\u00b2) { grüße(\"héllo wörld\", n\u00b2); é = 7; return é; }\n"
    "  void grüße(String s, int k) { return s; }\n"
    "}\n"
)


def _break_line(rng: random.Random, text: str, edit) -> str:
    """`text` with `edit` applied to one seeded line past the first."""
    lines = text.split("\n")
    k = rng.randrange(1, len(lines) - 2)
    lines[k] = edit(lines[k])
    return "\n".join(lines)


def index_tree(seed: int = INDEX_TREE_SEED) -> dict[str, str]:
    """Relative path -> text: seeded `query_corpus` units in three folders,
    one unit with non-ASCII names and literals, and four units broken in a
    seeded place, one for each way a parse fails."""
    rng = random.Random(seed)
    breakers = (
        lambda text: _break_line(rng, text, lambda line: line + " \u216b"),  # unexpected character
        lambda text: _break_line(rng, text, lambda line: line + " \"open"),  # unterminated string
        lambda text: text.rstrip().rstrip("}"),  # unexpected end of input
        lambda text: _break_line(rng, text, lambda line: "  /* open " + line),  # unterminated block comment
    )
    units = query_corpus(seed, n_units=16)
    broken = dict(zip(rng.sample(range(len(units)), len(breakers)), breakers))
    files = {f"pkg{i % 3}/unit{i:02d}.mini": broken[i](text) if i in broken else text
             for i, text in enumerate(units)}
    files["pkg1/unicode.mini"] = NON_ASCII_UNIT
    return files


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    buffer, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        code = cli_main(argv)
    return code, buffer.getvalue(), errors.getvalue()


def v1_fixture_index() -> VectorIndex:
    """The records stored in `index_v1.bin`: eight-wide vectors, each of
    four directions under two or three ids, a zero vector, a scaled copy and
    varied metadata."""
    rng = np.random.default_rng(5150)
    directions = rng.standard_normal((4, 8)).astype("<f4")
    index = VectorIndex(band_config_hash="fixturehash", dim=8)
    rows = [(f"d{d}-{c}", directions[d]) for d in range(4) for c in "xyz"[: 2 + d % 2]]
    rows += [("zero", np.zeros(8, dtype="<f4")), ("scaled", 2.0 * directions[1])]
    for n, (record_id, vector) in enumerate(rows):
        meta = RecordMetadata(path=f"src/{record_id}/\u00e9t\u00e9.java", span="" if n % 3 else f"{n}-{n + 9}",
                              source_kind=("file", "doc", "snippet")[n % 3])
        index.insert(record_id, vector, meta)
    return index


def v1_fixture_queries() -> dict[str, tuple[np.ndarray, int]]:
    rng = np.random.default_rng(5151)
    queries = {f"random{i}/k{k}": (q, k) for i, q in enumerate(rng.standard_normal((3, 8))) for k in (1, 4, 20)}
    queries["direction1/k3"] = (v1_fixture_index().vector("d1-x").astype(np.float64), 3)
    queries["zero/k5"] = (np.zeros(8), 5)
    return queries


def search_rows(index: VectorIndex, query: np.ndarray, k: int) -> list[list[str]]:
    """A search result as JSON-able rows: id, exact similarity, metadata."""
    return [[h.id, float.hex(h.similarity), h.metadata.path, h.metadata.span, h.metadata.source_kind]
            for h in index.search(query, k).hits]


def collect_query_hashes(directory: Path) -> dict:
    """Index the seeded corpus under three ids per unit, hash `index` and
    every `query` stdout with its exit code, and search the v1 fixture."""
    units = query_corpus()
    for unit_no, text in enumerate(units):
        for copy in COPIES:
            path = directory / "corpus" / copy / f"unit{unit_no:02d}.mini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    out = {"index": {}, "query": {}}
    previous = os.getcwd()
    os.chdir(directory)
    try:
        code, stdout, _ = _run_cli(["index", "corpus", "--out", "index.bin"])
        out["index"] = {"code": code, "file": _sha256(Path("index.bin")),
                        "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
        for name, tail in query_cases(units).items():
            code, stdout, _ = _run_cli(["query", *tail, "--index", "index.bin", "--source-root", "corpus"])
            out["query"][name] = {"code": code, "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
        for rel, text in index_tree().items():
            path = Path("tree", rel)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        code, stdout, stderr = _run_cli(["index", "tree", "--out", "tree.bin"])
        out["index_tree"] = {"code": code, "file": _sha256(Path("tree.bin")), "stdout": stdout,
                             "stderr": stderr.splitlines()}
    finally:
        os.chdir(previous)
    fixture = VectorIndex.load(V1_FIXTURE)
    out["v1_fixture"] = {name: search_rows(fixture, q, k) for name, (q, k) in v1_fixture_queries().items()}
    return out


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return collect_hashes(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", ["events", "reports", "compare", "events_10k"])
def test_outputs_match_golden(hashes, golden, section):
    assert hashes["n_tasks"] == golden["n_tasks"]
    mismatched = sorted(k for k in golden[section] if hashes[section].get(k) != golden[section][k])
    assert set(hashes[section]) == set(golden[section])
    assert not mismatched, f"{len(mismatched)} {section} differ, first: {mismatched[:5]}"


@pytest.mark.parametrize("seed", (42, 43, 44))
@pytest.mark.parametrize("name", CONFIGS)
def test_compare_reports_match_single_runs(name, seed, tmp_path):
    """Each policy's report from the shared replay of `compare_policies` is
    the report of its own `run_simulation`."""
    _write_config(tmp_path / "c.yaml", name, n_tasks=N_TASKS)
    config = load_config(tmp_path / "c.yaml").sim_config(seed=seed)
    reports = compare_policies(config, list(PolicyKind)).reports
    workload = workload_from_config(config)
    for kind in PolicyKind:
        assert reports[kind.value] == run_simulation(workload, replace(config, policy=kind))[0], kind


def test_route_matches_golden(tmp_path):
    golden = json.loads(ROUTE_GOLDEN.read_text(encoding="utf-8"))
    assert collect_route_hashes(tmp_path) == golden


def test_query_matches_golden(tmp_path):
    golden = json.loads(QUERY_GOLDEN.read_text(encoding="utf-8"))
    assert collect_query_hashes(tmp_path) == golden


def test_v1_fixture_loads_bit_identically_and_resaves_as_v2(tmp_path):
    """`index_v1.bin` was written by the version-1 writer; it must load the
    same vectors, metadata and search results as building its records in
    memory, and save as version 2 exactly as that index does."""
    loaded, built = VectorIndex.load(V1_FIXTURE), v1_fixture_index()
    assert (loaded.ids(), loaded.dim, loaded.band_config_hash) == (built.ids(), built.dim, built.band_config_hash)
    assert all(loaded.vector(i).tobytes() == built.vector(i).tobytes() for i in built.ids())
    for query, k in [*v1_fixture_queries().values(), (np.zeros(8), len(built))]:
        assert search_rows(loaded, query, k) == search_rows(built, query, k)
    resaved, direct = tmp_path / "resaved.bin", tmp_path / "direct.bin"
    loaded.save(resaved)
    built.save(direct)
    assert resaved.read_bytes() == direct.read_bytes()
    assert json.loads(resaved.read_bytes().split(b"\n", 1)[0])["format_version"] == 2
    assert VectorIndex.load(resaved).ids() == built.ids()


if __name__ == "__main__":
    import tempfile

    goldens = ((GOLDEN, collect_hashes), (ROUTE_GOLDEN, collect_route_hashes),
               (QUERY_GOLDEN, collect_query_hashes))
    with tempfile.TemporaryDirectory() as tmp:
        for path, collect in goldens:
            path.write_text(json.dumps(collect(Path(tmp)), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path}")
