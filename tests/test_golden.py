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
score is often tied, and the search results of the records of `index_v1.bin`
(its `v1_fixture` entry, searched in memory: ids and similarity bits). Its
`index_tree` entry pins `index` over a seeded tree with one broken file per
parse error and a unit with non-ASCII names: exit code, stdout, the stderr
warnings with their line and column, and the `index.bin` bytes.

`index_v1.bin` to `index_v5.bin` are index files in the version-1 to
version-5 layouts. Only version 6 loads, so each must fail to load and make
`query` exit 3 until the index is rebuilt. The version-3 file is the
version-2 file plus one norm per record, the version-5 file holds the
version-4 file's blocks plus the vectors' values by dimension, and a
version-6 file holds the version-5 file's blocks but the path, source kind
and span columns.

After a deliberate, documented byte change, rewrite the goldens with
`PYTHONPATH=src python tests/test_golden.py`; it prints one `wrote` line per
golden file. The five index fixtures are not rewritten: `save` no longer
writes their layouts.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from devmux import embedding
from devmux.cli import cli_main
from devmux.codegraph import ParseError, fallback_token_graph, parse_to_graph
from devmux.configfile import load_config
from devmux.embedding import graph_to_vector
from devmux.base import Battery, Complexity, DeviceClass, NetworkState
from devmux.routing import policy_fingerprint
from devmux.simulate import PolicyKind, compare_policies, run_simulation, workload_from_config
from devmux.vindex import FORMAT_VERSION, IndexVersionError, VectorIndex
from test_config import SAMPLE
from test_vindex import block, exhaustive_hits, hit_pairs, reference_by_dimension, write_v3, write_v4, write_v5

GOLDEN = Path(__file__).with_name("golden") / "sim_sha256.json"
ROUTE_GOLDEN = GOLDEN.with_name("route_sha256.json")
QUERY_GOLDEN = GOLDEN.with_name("query_sha256.json")
V1_FIXTURE = GOLDEN.with_name("index_v1.bin")
V2_FIXTURE = GOLDEN.with_name("index_v2.bin")
V3_FIXTURE = GOLDEN.with_name("index_v3.bin")
V4_FIXTURE = GOLDEN.with_name("index_v4.bin")
V5_FIXTURE = GOLDEN.with_name("index_v5.bin")
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
        code, _, _ = _run_cli(["simulate", "--config", str(config), "--seed", str(seed),
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
            code, _, _ = _run_cli(["compare", "--config", str(config), "--seed", str(seed), "--out", str(report)])
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
        stdout = hashlib.sha256()
        # Every state in dense order: each enum in declaration order, battery innermost.
        for c, d, n, b in itertools.product(Complexity, DeviceClass, NetworkState, Battery):
            argv = ["route", "--config", str(config), "--policy", str(policy),
                    "--complexity", c.value, "--device", d.value, "--network", n.value, "--battery", b.value]
            code, lines, _ = _run_cli(argv)
            assert code == 0, f"{name}/{c.value}/{d.value}/{n.value}/{b.value}"
            stdout.update(lines.encode("utf-8"))
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


def v1_fixture_rows() -> list[tuple[str, np.ndarray]]:
    """The records stored in the five index fixtures, in insertion order:
    eight-wide vectors, each of four directions under two or three ids, a
    zero vector and a scaled copy."""
    rng = np.random.default_rng(5150)
    directions = rng.standard_normal((4, 8)).astype("<f4")
    rows = [(f"d{d}-{c}", directions[d]) for d in range(4) for c in "xyz"[: 2 + d % 2]]
    return rows + [("zero", np.zeros(8, dtype="<f4")), ("scaled", 2.0 * directions[1])]


def v1_fixture_index() -> VectorIndex:
    index = VectorIndex(band_config_hash="fixturehash", dim=8)
    for record_id, vector in v1_fixture_rows():
        index.insert(record_id, vector)
    return index


def v1_fixture_columns(ids: list[str]) -> dict[str, list[str]]:
    """The string columns the fixtures of versions 3 to 5 hold for the
    records `ids`, in that order: each record's path, span and source kind
    vary with its insertion number n."""
    number = {record_id: n for n, (record_id, _) in enumerate(v1_fixture_rows())}
    return {"id": ids, "path": [f"src/{i}/\u00e9t\u00e9.java" for i in ids],
            "source_kind": [("file", "doc", "snippet")[number[i] % 3] for i in ids],
            "span": ["" if number[i] % 3 else f"{number[i]}-{number[i] + 9}" for i in ids]}


def v1_fixture_queries() -> dict[str, tuple[np.ndarray, int]]:
    rng = np.random.default_rng(5151)
    queries = {f"random{i}/k{k}": (q, k) for i, q in enumerate(rng.standard_normal((3, 8))) for k in (1, 4, 20)}
    queries["direction1/k3"] = (v1_fixture_index().vector("d1-x").astype(np.float64), 3)
    queries["zero/k5"] = (np.zeros(8), 5)
    return queries


def search_rows(index: VectorIndex, query: np.ndarray, k: int) -> list[list[str]]:
    """A search result as JSON-able rows: id and exact similarity."""
    return [[h.id, float.hex(h.similarity)] for h in index.search(query, k).hits]


def collect_query_hashes(directory: Path) -> dict:
    """Index the seeded corpus under three ids per unit, hash `index` and
    every `query` stdout with its exit code, and search the fixture records."""
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
    fixture = v1_fixture_index()
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


# OpenBLAS kernels, oldest first, with the CPU feature (as numpy names it) each needs.
BLAS_KERNELS = {"Prescott": "SSE3", "Sandybridge": "AVX", "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}


def _run_under_kernel(kernel: str, script: str, *args: str) -> str:
    """Standard output of `script`, run from this directory in a fresh
    interpreter whose OpenBLAS uses `kernel`; skips where the kernel cannot
    be chosen or the CPU lacks what it needs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS, so it has one kernel")
    if not __cpu_features__.get(BLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU lacks {BLAS_KERNELS[kernel]}, which the {kernel} kernel needs")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env,
                          cwd=Path(__file__).parent, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("kernel", BLAS_KERNELS)
def test_route_matches_golden_on_every_blas_kernel(kernel, tmp_path):
    """The route golden holds whichever OpenBLAS kernel numpy runs on: the
    policy solve computes no number through BLAS, whose summation order
    differs by kernel."""
    script = ("import json, sys\nfrom pathlib import Path\nfrom test_golden import collect_route_hashes\n"
              "print(json.dumps(collect_route_hashes(Path(sys.argv[1]))))")
    assert json.loads(_run_under_kernel(kernel, script, str(tmp_path))) == json.loads(
        ROUTE_GOLDEN.read_text(encoding="utf-8"))


def search_mismatches(directory: Path) -> list[str]:
    """The searches whose hits (id and similarity bits) differ from
    scoring every row with `VectorIndex._similarities`: over a seeded random
    index with copies, near ties and zero rows, and over the query golden's
    corpus as `index` writes it, each loaded and built; the corpus is
    searched with every `query_cases` text and the random index with random
    queries, copies of its rows and the zero query."""
    rng = np.random.default_rng(QUERY_SEED)
    vectors = rng.standard_normal((300, 768))
    vectors = np.concatenate([vectors, vectors[rng.integers(0, 300, 200)], np.zeros((4, 768)),
                              vectors[:40] * (1.0 + rng.standard_normal((40, 768)) * 2.0**-24)])
    random_index = VectorIndex("h")
    for i in rng.permutation(len(vectors)):
        random_index.insert(f"r{i:03d}", vectors[i])
    random_queries = [*rng.standard_normal((8, 768)), *vectors[rng.integers(0, 300, 8)], np.zeros(768)]
    for unit_no, text in enumerate(query_corpus()):
        for copy in COPIES:
            path = directory / "corpus" / copy / f"unit{unit_no:02d}.mini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    code, _, _ = _run_cli(["index", str(directory / "corpus"), "--out", str(directory / "index.bin")])
    assert code == 0
    corpus = VectorIndex.load(directory / "index.bin")
    texts = {tail[0] for tail in query_cases(query_corpus()).values()}
    corpus_queries = [graph_to_vector(_query_graph(text)) for text in sorted(texts)]
    mismatches = []
    for name, index, queries in (("random", random_index, random_queries), ("corpus", corpus, corpus_queries)):
        built = VectorIndex("h")
        for record_id in index.ids():
            built.insert(record_id, index.vector(record_id))
        for form, searched in (("", index), ("built ", built)):
            for q, query in enumerate(queries):
                for k in (1, 3, 10, 50, len(index)):
                    if hit_pairs(searched.search(query, k)) != exhaustive_hits(searched, query, k):
                        mismatches.append(f"{form}{name} query {q} k {k}")
    return mismatches


def _query_graph(text: str):
    """The graph `query` embeds for `text`."""
    try:
        return parse_to_graph(text)
    except ParseError:
        return fallback_token_graph(text)


@pytest.mark.parametrize("kernel", BLAS_KERNELS)
def test_search_equals_scoring_every_row_on_every_blas_kernel(kernel, tmp_path):
    """The bound pass keeps every hit of scoring every row whichever
    OpenBLAS kernel numpy runs on; the query golden itself still moves
    between kernels, through the float64 scoring both share."""
    script = ("import json, sys\nfrom pathlib import Path\nfrom test_golden import search_mismatches\n"
              "print(json.dumps(search_mismatches(Path(sys.argv[1]))))")
    assert json.loads(_run_under_kernel(kernel, script, str(tmp_path))) == []


def test_query_matches_golden(tmp_path):
    golden = json.loads(QUERY_GOLDEN.read_text(encoding="utf-8"))
    assert collect_query_hashes(tmp_path) == golden


@pytest.mark.parametrize("budget, cap", [(1, 1 << 16), (1 << 40, 1 << 16), (1000, 8)],
                         ids=["one_file_per_group", "one_group", "fresh_map_past_8_entries"])
def test_index_tree_bytes_do_not_depend_on_the_group_size(budget, cap, tmp_path, monkeypatch):
    """`index` embeds its files in groups of about `embedding._GROUP_NODES`
    nodes; one file per group, the whole tree in one group, and a fresh
    feature map before every group past `_MAX_WL_ENTRIES = 8` write the
    golden tree's `index.bin` bytes."""
    monkeypatch.setattr(embedding, "_GROUP_NODES", budget)
    monkeypatch.setattr(embedding, "_MAX_WL_ENTRIES", cap)
    for rel, text in index_tree().items():
        path = tmp_path / "tree" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    code, _, _ = _run_cli(["index", str(tmp_path / "tree"), "--out", str(tmp_path / "tree.bin")])
    golden = json.loads(QUERY_GOLDEN.read_text(encoding="utf-8"))["index_tree"]
    assert (code, _sha256(tmp_path / "tree.bin")) == (golden["code"], golden["file"])


@pytest.mark.parametrize("fixture, version", [(V1_FIXTURE, 1), (V2_FIXTURE, 2), (V3_FIXTURE, 3), (V4_FIXTURE, 4),
                                              (V5_FIXTURE, 5)], ids=["v1", "v2", "v3", "v4", "v5"])
def test_older_format_fixture_does_not_load_and_query_exits_three(fixture, version):
    """The index fixtures hold the records of `v1_fixture_index` in the
    version-1 to version-5 layouts; none loads, and `query` on any exits 3
    with one line naming the version."""
    with pytest.raises(IndexVersionError, match=f"format version {version} unsupported"):
        VectorIndex.load(fixture)
    code, stdout, stderr = _run_cli(["query", "class A { }", "--index", str(fixture)])
    assert (code, stdout) == (3, "")
    assert stderr == (f"cannot load index: {fixture}: format version {version} unsupported "
                      f"(expected {FORMAT_VERSION}); "
                      "rebuild the index with `devmux index`\n")


def test_v3_file_is_the_v2_file_with_its_norms_appended(tmp_path):
    """The version-3 fixture changes only the version number of the
    version-2 one and appends one float64 norm per record; the tests'
    version-3 writer gives its bytes. The fixtures store the records in the
    order `v1_fixture_index` inserts them."""
    v2, v3 = V2_FIXTURE.read_bytes(), V3_FIXTURE.read_bytes()
    assert v3[: len(v2)] == v2.replace(b'"format_version": 2}', b'"format_version": 3}', 1)
    index = v1_fixture_index()
    ids = ["d0-x", "d0-y", "d1-x", "d1-y", "d1-z", "d2-x", "d2-y", "d3-x", "d3-y", "d3-z", "zero", "scaled"]
    assert sorted(ids) == list(index.ids())
    stored = np.frombuffer(v3[len(v2):], dtype="<f8")
    matrix = np.stack([index.vector(i) for i in ids])
    assert stored.tobytes() == np.linalg.norm(matrix.astype(np.float64), axis=1).tobytes()
    write_v3(index, tmp_path / "v3.bin", v1_fixture_columns(ids))
    assert (tmp_path / "v3.bin").read_bytes() == v3


def contents(file, name):
    """The bytes of block `name` of an index file."""
    start, length = block(file, name)
    return file.read_bytes()[start:start + length]


def test_v5_file_holds_the_v4_blocks_and_the_vectors_by_dimension(tmp_path):
    """The version-5 fixture holds every block of the version-4 fixture
    byte for byte, plus the `vectors_by_dim` blocks, the values of `vectors`
    by dimension; the tests' version-4 writer turns it into the version-4
    fixture."""
    v4, v5 = V4_FIXTURE, tmp_path / "v5.bin"
    v5.write_bytes(V5_FIXTURE.read_bytes())
    header = json.loads(v5.read_bytes().split(b"\n", 1)[0])
    assert (header["format_version"], header["count"], header["dim"]) == (5, 12, 8)
    v4_blocks = json.loads(v4.read_bytes().split(b"\n", 1)[0])["blocks"]
    by_dim = reference_by_dimension(np.frombuffer(contents(v4, "vectors"), dtype="<f4").reshape(12, 8))
    assert sorted(header["blocks"]) == sorted([*v4_blocks, *by_dim])
    assert all(contents(v5, name) == contents(v4, name) for name in v4_blocks)
    assert all(contents(v5, name) == data for name, data in by_dim.items())
    write_v4(v5)
    assert v5.read_bytes() == v4.read_bytes()


def test_v6_file_holds_the_v5_blocks_but_the_path_kind_and_span_columns(tmp_path):
    """A version-6 save of the fixture records holds every block of the
    version-5 fixture byte for byte, except the `path`, `source_kind` and
    `span` columns; the tests' version-5 writer, given the fixture's
    columns, turns it into the version-5 fixture."""
    v5, v6 = V5_FIXTURE, tmp_path / "v6.bin"
    index = v1_fixture_index()
    index.save(v6)
    header = json.loads(v6.read_bytes().split(b"\n", 1)[0])
    assert (header["format_version"], header["count"], header["dim"]) == (6, 12, 8)
    v5_blocks = json.loads(v5.read_bytes().split(b"\n", 1)[0])["blocks"]
    dropped = [f"{name}.{part}" for name in ("path", "source_kind", "span") for part in ("offsets", "data")]
    assert sorted(header["blocks"]) == sorted(set(v5_blocks) - set(dropped))
    assert all(contents(v6, name) == contents(v5, name) for name in header["blocks"])
    write_v5(v6, v1_fixture_columns(list(index.ids())))
    assert v6.read_bytes() == v5.read_bytes()


if __name__ == "__main__":
    import tempfile

    goldens = ((GOLDEN, collect_hashes), (ROUTE_GOLDEN, collect_route_hashes),
               (QUERY_GOLDEN, collect_query_hashes))
    with tempfile.TemporaryDirectory() as tmp:
        for path, collect in goldens:
            path.write_text(json.dumps(collect(Path(tmp)), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path}")
