"""Tests of the benchmark's own code: generators, references and metadata.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _all_inputs(seed: int) -> list[str]:
    corpus = gen.query_corpus(seed, n_units=40)
    parts = [
        json.dumps(gen.mini_tree(seed).files, sort_keys=True),
        json.dumps(corpus.files(), sort_keys=True),
        json.dumps([q.__dict__ for q in gen.query_set(seed, corpus)]),
        "".join(gen.layout(seed, size, i).xml for i, size in enumerate(gen.LAYOUT_SIZES[:3])),
        json.dumps(gen.sim_seeds(seed, 10)),
    ]
    return parts


def test_same_seed_gives_same_bytes():
    assert _all_inputs(7) == _all_inputs(7)


def test_different_seed_gives_different_inputs():
    for a, b in zip(_all_inputs(7), _all_inputs(8)):
        assert a != b


def test_mini_tree_has_the_fixed_shape():
    tree = gen.mini_tree(3)
    assert len(tree.files) == 150 and (tree.parseable, tree.unparseable) == (145, 5)
    classes = sum(text.count("\nclass ") for text in tree.files.values())
    assert classes == sum((i % 8) + 1 for i in range(150))


def test_broken_files_fail_to_parse_and_the_rest_parse():
    from devmux.codegraph import ParseError, parse_to_graph

    failures = 0
    for text in gen.mini_tree(5).files.values():
        try:
            parse_to_graph(text)
        except ParseError:
            failures += 1
    assert failures == 5


def test_vendored_copies_share_one_text():
    corpus = gen.query_corpus(1, n_units=20)
    files = corpus.files()
    assert len(files) == 80
    for text, ids in zip(corpus.units, corpus.ids):
        assert len(ids) == 4 and {files[i] for i in ids} == {text}


def test_layout_findings_match_devmux():
    from devmux.layoutlint import check_layout_source

    spec = gen.layout(2, 300, variant=1)
    report = check_layout_source(spec.xml)
    assert len(report.statements) == spec.statements
    assert {(f.kind.value, f.widgets) for f in report.findings} == spec.findings
    kinds = {kind for kind, _ in spec.findings}
    assert kinds == {"missing_click_handler", "conflicting_visibility", "constraint_cycle", "dangling_reference"}


def test_exact_top_k_breaks_ties_by_ascending_id():
    matrix = np.array([[1, 0], [0, 1], [1, 0], [1, 0]], dtype=np.float64)
    ids = np.array(["d", "a", "c", "b"])
    assert workloads.exact_top_k(matrix, ids, np.array([1.0, 0.0]), 2) == [3, 2]


def test_aggregate_events_uses_the_documented_rules():
    events = [
        {"latency_ms": x, "action": a, "energy_units": 1.0, "accuracy_loss": 0.5, "failed": f}
        for x, a, f in ((300.0, "edge", False), (2500.0, "cloud", False), (10000.0, "cloud", True), (150.0, "edge", False))
    ]
    agg = workloads.aggregate_events(events)
    assert agg["median_latency_ms"] == (300.0 + 2500.0) / 2
    assert agg["p95_latency_ms"] == 10000.0
    assert (agg["sub_second_fraction"], agg["cloud_call_fraction"], agg["failed_count"]) == (0.5, 0.5, 1)


def test_times_are_scaled_to_the_reference_speed():
    # The same operation timed on a machine at half speed reads the same.
    fast = {"role": "op", "ms": 100.0, "cal_ms": 2.0}
    slow = {"role": "op2", "ms": 200.0, "cal_ms": 4.0}
    metrics, _ = run.e2e_metrics([fast, slow], [(1.0, 2.0), (3.0, 6.0), (2.0, 4.0)], 10.0, ref_cal_ms=1.0)
    assert metrics["op_ms.p50"] == metrics["op2_ms.p50"] == 50.0
    assert metrics["setup_s"] == 0.5


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
