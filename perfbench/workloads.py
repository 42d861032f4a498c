"""The four benchmark workloads: inputs, operation plans and output checks.

`setup(seed, root)` writes a workload's inputs under `root` (and, for
`query`, builds the index the queries search) and returns a `Plan`. Each
operation in the plan has a `role`: `op` is the workload's main command,
whose latency is `op_ms`; `op2` is its second command, whose latency is
`op2_ms` (see README.md for the table).

`check(plan, record, root, first)` returns the problems found in one
operation's output, judged against references computed here, never against
devmux; `first` maps each input key to its first record.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen


@dataclass
class Plan:
    ops: list[dict]
    warmup: int
    expect: dict = field(default_factory=dict)


def _op(key: str, argv: list[str], role: str = "op", cold: bool = False, hash_files=()) -> dict:
    return {"key": key, "argv": argv, "role": role, "cold": cold, "hash": list(hash_files)}


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _json(stdout: str) -> dict | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


# --------------------------------------------------------------------------
# sim-sweep


class SimSweep:
    """`compare` over all four policies at 10k tasks, each followed by
    `simulate --events` for the MDP policy on the same seed and config."""

    name = "sim-sweep"
    numpy_calibration = False
    # Calibration units timed before and after each operation: each side is
    # about 3 % of an operation.
    cal_units = 8
    n_pairs = 200

    def setup(self, seed: int, root: Path) -> Plan:
        root.mkdir(parents=True)
        for name, text in gen.SIM_CONFIGS.items():
            (root / f"{name}.yaml").write_text(text, encoding="utf-8")
        names = list(gen.SIM_CONFIGS)
        ops, events = [], {}
        for i, sim_seed in enumerate(gen.sim_seeds(seed, self.n_pairs)):
            cfg, s = names[i % len(names)], str(sim_seed)
            events[f"{cfg}:{s}"] = f"events-{i}.jsonl"
            ops.append(_op(f"compare:{cfg}:{s}",
                           ["compare", "--config", f"{cfg}.yaml", "--seed", s, "--out", "comparison.json"]))
            ops.append(_op(f"simulate:{cfg}:{s}",
                           ["simulate", "--config", f"{cfg}.yaml", "--seed", s,
                            "--out", "report.json", "--events", events[f"{cfg}:{s}"]],
                           role="op2", hash_files=[events[f"{cfg}:{s}"]]))
        return Plan(ops=ops, warmup=2, expect={"events": events})

    def check(self, plan: Plan, rec: dict, root: Path, first: dict[str, dict]) -> list[str]:
        payload = _json(rec["stdout"])
        if rec["code"] != 0 or payload is None:
            return [f"exit {rec['code']}, stdout not a JSON object"]
        kind, run = rec["key"].split(":", 1)
        sim_rec = first.get(f"simulate:{run}")
        events = sim_payload = None
        if sim_rec is not None:
            log = (root / plan.expect["events"][run]).read_text(encoding="utf-8")
            events = [json.loads(line) for line in log.splitlines()]
            sim_payload = _json(sim_rec["stdout"])
        if kind == "simulate":
            return self._check_simulate(payload, events)
        return self._check_compare(payload, events, sim_payload and sim_payload.get("metrics"))

    @staticmethod
    def _check_simulate(payload: dict, events: list[dict] | None) -> list[str]:
        problems = []
        if payload.get("policy") != "mdp" or payload.get("n_tasks") != gen.SIM_TASKS:
            problems.append("simulate report is not the 10k-task MDP run")
        if events is None:
            return problems + ["event log missing"]
        if [e["task_id"] for e in events] != list(range(gen.SIM_TASKS)):
            problems.append("event log does not hold tasks 0..n-1 in order")
        if any(e["action"] == "cloud" and e["network"] == "offline" for e in events):
            problems.append("MDP sent a task to the cloud while offline")
        expected = aggregate_events(events)
        got = payload.get("metrics", {})
        for name, value in expected.items():
            if name in ("total_energy_units", "mean_accuracy_loss"):
                same = math.isclose(got.get(name, math.nan), value, rel_tol=1e-9)
            else:
                same = got.get(name) == value
            if not same:
                problems.append(f"report {name}={got.get(name)!r}, event log gives {value!r}")
        if got.get("failed_count") != 0:
            problems.append("MDP run has failures")
        return problems

    @staticmethod
    def _check_compare(payload: dict, events: list[dict] | None, sim_metrics: dict | None) -> list[str]:
        reports, deltas = payload.get("reports", {}), payload.get("deltas", {})
        policies = {"all_cloud", "all_edge", "threshold", "mdp"}
        if set(reports) != policies or payload.get("baseline") != "all_cloud":
            return [f"compare covers {sorted(reports)}, baseline {payload.get('baseline')!r}"]
        problems = []
        base = reports["all_cloud"]
        for name, report in reports.items():
            if report["n_tasks"] != gen.SIM_TASKS:
                problems.append(f"{name}: n_tasks {report['n_tasks']}")
            for f, value in deltas.get(name, {}).items():
                if value != report[f] - base[f]:
                    problems.append(f"{name}: delta {f} is not the paired difference")
        if reports["all_edge"]["cloud_call_fraction"] != 0 or reports["all_edge"]["failed_count"] != 0:
            problems.append("all_edge made cloud calls or failed")
        if reports["all_cloud"]["cloud_call_fraction"] != 1.0:
            problems.append("all_cloud kept tasks local")
        if reports["mdp"]["failed_count"] != 0:
            problems.append("mdp run has failures")
        if sim_metrics is not None and reports["mdp"] != sim_metrics:
            problems.append("compare's mdp report differs from simulate's on the same seed")
        if events is not None:
            # Every policy replays the same network trace and task complexities.
            n = len(events)
            offline = sum(e["network"] == "offline" for e in events)
            high_online = sum(e["complexity"] == "high" and e["network"] != "offline" for e in events)
            if reports["all_cloud"]["failed_count"] != offline:
                problems.append(f"all_cloud failures {reports['all_cloud']['failed_count']} != offline steps {offline}")
            if reports["threshold"]["cloud_call_fraction"] != high_online / n:
                problems.append("threshold cloud calls differ from high-complexity online tasks")
        return problems


def aggregate_events(events: list[dict], sub_second_ms: float = 1000.0) -> dict:
    """The documented report fields, recomputed from an event log."""
    n = len(events)
    lat = sorted(e["latency_ms"] for e in events)
    return {
        "n_tasks": n,
        "median_latency_ms": (lat[(n - 1) // 2] + lat[n // 2]) / 2,
        "p95_latency_ms": lat[max(math.ceil(0.95 * n) - 1, 0)],
        "sub_second_fraction": sum(x < sub_second_ms for x in lat) / n,
        "cloud_call_fraction": sum(e["action"] == "cloud" for e in events) / n,
        "total_energy_units": math.fsum(e["energy_units"] for e in events),
        "mean_accuracy_loss": math.fsum(e["accuracy_loss"] for e in events) / n,
        "failed_count": sum(bool(e["failed"]) for e in events),
    }


# --------------------------------------------------------------------------
# index-build


class IndexBuild:
    """`devmux index` over a seeded tree of 150 files, 5 of them broken;
    every third operation runs in a fresh interpreter."""

    name = "index-build"
    numpy_calibration = False
    cal_units = 8

    def setup(self, seed: int, root: Path) -> Plan:
        tree = gen.mini_tree(seed)
        _write_tree(root / "tree", tree.files)
        argv = ["index", "tree", "--out", "index.bin"]
        warm = _op("tree", argv, hash_files=["index.bin"])
        ops = [warm, warm, _op("tree", argv, role="op2", cold=True, hash_files=["index.bin"])]
        return Plan(ops=ops, warmup=1,
                    expect={"indexed": tree.parseable, "parse_failures": tree.unparseable})

    def check(self, plan: Plan, rec: dict, root: Path, first: dict[str, dict]) -> list[str]:
        payload = _json(rec["stdout"])
        want = {**plan.expect, "skipped_over_cap": 0, "out": "index.bin"}
        problems = []
        if rec["code"] != 1:
            problems.append(f"exit {rec['code']}, expected 1 for the broken files")
        if payload != want:
            problems.append(f"index reported {payload}, expected {want}")
        return problems


# --------------------------------------------------------------------------
# query


class Query:
    """`devmux query` against a 10k-record index of 2,500 units stored under
    four ids each; every third query runs in a fresh interpreter."""

    name = "query"
    # Index load and search copy tens of MB of arrays per query.
    numpy_calibration = True
    cal_units = 6

    def setup(self, seed: int, root: Path) -> Plan:
        from devmux.codegraph import parse_to_graph
        from devmux.embedding import BandConfig, graph_to_vector
        from devmux.vindex import RecordMetadata, VectorIndex

        corpus = gen.query_corpus(seed)
        # Vendored copies are hard links to the first copy: devmux reads the
        # same bytes under each id, and set-up creates 2,500 files instead of
        # 10,000, whose creation time on a shared disk varies several-fold.
        for text, rids in zip(corpus.units, corpus.ids):
            _write_tree(root / "corpus", {rids[0]: text})
            for rid in rids[1:]:
                (root / "corpus" / rid).parent.mkdir(parents=True, exist_ok=True)
                os.link(root / "corpus" / rids[0], root / "corpus" / rid)
        vectors = [graph_to_vector(parse_to_graph(text)) for text in corpus.units]
        rows = sorted((rid, u) for u, rids in enumerate(corpus.ids) for rid in rids)
        index = VectorIndex(band_config_hash=BandConfig().fingerprint())
        for rid, u in rows:
            span = f"1-{corpus.units[u].count(chr(10)) + 1}"
            index.insert(rid, vectors[u], RecordMetadata(path=rid, span=span, source_kind="file"))
        index.save(root / "index.bin")

        queries = gen.query_set(seed, corpus)
        ops = []
        for j, q in enumerate(queries):
            argv = ["query", q.text, "--top-k", str(q.top_k), "--budget", str(q.budget),
                    "--index", "index.bin", "--source-root", "corpus"]
            cold = j % 3 == 2
            ops.append(_op(f"q{j}", argv, role="op2" if cold else "op", cold=cold))
        expect = {
            "ids": [rid for rid, _ in rows],
            "stored": np.stack([vectors[u] for _, u in rows]).astype("<f4"),
            "texts": {rid: corpus.units[u] for rid, u in rows},
            "queries": {f"q{j}": q for j, q in enumerate(queries)},
        }
        return Plan(ops=ops, warmup=1, expect=expect)

    def check(self, plan: Plan, rec: dict, root: Path, first: dict[str, dict]) -> list[str]:
        payload = _json(rec["stdout"])
        if rec["code"] != 0 or payload is None:
            return [f"exit {rec['code']}, stdout not a JSON object"]
        q = plan.expect["queries"][rec["key"]]
        want = expected_bundle(q.text, q.top_k, q.budget, plan.expect)
        got_ids = [e["text"].split(": ", 1)[0] for e in payload.get("entries", [])]
        problems = []
        if payload.get("total_tokens", math.inf) > q.budget:
            problems.append("bundle exceeds the token budget")
        if got_ids != want["ids"]:
            problems.append(f"entries {got_ids[:5]}... differ from the oracle's {want['ids'][:5]}...")
        elif any(e["text"] != t for e, t in zip(payload["entries"], want["texts"])):
            problems.append("entry text differs from the indexed file")
        elif not all(math.isclose(e["weight"], w, rel_tol=1e-9)
                     for e, w in zip(payload["entries"], want["weights"])):
            problems.append("fusion weights differ from the reference")
        if payload.get("total_tokens") != want["total_tokens"]:
            problems.append(f"total_tokens {payload.get('total_tokens')} != {want['total_tokens']}")
        return problems


def exact_top_k(matrix: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Row numbers of the exact top-k: float64 cosine over the stored float32
    vectors (`matrix` holds them widened to float64), sorted by descending
    similarity and then ascending id."""
    norms = np.linalg.norm(matrix, axis=1)
    qnorm = np.linalg.norm(query)
    sims = np.zeros(len(ids))
    if qnorm > 0:
        nonzero = norms > 0
        sims[nonzero] = (matrix[nonzero] @ query) / (norms[nonzero] * qnorm)
    order = np.lexsort((ids, -sims))
    return [int(i) for i in order[:k]]


def expected_bundle(text: str, top_k: int, budget: int, expect: dict) -> dict:
    """The fused bundle the documented contract gives for one query: exact
    top-k hits, weights proportional to exp(cos / 0.1) (one source, one
    timestamp), packed greedily in weight order under the token budget."""
    from devmux.codegraph import ParseError, fallback_token_graph, parse_to_graph
    from devmux.embedding import graph_to_vector

    try:
        graph = parse_to_graph(text)
    except ParseError:
        graph = fallback_token_graph(text)
    query = graph_to_vector(graph)
    if "matrix" not in expect:
        expect["matrix"] = expect["stored"].astype(np.float64)
        expect["id_array"] = np.array(expect["ids"])
    rows = exact_top_k(expect["matrix"], expect["id_array"], query, top_k)
    qnorm = np.linalg.norm(query)
    hits = []
    for r in rows:
        rid = expect["ids"][r]
        vec = expect["stored"][r].astype(np.float64)
        norm = np.linalg.norm(vec)
        cos = 0.0 if qnorm == 0 or norm == 0 else float(np.dot(query, vec) / (qnorm * norm))
        entry_text = f"{rid}: {expect['texts'][rid][:400]}"
        hits.append((rid, entry_text, math.exp(cos / 0.1), max(1, math.ceil(len(entry_text) / 4))))
    total = sum(h[2] for h in hits)
    ranked = sorted(hits, key=lambda h: -h[2] / total)
    chosen, used = [], 0
    for h in ranked:
        if used + h[3] <= budget:
            chosen.append(h)
            used += h[3]
    mass = sum(h[2] / total for h in chosen)
    return {
        "ids": [h[0] for h in chosen],
        "texts": [h[1] for h in chosen],
        "weights": [(h[2] / total) / mass for h in chosen],
        "total_tokens": used,
    }


# --------------------------------------------------------------------------
# layout-lint


class LayoutLint:
    """`devmux describe-layout` over ten seeded layouts of 50-1000 widgets;
    one operation in eleven lints a 300-widget layout in a fresh interpreter."""

    name = "layout-lint"
    numpy_calibration = False
    cal_units = 1

    def setup(self, seed: int, root: Path) -> Plan:
        (root / "layouts").mkdir(parents=True)
        ops, expect = [], {}
        for i, size in enumerate(gen.LAYOUT_SIZES):
            spec = gen.layout(seed, size, variant=i)
            rel = f"layouts/screen{i}_{size}.xml"
            (root / rel).write_text(spec.xml, encoding="utf-8")
            ops.append(_op(rel, ["describe-layout", rel]))
            expect[rel] = spec
        cold = next(o for o, size in zip(ops, gen.LAYOUT_SIZES) if size == 300)
        ops.append(_op(cold["key"], cold["argv"], role="op2", cold=True))
        return Plan(ops=ops, warmup=len(gen.LAYOUT_SIZES), expect=expect)

    def check(self, plan: Plan, rec: dict, root: Path, first: dict[str, dict]) -> list[str]:
        payload = _json(rec["stdout"])
        spec = plan.expect[rec["key"]]
        if rec["code"] != 1 or payload is None:
            return [f"exit {rec['code']}, expected 1 with findings"]
        problems = []
        if len(payload.get("statements", [])) != spec.statements:
            problems.append(f"{len(payload.get('statements', []))} statements for {spec.statements} constraints")
        findings = [(f["kind"], tuple(f["widgets"])) for f in payload.get("findings", [])]
        if len(findings) != len(spec.findings) or set(findings) != spec.findings:
            problems.append(f"findings {sorted(set(findings) ^ spec.findings)[:4]} differ from the injected set")
        return problems


WORKLOADS = {w.name: w for w in (SimSweep(), IndexBuild(), Query(), LayoutLint())}
