"""devmux benchmark: one workload, one seed, a closed loop for N seconds.

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; devmux is imported from its `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. End-to-end times are
scaled to a fixed reference machine speed (see `e2e_metrics`).
Lines before the result (prefixed `#`) record the interpreter, numpy and
BLAS versions, `nproc`, each metric's sample count and the raw samples. Scratch files go under `.bench_work/`,
which is removed at the end except for `.bench_work/traces/`.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
IMPORT_REPS = 3
# Milliseconds per calibration unit (`worker.calibrate`) at the reference
# speed, plain and with the numpy pass: the reference machine when fast.
REF_CAL_MS = {False: 1.9, True: 1.7}

E2E_UNITS = {"op_ms.p50": "ms", "op_ms.p90": "ms", "op2_ms.p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_units() -> dict[str, str]:
    """Units of every metric a traced run reports."""
    import tracer

    units = {name: unit for name, unit, *_ in tracer.LAYER_METRICS}
    units.update({name: "1/s" for name, *_ in tracer.RATE_METRICS})
    units.update({f"cli.self_ms.{command}": "ms" for command in tracer.CLI_COMMANDS})
    units.update({"cli.import_ms": "ms", "trace.overhead_ms": "ms", "trace.overhead_pct": "%"})
    return units


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def tree_digest(root: Path) -> str:
    """Digest of a set-up directory, leaving out the worker's plan (it names
    the directory itself)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "plan.json"):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they expose
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class WorkerProcess:
    """One worker interpreter; the constructor returns once its warm-up is
    done."""

    def __init__(self, plan: dict, cwd: Path, env: dict):
        plan_path = cwd / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            self.stop()
            raise RuntimeError(f"worker did not get ready (exit {self.proc.returncode})")

    def send(self, word: str, timeout: float) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        if self.proc.wait(timeout=timeout) != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def import_ms(env: dict) -> float:
    """`import devmux.cli` in a fresh interpreter, as the process sees it."""
    code = "import time; t = time.perf_counter(); import devmux.cli; print((time.perf_counter() - t) * 1e3)"
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True, timeout=60).stdout)
             for _ in range(IMPORT_REPS)]
    return statistics.median(times)


def set_up_and_run(workload, seed: int, seconds: float, trace: bool, work: Path, env: dict,
                   spans_path: Path):
    """Set up `SETUP_REPS` times from scratch, then run the last set-up's
    worker loop. Returns the plan, its directory, (seconds, calibration ms)
    per set-up, whether the set-ups were byte-identical, and the worker's
    results."""
    setup_times, setup_cals, digests = [], [], []
    worker = None
    cal_args = (workload.numpy_calibration, workload.cal_units)
    try:
        for rep in range(SETUP_REPS):
            root = work / f"setup{rep}"
            cal = calibrate(*cal_args)
            start = time.perf_counter()
            plan = workload.setup(seed, root)
            worker = WorkerProcess(
                {"ops": plan.ops, "warmup": plan.warmup, "seconds": seconds, "trace": trace,
                 "numpy_calibration": workload.numpy_calibration, "cal_units": workload.cal_units,
                 "cwd": str(root), "src": str(SRC), "results": str(root / "results.json"),
                 "spans": str(spans_path)},
                root, env,
            )
            setup_times.append(time.perf_counter() - start)
            setup_cals.append((cal + calibrate(*cal_args)) / 2)
            digests.append(tree_digest(root))
            if rep < SETUP_REPS - 1:
                worker.send("exit", timeout=60)
                shutil.rmtree(root)
        worker.send("go", timeout=seconds + 150)
    finally:
        if worker is not None:
            worker.stop()
    results = json.loads((root / "results.json").read_text(encoding="utf-8"))
    return plan, root, list(zip(setup_times, setup_cals)), len(set(digests)) == 1, results


def check_records(workload, plan, root: Path, records: list[dict]) -> tuple[int, list[str]]:
    """Check each distinct input's first output against the workload's
    references, and every later run of that input against the first."""
    first = {r["key"]: r for r in records if "stdout" in r}
    by_key = {key: workload.check(plan, rec, root, first) for key, rec in first.items()}
    failed, problems = 0, []
    for rec in records:
        ref = first[rec["key"]]
        found = list(by_key[rec["key"]])
        if (rec["code"], rec["digest"], rec["files"]) != (ref["code"], ref["digest"], ref["files"]):
            found.append("output differs from an earlier run of the same input")
        if found:
            failed += 1
            problems.append(f"{rec['key'][:60]} ({rec['role']}, traced={rec['traced']}): {'; '.join(found)}")
    return failed, problems


def traced_metrics(records: list[dict], spans_path: Path, env: dict) -> tuple[dict, dict]:
    import tracer

    spans = tracer.with_self_times(tracer.load_spans(spans_path))
    metrics = tracer.layer_metrics(spans)
    plain = [r["ms"] for r in records if r["role"] == "op" and not r["traced"]]
    traced = [r["ms"] for r in records if r["role"] == "op" and r["traced"]]
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    metrics["cli.import_ms"] = import_ms(env)
    return metrics, {"traced op pairs": len(traced), "spans": len(spans)}


def e2e_metrics(records: list[dict], setups: list[tuple[float, float]], peak_rss_mb: float,
                ref_cal_ms: float) -> tuple[dict, dict]:
    """End-to-end numbers at the fixed reference machine speed.

    Each time is scaled by ref_cal_ms / cal, where cal is the calibration
    loop timed around that operation (or set-up). The factor is about 1 when
    the machine runs at the reference speed; otherwise it removes the drift
    of the machine's speed, within a run and between runs, not the
    program's."""
    op = [r["ms"] * ref_cal_ms / r["cal_ms"] for r in records if r["role"] == "op"]
    op2 = [r["ms"] * ref_cal_ms / r["cal_ms"] for r in records if r["role"] == "op2"]
    setup = [seconds * ref_cal_ms / cal for seconds, cal in setups]
    metrics = {
        "op_ms.p50": statistics.median(op),
        "op_ms.p90": p90(op),
        "op2_ms.p50": statistics.median(op2),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    samples = {
        "op_ms": [round(r["ms"], 2) for r in records if r["role"] == "op"],
        "op2_ms": [round(r["ms"], 2) for r in records if r["role"] == "op2"],
        "setup_s": [round(seconds, 3) for seconds, _ in setups],
        "cal_ms": [round(r["cal_ms"], 3) for r in records] + [round(cal, 3) for _, cal in setups],
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "devmux" / "cli.py").is_file():
        print(f"error: no devmux sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole process tree: the worker, its cold runs and
        # the calibration loop then see the same core's contention.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    spans_path = ROOT / ".bench_work" / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        plan, root, setups, same_setups, results = set_up_and_run(
            workload, args.seed, args.seconds, bool(args.trace), work, env, spans_path)
        records = results["records"]
        failed, problems = check_records(workload, plan, root, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not same_setups:
        problems.append("set-ups from one seed are not byte-identical")
    if args.trace:
        metrics, samples = traced_metrics(records, spans_path, env)
        units = layer_units()
    else:
        metrics, samples = e2e_metrics(records, setups, results["peak_rss_mb"],
                                       REF_CAL_MS[workload.numpy_calibration])
        units = E2E_UNITS

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"attempted={len(records)} failed={failed} problems={len(problems)}")
    if args.trace:
        print("# trace " + json.dumps(samples))
    else:
        print("# samples " + json.dumps({name: len(values) for name, values in samples.items()}))
        print("# raw values " + json.dumps(samples))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
