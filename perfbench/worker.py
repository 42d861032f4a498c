"""Benchmark worker: runs one workload's operations against devmux.

Started by `run.py` with a plan file. In-process operations call
`devmux.cli.cli_main` with the argv a user would type; cold operations
start `python -m devmux` in a fresh interpreter. The worker runs the
plan's warm-up operations, prints `ready`, and on `go` from standard input
runs operations in a closed loop, one at a time, for the plan's number of
seconds. It writes one record per operation to the results file.

With tracing on, every in-process operation runs twice in a row on the
same inputs: once untraced, once with the tracer installed. The pair gives
the tracing overhead and a byte-for-byte comparison of the outputs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def canonical_digest(stdout: str) -> str:
    """SHA-256 of the output bytes; a lint report is hashed without its
    run-dependent `elapsed_ms`."""
    if '"elapsed_ms"' in stdout:
        payload = json.loads(stdout)
        payload.pop("elapsed_ms")
        stdout = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(stdout.encode()).hexdigest()


def calibrate(numpy_pass: bool = False, units: int = 1) -> float:
    """Milliseconds per unit of a fixed loop: the machine's speed now.

    The reference machine is a shared VM whose speed drifts by up to 2x
    over seconds to minutes; timing this loop next to every operation lets
    the benchmark report each operation at one fixed reference speed. A
    unit is pure Python, like most of devmux, and takes about 2 ms. With
    `numpy_pass` half of a unit is a numpy pass over a fresh 8 MB array
    instead, for workloads whose time goes to large numpy arrays and the
    page faults that create them. More units average out more jitter.
    """
    import numpy as np

    start = time.perf_counter()
    for _ in range(units):
        counts: dict[int, int] = {}
        for i in range(10_000 if numpy_pass else 20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        if numpy_pass:
            np.ones(1 << 20).sum()
    return (time.perf_counter() - start) * 1000.0 / units


def file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Worker:
    def __init__(self, plan: dict):
        self.plan = plan
        from devmux.cli import cli_main

        self.cli_main = cli_main
        self.tracer = Tracer() if plan["trace"] else None
        self.records: list[dict] = []
        self.seen_keys: set[str] = set()

    def _run_in_process(self, argv: list[str], traced: bool) -> tuple[int, float, str]:
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
            self.tracer.op = len(self.records)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if traced:
                        with self.tracer.span(f"cli.{argv[0]}"):
                            code = self.cli_main(argv)
                    else:
                        code = self.cli_main(argv)
                except Exception:
                    # A crash fails this operation, as it would end the process
                    # with exit 1; the loop goes on.
                    traceback.print_exc()
                    code = 1
                ms = (time.perf_counter() - start) * 1000.0
        finally:
            if traced:
                self.tracer.uninstall()
        return code, ms, out.getvalue()

    def _run_cold(self, argv: list[str]) -> tuple[int, float, str]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "devmux", *argv],
            capture_output=True, text=True, timeout=120,
        )
        ms = (time.perf_counter() - start) * 1000.0
        return proc.returncode, ms, proc.stdout

    def run(self, op: dict, traced: bool = False, record: bool = True) -> None:
        cal_args = (self.plan["numpy_calibration"], self.plan["cal_units"])
        cal = calibrate(*cal_args)
        if op["cold"]:
            code, ms, stdout = self._run_cold(op["argv"])
        else:
            code, ms, stdout = self._run_in_process(op["argv"], traced)
        cal = (cal + calibrate(*cal_args)) / 2
        if not record:
            return
        rec = {
            "key": op["key"], "role": op["role"], "cold": op["cold"], "traced": traced,
            "code": code, "ms": ms, "cal_ms": cal, "digest": canonical_digest(stdout),
            "files": {p: file_digest(p) for p in op["hash"]},
        }
        if op["key"] not in self.seen_keys:
            self.seen_keys.add(op["key"])
            rec["stdout"] = stdout
        self.records.append(rec)

    def loop(self) -> None:
        ops, seconds = self.plan["ops"], self.plan["seconds"]
        # Run for the given time, and at least until every role has a sample.
        needed = {op["role"] for op in ops if self.tracer is None or not op["cold"]}
        seen: set[str] = set()
        start = time.perf_counter()
        i = 0
        while not needed <= seen or time.perf_counter() - start < seconds:
            op = ops[i % len(ops)]
            i += 1
            seen.add(op["role"])
            if self.tracer is None:
                self.run(op)
            elif not op["cold"]:
                self.run(op)
                self.run(op, traced=True)


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    os.chdir(plan["cwd"])
    worker = Worker(plan)
    import devmux

    if not Path(devmux.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"devmux imported from {devmux.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    for op in plan["ops"][: plan["warmup"]]:
        worker.run(op, record=False)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    worker.loop()
    if worker.tracer is not None:
        worker.tracer.dump(plan["spans"])
    results = {
        "records": worker.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(plan["results"]).write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
