"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"

RUNS = {
    "run_comparison.py": (
        ["--n-tasks", "200"],
        "policy    median_ms p95_ms    sub_second cloud_frac energy      acc_loss failed",
    ),
    "seed_sweep.py": (
        ["--seeds", "2", "--n-tasks", "200"],
        "seed    mdp_cloud  allcloud   ratio    sub_second",
    ),
    "layout_bench.py": (
        ["--runs", "1"],
        "widgets  edges   median_ms  p_max_ms  statements  findings",
    ),
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, header = RUNS[script]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].rstrip() == header


def test_run_comparison_honours_compare_policies(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("compare:\n  policies:\n    - mdp\n    - all_edge\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_comparison.py"), "--config", str(config), "--n-tasks", "200"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["mdp", "all_edge"]
