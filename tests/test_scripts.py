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
}

# The full stdout of the two simulation scripts at these sizes, pinned.
PINNED_STDOUT = {
    "run_comparison.py": (
        ["--n-tasks", "200"],
        "policy    median_ms p95_ms    sub_second cloud_frac energy      acc_loss failed \n"
        "all_cloud 2650      7800      0.000      1.000      1341        0.0000   7      \n"
        "all_edge  300       2400      0.900      0.000      353         0.0472   0      \n"
        "threshold 300       3000      0.900      0.095      619         0.0197   0      \n"
        "mdp       300       3000      0.900      0.055      507         0.0313   0      \n",
    ),
    "seed_sweep.py": (
        ["--seeds", "2", "--n-tasks", "200"],
        "seed    mdp_cloud  allcloud   ratio    sub_second\n"
        "42      0.0550     1.0000     0.0550   0.9000\n"
        "43      0.0800     1.0000     0.0800   0.9000\n"
        "\n"
        "2/2 seeds at <=50% of all-cloud calls, 2/2 seeds at >=85% sub-second\n",
    ),
}


def run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, header = RUNS[script]
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].rstrip() == header


@pytest.mark.parametrize("script", sorted(PINNED_STDOUT))
def test_script_stdout_pinned(script):
    args, stdout = PINNED_STDOUT[script]
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


@pytest.mark.parametrize(("script", "args", "message"), [
    ("seed_sweep.py", ["--n-tasks", "-5"], "argument --n-tasks: must be >= 0, got -5"),
    ("seed_sweep.py", ["--first-seed", "-1"], "argument --first-seed: must be >= 0, got -1"),
    ("seed_sweep.py", ["--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    ("seed_sweep.py", ["--seeds", "two"], "argument --seeds: not an integer: 'two'"),
    ("run_comparison.py", ["--n-tasks", "-5"], "argument --n-tasks: must be >= 0, got -5"),
    ("run_comparison.py", ["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    ("run_comparison.py", ["--n-tasks", "100000000000000000000"], "argument --n-tasks: n_tasks must be <= 10000000"),
    ("seed_sweep.py", ["--n-tasks", "10000001"], "argument --n-tasks: n_tasks must be <= 10000000"),
])
def test_script_rejects_bad_count(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_comparison_honours_compare_policies(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("compare:\n  policies:\n    - mdp\n    - all_edge\n")
    proc = run_script("run_comparison.py", "--config", str(config), "--n-tasks", "200")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["mdp", "all_edge"]
