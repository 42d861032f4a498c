import numpy as np
import pytest

from devmux.routing import COMPLEXITIES, TASK_KINDS, Complexity, TaskKind, complexity_indices
from devmux.configfile import KindRanges
from devmux.workload import WorkloadSpec, generate_workload


def columns(workload):
    return (workload.arrival_s, workload.kind, workload.files, workload.deps, workload.tokens)


def same_tasks(a, b):
    return all(np.array_equal(x, y) for x, y in zip(columns(a), columns(b)))


def test_zero_tasks():
    workload = generate_workload(0, seed=1)
    assert len(workload) == 0
    assert all(column.shape == (0,) for column in columns(workload))
    assert workload.seed == 1


def test_same_seed_identical():
    a = generate_workload(200, seed=42)
    b = generate_workload(200, seed=42)
    assert same_tasks(a, b)


def test_different_seed_differs():
    a = generate_workload(200, seed=42)
    b = generate_workload(200, seed=43)
    assert not same_tasks(a, b)


def test_arrivals_non_decreasing():
    workload = generate_workload(500, seed=7)
    assert (np.diff(workload.arrival_s) >= 0).all()


def test_empirical_mix_within_two_points():
    n = 10_000
    workload = generate_workload(n, seed=42)
    counts = np.bincount(workload.kind, minlength=len(TASK_KINDS))
    for kind, p in workload.mix.items():
        assert abs(counts[TASK_KINDS.index(kind)] / n - p) <= 0.02


def test_fields_respect_ranges():
    spec = WorkloadSpec()
    workload = generate_workload(2_000, seed=3, spec=spec)
    for name, column in (("files", workload.files), ("deps", workload.deps), ("tokens", workload.tokens)):
        lo, hi = np.array([getattr(spec.ranges[k], name) for k in TASK_KINDS]).T
        assert (lo[workload.kind] <= column).all(), name
        assert (column <= hi[workload.kind]).all(), name


def test_default_ranges_keep_non_crash_kinds_below_high():
    workload = generate_workload(5_000, seed=11)
    complexity = complexity_indices(workload.kind, workload.files, workload.deps, workload.tokens)
    high = complexity == COMPLEXITIES.index(Complexity.HIGH)
    crash = workload.kind == TASK_KINDS.index(TaskKind.CRASH_ANALYSIS)
    assert (high == crash).all()


def test_invalid_mix_rejected():
    mix = {TaskKind.SYNTAX_FIX: 0.5, TaskKind.COMPLETION: 0.5,
           TaskKind.REFACTOR: 0.5, TaskKind.CRASH_ANALYSIS: 0.5}
    with pytest.raises(ValueError, match="sum"):
        WorkloadSpec(mix=mix)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_workload(-1, seed=0)


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        KindRanges(files=(3, 2), deps=(0, 0), tokens=(1, 2))
