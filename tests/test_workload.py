import numpy as np
import pytest

from devmux.routing import TaskKind, featurize_task
from devmux.workload import KindRanges, WorkloadSpec, generate_workload


def test_zero_tasks():
    workload = generate_workload(0, seed=1)
    assert workload.tasks == ()
    assert workload.seed == 1


def test_same_seed_identical():
    a = generate_workload(200, seed=42)
    b = generate_workload(200, seed=42)
    assert a.tasks == b.tasks


def test_different_seed_differs():
    a = generate_workload(200, seed=42)
    b = generate_workload(200, seed=43)
    assert a.tasks != b.tasks


def test_arrivals_non_decreasing():
    workload = generate_workload(500, seed=7)
    arrivals = [t.arrival_s for t in workload.tasks]
    assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))


def test_empirical_mix_within_two_points():
    n = 10_000
    workload = generate_workload(n, seed=42)
    counts = {kind: 0 for kind in TaskKind}
    for task in workload.tasks:
        counts[task.descriptor.kind] += 1
    for kind, p in workload.mix.items():
        assert abs(counts[kind] / n - p) <= 0.02


def test_fields_respect_ranges():
    spec = WorkloadSpec()
    workload = generate_workload(2_000, seed=3, spec=spec)
    for task in workload.tasks:
        r = spec.ranges[task.descriptor.kind]
        assert r.files[0] <= task.descriptor.files_touched <= r.files[1]
        assert r.deps[0] <= task.descriptor.cross_file_deps <= r.deps[1]
        assert r.tokens[0] <= task.descriptor.token_length <= r.tokens[1]


def test_default_ranges_keep_non_crash_kinds_below_high():
    workload = generate_workload(5_000, seed=11)
    for task in workload.tasks:
        complexity = featurize_task(task.descriptor)
        if task.descriptor.kind is TaskKind.CRASH_ANALYSIS:
            assert complexity.value == "high"
        else:
            assert complexity.value != "high"


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
