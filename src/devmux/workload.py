"""Seeded synthetic developer-task workloads.

Tasks arrive with exponential inter-arrival gaps; each draws a kind from
the configured mix and then files/dependencies/tokens from per-kind ranges.
All randomness flows from one PCG64 stream in a fixed draw order, so a
(seed, spec) pair always regenerates the identical workload. A workload is
held as per-task columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .routing import TASK_KINDS, TaskKind


@dataclass(frozen=True)
class KindRanges:
    """Inclusive sampling ranges for one task kind."""

    files: tuple[int, int]
    deps: tuple[int, int]
    tokens: tuple[int, int]

    def __post_init__(self) -> None:
        for lo, hi in (self.files, self.deps, self.tokens):
            if lo < 0 or hi < lo:
                raise ValueError("ranges must satisfy 0 <= lo <= hi")


def _default_mix() -> dict[TaskKind, float]:
    return {
        TaskKind.SYNTAX_FIX: 0.45,
        TaskKind.COMPLETION: 0.30,
        TaskKind.REFACTOR: 0.15,
        TaskKind.CRASH_ANALYSIS: 0.10,
    }


def _default_ranges() -> dict[TaskKind, KindRanges]:
    return {
        TaskKind.SYNTAX_FIX: KindRanges(files=(1, 1), deps=(0, 0), tokens=(40, 400)),
        TaskKind.COMPLETION: KindRanges(files=(1, 2), deps=(0, 2), tokens=(200, 3000)),
        TaskKind.REFACTOR: KindRanges(files=(2, 8), deps=(1, 4), tokens=(500, 4000)),
        TaskKind.CRASH_ANALYSIS: KindRanges(files=(1, 3), deps=(0, 3), tokens=(1000, 6000)),
    }


@dataclass(frozen=True)
class WorkloadSpec:
    mix: dict[TaskKind, float] = field(default_factory=_default_mix)
    ranges: dict[TaskKind, KindRanges] = field(default_factory=_default_ranges)
    inter_arrival_mean_s: float = 30.0

    def __post_init__(self) -> None:
        if set(self.mix) != set(TASK_KINDS):
            raise ValueError("mix must cover every task kind")
        if min(self.mix.values()) < 0:
            raise ValueError("mix entries must be >= 0")
        if abs(sum(self.mix.values()) - 1.0) > 1e-9:
            raise ValueError("mix must sum to 1")
        if set(self.ranges) != set(TASK_KINDS):
            raise ValueError("ranges must cover every task kind")
        if self.inter_arrival_mean_s <= 0:
            raise ValueError("inter_arrival_mean_s must be > 0")


@dataclass(eq=False)
class Workload:
    """Tasks in arrival order as equal-length columns; `kind` holds indices
    into TASK_KINDS."""

    seed: int
    mix: dict[TaskKind, float]
    arrival_s: np.ndarray
    kind: np.ndarray
    files: np.ndarray
    deps: np.ndarray
    tokens: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)


def generate_workload(n_tasks: int, seed: int, spec: WorkloadSpec | None = None) -> Workload:
    """Draw `n_tasks` tasks. Draw order is fixed: inter-arrival gaps, kind
    selectors, then the three per-task field selectors. A field is
    `lo + floor(u * (hi - lo + 1))` over its kind's inclusive range."""
    spec = spec or WorkloadSpec()
    if n_tasks < 0:
        raise ValueError("n_tasks must be >= 0")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    gaps = rng.exponential(spec.inter_arrival_mean_s, size=n_tasks)
    u_kind = rng.random(n_tasks)
    u_files = rng.random(n_tasks)
    u_deps = rng.random(n_tasks)
    u_tokens = rng.random(n_tasks)

    probs = np.array([spec.mix[k] for k in TASK_KINDS], dtype=np.float64)
    cumulative = np.cumsum(probs / probs.sum())
    kind = np.searchsorted(cumulative, u_kind, side="right").clip(0, len(TASK_KINDS) - 1)

    def scaled(u: np.ndarray, field_name: str) -> np.ndarray:
        lo, hi = np.array([getattr(spec.ranges[k], field_name) for k in TASK_KINDS], dtype=np.int64).T
        return lo[kind] + (u * (hi - lo + 1)[kind]).astype(np.int64)

    return Workload(
        seed=seed,
        mix=dict(spec.mix),
        arrival_s=np.cumsum(gaps),
        kind=kind,
        files=scaled(u_files, "files"),
        deps=scaled(u_deps, "deps"),
        tokens=scaled(u_tokens, "tokens"),
    )
