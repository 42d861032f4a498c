"""Seeded synthetic developer-task workloads.

Tasks arrive with exponential inter-arrival gaps; each draws a kind from
the configured mix and then files/dependencies/tokens from per-kind ranges.
All randomness flows from one PCG64 stream in a fixed draw order, so a
(seed, spec) pair always regenerates the identical workload. A workload is
held as per-task columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfile import WorkloadSpec
from .routing import TASK_KINDS, TaskKind


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
