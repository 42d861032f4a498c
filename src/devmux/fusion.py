"""Rank and budget multi-source context items for prompt assembly.

Each item's raw score multiplies a per-source prior, a similarity softmax
term exp(cos/tau), an exponential recency decay, and a boost for runtime
logs near the active breakpoint. Scores normalize to weights summing to 1;
assembly packs items greedily in weight order under a token budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import ContextSource
from .configfile import VECTOR_DIM, FusionWeights
from .embedding import cosine


@dataclass(frozen=True, eq=False)
class ContextItem:
    source: ContextSource
    vector: np.ndarray
    text: str
    timestamp_s: float
    token_cost: int
    near_breakpoint: bool = False

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=np.float64)
        if vector.shape != (VECTOR_DIM,):
            raise ValueError(f"vector must have shape ({VECTOR_DIM},)")
        object.__setattr__(self, "vector", vector)
        if self.token_cost < 1:
            raise ValueError("token_cost must be >= 1")
        if self.timestamp_s < 0:
            raise ValueError("timestamp_s must be >= 0")
        if self.near_breakpoint and self.source is not ContextSource.RUNTIME_LOG:
            raise ValueError("near_breakpoint applies to runtime logs only")


@dataclass(frozen=True, eq=False)
class ScoredItem:
    item: ContextItem
    weight: float


@dataclass(eq=False)
class FusedContext:
    entries: tuple[ScoredItem, ...]
    total_tokens: int
    budget: int

    def rendered_text(self) -> str:
        return "\n\n".join(f"[{e.item.source.value}] {e.item.text}" for e in self.entries)


def score_items(
    query: np.ndarray,
    items: Sequence[ContextItem],
    weights: FusionWeights | None = None,
    now: float = 0.0,
) -> list[ScoredItem]:
    """Score items against a query embedding; weights sum to 1.

    Output is sorted by weight descending, newer items first on ties.
    Raises on an empty item list or when `now` precedes a timestamp.
    """
    if not items:
        raise ValueError("items must be non-empty")
    weights = weights or FusionWeights()
    if any(item.timestamp_s > now for item in items):
        raise ValueError("now must be >= every item timestamp")

    raws = []
    for item in items:
        similarity = cosine(query, item.vector)
        raw = (
            weights.prior[item.source]
            * math.exp(similarity / weights.temperature)
            * 2.0 ** (-(now - item.timestamp_s) / weights.recency_half_life_s)
            * (weights.breakpoint_boost if item.near_breakpoint else 1.0)
        )
        raws.append(raw)
    total = sum(raws)
    if total <= 0.0:
        raise ValueError("all items scored zero; check source priors")
    scored = [ScoredItem(item, raw / total) for item, raw in zip(items, raws)]
    scored.sort(key=lambda s: (-s.weight, -s.item.timestamp_s))
    return scored


def assemble_context(scored: Sequence[ScoredItem], budget: int) -> FusedContext:
    """Greedy packing in weight order under the token budget.

    Items that do not fit are skipped without stopping the scan; selected
    weights renormalize to sum 1. Zero-weight items are never included.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    for a, b in zip(scored, scored[1:]):
        if a.weight < b.weight:
            raise ValueError("scored items must be sorted by weight descending")

    selected: list[ScoredItem] = []
    total_tokens = 0
    for entry in scored:
        if entry.weight <= 0.0:
            continue
        if total_tokens + entry.item.token_cost <= budget:
            selected.append(entry)
            total_tokens += entry.item.token_cost

    weight_sum = sum(e.weight for e in selected)
    if weight_sum > 0.0:
        selected = [ScoredItem(e.item, e.weight / weight_sum) for e in selected]
    return FusedContext(entries=tuple(selected), total_tokens=total_tokens, budget=budget)
