"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codegraph import CodeGraph, EdgeKind

VECTOR_DIM = 768
_LITERAL_LABELS = ("string-literal", "number-literal")
_EDGE_KINDS = (EdgeKind.CHILD, EdgeKind.NEXT_SIBLING, EdgeKind.INVOKES, EdgeKind.INHERITS)


@dataclass(frozen=True)
class BandConfig:
    structural_dims: int = 512
    identifier_dims: int = 192
    literal_dims: int = 64
    identifier_weight: float = 0.5
    wl_iterations: int = 3
    hash_seed: int = 0x5EEDC0DE

    def __post_init__(self) -> None:
        if self.structural_dims + self.identifier_dims + self.literal_dims != VECTOR_DIM:
            raise ValueError(f"band dims must sum to {VECTOR_DIM}")
        if min(self.structural_dims, self.identifier_dims, self.literal_dims) <= 0:
            raise ValueError("band dims must be > 0")
        if self.identifier_weight < 0:
            raise ValueError("identifier_weight must be >= 0")
        if self.wl_iterations < 0:
            raise ValueError("wl_iterations must be >= 0")
        if not 0 <= self.hash_seed < 2**64:
            raise ValueError(f"hash_seed must be in [0, 2**64), got {self.hash_seed}")

    def fingerprint(self) -> str:
        blob = json.dumps(
            {
                "structural_dims": self.structural_dims,
                "identifier_dims": self.identifier_dims,
                "literal_dims": self.literal_dims,
                "identifier_weight": self.identifier_weight,
                "wl_iterations": self.wl_iterations,
                "hash_seed": self.hash_seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _bucket(key: str, dims: int, seed: int) -> int:
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=False)
    ).digest()
    return int.from_bytes(digest, "little") % dims


def _signature_digest(signature: str) -> str:
    return hashlib.blake2b(signature.encode("utf-8"), digest_size=8).hexdigest()


def _wl_label_counts(graph: CodeGraph, rounds: int) -> Counter:
    """Counts of (round, label) pairs over `rounds` relabeling rounds.

    Round r+1 labels hash (own label, sorted neighbor labels per edge kind
    and direction); round 0 uses the raw node-kind labels. Identifier names
    never enter, so the result is invariant under renaming.
    """
    n = len(graph.nodes)
    out_nbrs: dict[EdgeKind, list[list[int]]] = {k: [[] for _ in range(n)] for k in _EDGE_KINDS}
    in_nbrs: dict[EdgeKind, list[list[int]]] = {k: [[] for _ in range(n)] for k in _EDGE_KINDS}
    for edge in graph.edges:
        out_nbrs[edge.kind][edge.src].append(edge.dst)
        in_nbrs[edge.kind][edge.dst].append(edge.src)

    labels = [node.label for node in graph.nodes]
    counts: Counter = Counter()
    for r in range(rounds + 1):
        for label in labels:
            counts[(r, label)] += 1
        if r == rounds:
            break
        new_labels = []
        for v in range(n):
            parts = [labels[v]]
            for kind in _EDGE_KINDS:
                outs = ",".join(sorted(labels[u] for u in out_nbrs[kind][v]))
                ins = ",".join(sorted(labels[u] for u in in_nbrs[kind][v]))
                parts.append(f"{kind.value}>{outs}<{ins}")
            new_labels.append(_signature_digest("|".join(parts)))
        labels = new_labels
    return counts


def graph_to_vector(graph: CodeGraph, bands: BandConfig | None = None) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector."""
    bands = bands or BandConfig()
    structural = np.zeros(bands.structural_dims, dtype=np.int64)
    identifiers = np.zeros(bands.identifier_dims, dtype=np.int64)
    literals = np.zeros(bands.literal_dims, dtype=np.int64)

    for (r, label), count in _wl_label_counts(graph, bands.wl_iterations).items():
        structural[_bucket(f"wl|{r}|{label}", bands.structural_dims, bands.hash_seed)] += count

    for node in graph.nodes:
        if node.name is None:
            continue
        if node.label in _LITERAL_LABELS:
            literals[_bucket(f"lit|{node.label}|{node.name}", bands.literal_dims, bands.hash_seed)] += 1
        else:
            identifiers[_bucket(f"id|{node.name}", bands.identifier_dims, bands.hash_seed)] += 1

    vector = np.concatenate(
        [
            structural.astype(np.float64),
            bands.identifier_weight * identifiers.astype(np.float64),
            literals.astype(np.float64),
        ]
    )
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        return vector
    return vector / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; the zero vector compares as 0 against anything."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))
