"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.

WL relabelling is label compression: a `WLLabels` interns labels as ints and
builds and hashes a signature only the first time it meets it. `devmux
index` passes one `WLLabels` to every file of a run, so each distinct WL
signature is hashed once per run; a call without one gets a fresh one. The
vectors are the same either way.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codegraph import CodeGraph, EdgeKind

VECTOR_DIM = 768
_LITERAL_LABELS = ("string-literal", "number-literal")
_EDGE_KINDS = (EdgeKind.CHILD, EdgeKind.NEXT_SIBLING, EdgeKind.INVOKES, EdgeKind.INHERITS)
_EDGE_VALUES = tuple(kind.value for kind in _EDGE_KINDS)
# Outgoing-edge slot of each kind in a WL key; the incoming slot is one more.
_SLOTS = {kind: 2 * k for k, kind in enumerate(_EDGE_KINDS)}
_OWN_SLOT = 2 * len(_EDGE_KINDS)
# A `WLLabels` holding more entries (about 150 bytes each) than this is
# cleared before the next graph; a 150-file tree interns about 7,200.
_MAX_WL_ENTRIES = 1 << 16


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


def _bucket(key: str, dims: int, keyed) -> int:
    """Bucket of `key` among `dims`, from a copy of `keyed`, a blake2b hasher
    (8-byte digest) already keyed with the hash seed."""
    digest = keyed.copy()
    digest.update(key.encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") % dims


class WLLabels:
    """Weisfeiler-Lehman labels interned as ints, shared by the graphs of one run.

    An id stands for a label (`label(i)`): a raw node label, or the blake2b
    digest of a relabelling signature as 16 hex digits. A node's next label
    is keyed by the sorted int64 codes `id << 4 | slot` of the node itself
    (slot `_OWN_SLOT`) and of the far end of each of its edges (slot 2k for an
    outgoing and 2k + 1 for an incoming edge of the k-th kind in
    `_EDGE_KINDS`), packed as bytes. The key fixes every sorted neighbour
    list of the signature string, so that string and its digest are built
    only the first time a key is seen: WL label compression (Shervashidze et
    al., JMLR 2011, section 3). Digests are held as ints, not strings, to keep
    the map small. Two ids share a label only when two digests collide, and
    the vector reads labels, not ids, so it does not depend on which graphs
    shared the map.
    """

    def __init__(self) -> None:
        # raw label (str) or packed signature key (bytes) -> id
        self._ids: dict[str | bytes, int] = {}
        # id -> 8-byte blake2b digest of its signature, read big-endian;
        # 0 for a raw label
        self._digests = array("Q")
        self._raw: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        self._ids.clear()
        del self._digests[:]
        self._raw.clear()

    def id(self, key: str | bytes) -> int:
        """The id of a raw label or a packed signature key, interned on
        first sight."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._digests)
            if isinstance(key, str):
                self._raw[i] = key
                self._digests.append(0)
            else:
                self._digests.append(self._signature_digest(key))
        return i

    def label(self, i: int) -> str:
        """The label string of id `i`: a raw label, or its signature's
        digest as 16 hex digits."""
        raw = self._raw.get(i)
        return raw if raw is not None else f"{self._digests[i]:016x}"

    def _signature_digest(self, key: bytes) -> int:
        neighbours: list[list[str]] = [[] for _ in range(_OWN_SLOT + 1)]
        for code in np.frombuffer(key, dtype=np.int64).tolist():
            neighbours[code & 15].append(self.label(code >> 4))
        parts = neighbours[_OWN_SLOT]
        for value, outs, ins in zip(_EDGE_VALUES, neighbours[0::2], neighbours[1::2]):
            outs.sort()
            ins.sort()
            parts.append(f"{value}>{','.join(outs)}<{','.join(ins)}")
        digest = hashlib.blake2b("|".join(parts).encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")


def _wl_label_counts(graph: CodeGraph, rounds: int, wl: WLLabels) -> Counter:
    """Counts of (round, label id) pairs over `rounds` relabeling rounds,
    with ids interned in `wl`.

    Round r+1 labels hash (own label, sorted neighbor labels per edge kind
    and direction); round 0 uses the raw node-kind labels. Identifier names
    never enter, so the result is invariant under renaming.
    """
    n = len(graph.nodes)
    # One key entry per node for itself and one per edge end.
    owner = list(range(n))
    other = list(range(n))
    slot = [_OWN_SLOT] * n
    for edge in graph.edges:
        s = _SLOTS[edge.kind]
        owner += (edge.src, edge.dst)
        other += (edge.dst, edge.src)
        slot += (s, s + 1)
    owner_a, other_a, slot_a = (np.array(x, dtype=np.int64) for x in (owner, other, slot))
    # Byte offsets of each node's key once the int64 entries are sorted by owner.
    bounds = [0, *(8 * np.cumsum(np.bincount(owner_a, minlength=n))).tolist()]

    labels = np.array([wl.id(node.label) for node in graph.nodes], dtype=np.int64)
    counts: Counter = Counter()
    for r in range(rounds + 1):
        for i, count in Counter(labels.tolist()).items():
            counts[(r, i)] = count
        if r == rounds:
            break
        codes = labels[other_a] << 4 | slot_a
        keys = codes[np.lexsort((codes, owner_a))].tobytes()
        labels = np.array([wl.id(keys[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=np.int64)
    return counts


def graph_to_vector(
    graph: CodeGraph, bands: BandConfig | None = None, wl: WLLabels | None = None
) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector.

    `wl` carries interned WL labels from graph to graph; pass one `WLLabels`
    to every call of a run to hash each distinct signature once. The vector
    is the same with or without it.
    """
    bands = bands or BandConfig()
    if wl is None:
        wl = WLLabels()
    elif len(wl) > _MAX_WL_ENTRIES:
        wl.clear()
    keyed = hashlib.blake2b(digest_size=8, key=bands.hash_seed.to_bytes(8, "little", signed=False))
    structural = np.zeros(bands.structural_dims, dtype=np.int64)
    identifiers = np.zeros(bands.identifier_dims, dtype=np.int64)
    literals = np.zeros(bands.literal_dims, dtype=np.int64)

    for (r, i), count in _wl_label_counts(graph, bands.wl_iterations, wl).items():
        structural[_bucket(f"wl|{r}|{wl.label(i)}", bands.structural_dims, keyed)] += count

    for node in graph.nodes:
        if node.name is None:
            continue
        if node.label in _LITERAL_LABELS:
            literals[_bucket(f"lit|{node.label}|{node.name}", bands.literal_dims, keyed)] += 1
        else:
            identifiers[_bucket(f"id|{node.name}", bands.identifier_dims, keyed)] += 1

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
