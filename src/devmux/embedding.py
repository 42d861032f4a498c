"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.

WL relabelling is label compression: a `WLLabels` interns labels as ints and
builds and hashes a signature only the first time it meets it. Each id
belongs to one round, so it also keeps each id's structural bucket, hashed
the first time a vector needs it and kept while the bands' structural dims
and hash seed stay the same. `devmux index` passes one `WLLabels` to every
file of a run, so each distinct WL signature and bucket is hashed once per
run; a call without one gets a fresh one. The vectors are the same either
way.
"""

from __future__ import annotations

import hashlib
from array import array

import numpy as np

from .codegraph import EDGE_KINDS, CodeGraph
from .configfile import VECTOR_DIM, BandConfig  # VECTOR_DIM is re-exported
_LITERAL_LABELS = ("string-literal", "number-literal")
_EDGE_VALUES = tuple(kind.value for kind in EDGE_KINDS)
# Slot of a node's own entry in its WL key; an edge of kind k has slot 2k at
# its source end and 2k + 1 at its destination end.
_OWN_SLOT = 2 * len(EDGE_KINDS)
# A `WLLabels` holding more entries (about 160 bytes each) than this is
# cleared before the next graph; a 150-file tree interns about 7,200.
_MAX_WL_ENTRIES = 1 << 16


def _keyed(hash_seed: int):
    """A blake2b hasher (8-byte digest) keyed with `hash_seed`."""
    return hashlib.blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little", signed=False))


def _bucket(key: str, dims: int, keyed) -> int:
    """Bucket of `key` among `dims`, from a copy of `keyed`, a hasher made
    by `_keyed`."""
    digest = keyed.copy()
    digest.update(key.encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") % dims


class WLLabels:
    """Weisfeiler-Lehman labels interned as ints, shared by the graphs of one run.

    An id stands for a label (`label(i)`): a raw node label, or the blake2b
    digest of a relabelling signature as 16 hex digits. A node's next label
    is keyed by the sorted int64 codes `id << 4 | slot` of the node itself
    (slot `_OWN_SLOT`) and of the far end of each of its edges (slot 2k for an
    outgoing and 2k + 1 for an incoming edge of kind `EDGE_KINDS[k]`), packed
    as bytes. The key fixes every sorted neighbour list of the signature
    string, so that string and its digest are built only the first time a
    key is seen: WL label compression (Shervashidze et al., JMLR 2011,
    section 3). Digests are held as ints, not strings, to keep the map
    small. Two ids share a label only when two digests collide, and the
    vector reads labels, not ids, so it does not depend on which graphs
    shared the map.

    Each id belongs to one round: a raw label to round 0, and a key to the
    round after that of the node's own id in it. An id's structural bucket,
    that of `wl|<round>|<label>`, therefore depends only on the id and on
    the bands' structural dims and hash seed. It is hashed once per id and
    kept in a 4-byte slot until other dims or another seed are asked for.
    """

    def __init__(self) -> None:
        # raw label (str) or packed signature key (bytes) -> id
        self._ids: dict[str | bytes, int] = {}
        # id -> 8-byte blake2b digest of its signature, read big-endian;
        # 0 for a raw label
        self._digests = array("Q")
        self._raw: dict[int, str] = {}
        # id -> its structural bucket, -1 until hashed
        self._buckets = array("i")
        # (structural dims, hash seed) that `_buckets` was hashed for
        self._bucket_bands: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        self._ids.clear()
        del self._digests[:]
        self._raw.clear()
        del self._buckets[:]

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
            self._buckets.append(-1)
        return i

    def label(self, i: int) -> str:
        """The label string of id `i`: a raw label, or its signature's
        digest as 16 hex digits."""
        raw = self._raw.get(i)
        return raw if raw is not None else f"{self._digests[i]:016x}"

    def structural_buckets(self, per_round: list[np.ndarray], bands: BandConfig) -> np.ndarray:
        """The structural bucket under `bands` of every id in `per_round`,
        which holds the ids of round r at index r, hashing only ids not
        hashed before under the same dims and seed."""
        dims = bands.structural_dims
        if self._bucket_bands != (dims, bands.hash_seed):
            self._bucket_bands = (dims, bands.hash_seed)
            self._buckets = array("i", [-1]) * len(self._buckets)
        keyed = _keyed(bands.hash_seed)
        for r, ids in enumerate(per_round):
            missing = ids[np.frombuffer(self._buckets, dtype=np.intc)[ids] < 0]
            for i in dict.fromkeys(missing.tolist()):
                self._buckets[i] = _bucket(f"wl|{r}|{self.label(i)}", dims, keyed)
        return np.frombuffer(self._buckets, dtype=np.intc)[np.concatenate(per_round)]

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


def _wl_rounds(graph: CodeGraph, rounds: int, wl: WLLabels) -> list[np.ndarray]:
    """The label ids, interned in `wl`, of every node in each of the rounds
    0 to `rounds` of relabelling.

    Round 0 uses the raw node-kind labels; round r+1 labels hash (own label,
    sorted neighbor labels per edge kind and direction). Identifier names
    never enter, so the result is invariant under renaming.
    """
    n = len(graph)
    nodes = np.arange(n, dtype=np.int64)
    src = np.array(graph.src, dtype=np.int64)
    dst = np.array(graph.dst, dtype=np.int64)
    kind_slot = 2 * np.array(graph.kinds, dtype=np.int64)
    # One key entry per node for itself and one per edge end.
    owner = np.concatenate((nodes, src, dst))
    other = np.concatenate((nodes, dst, src))
    slot = np.concatenate((np.full(n, _OWN_SLOT, dtype=np.int64), kind_slot, kind_slot + 1))
    # Byte offsets of each node's key once the int64 entries are sorted by owner.
    bounds = [0, *(8 * np.cumsum(np.bincount(owner, minlength=n))).tolist()]

    raw_ids = {label: wl.id(label) for label in dict.fromkeys(graph.labels)}
    labels = np.fromiter(map(raw_ids.__getitem__, graph.labels), dtype=np.int64, count=n)
    per_round = [labels]
    for _ in range(rounds):
        codes = labels[other] << 4 | slot
        keys = codes[np.lexsort((codes, owner))].tobytes()
        labels = np.array([wl.id(keys[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=np.int64)
        per_round.append(labels)
    return per_round


def graph_to_vector(
    graph: CodeGraph, bands: BandConfig | None = None, wl: WLLabels | None = None
) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector.

    `wl` carries interned WL labels and their structural buckets from graph
    to graph; pass one `WLLabels` to every call of a run to hash each
    distinct signature and bucket once. The vector is the same with or
    without it.
    """
    bands = bands or BandConfig()
    if wl is None:
        wl = WLLabels()
    elif len(wl) > _MAX_WL_ENTRIES:
        wl.clear()
    per_round = _wl_rounds(graph, bands.wl_iterations, wl)
    structural = np.bincount(wl.structural_buckets(per_round, bands), minlength=bands.structural_dims)

    keyed = _keyed(bands.hash_seed)
    identifier_buckets: list[int] = []
    literal_buckets: list[int] = []
    for label, name in zip(graph.labels, graph.names):
        if name is None:
            continue
        if label in _LITERAL_LABELS:
            literal_buckets.append(_bucket(f"lit|{label}|{name}", bands.literal_dims, keyed))
        else:
            identifier_buckets.append(_bucket(f"id|{name}", bands.identifier_dims, keyed))
    identifiers = np.bincount(np.array(identifier_buckets, dtype=np.intp), minlength=bands.identifier_dims)
    literals = np.bincount(np.array(literal_buckets, dtype=np.intp), minlength=bands.literal_dims)

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
