"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.

WL relabelling is label compression (Shervashidze et al., JMLR 2011,
section 3): a node's next label is the digest of a packed binary key of its
own label and its sorted neighbour labels, and a `WLLabels` interns each key
as an int and hashes it only the first time it meets it. Each id belongs to
one round, so it also keeps each id's structural bucket, hashed the first
time a vector needs it and kept while the bands' structural dims and hash
seed stay the same.

`graphs_to_vectors` embeds a group of graphs at once. Relabelling is local,
so it runs one WL pass over the group's disjoint union, packing and sorting
the keys of all its nodes in a round at once, and splits the counts per
graph at the end; `graph_to_vector` is a group of one. `devmux index` embeds
its files in groups of about 1,000 nodes and passes one `WLLabels` to every
group of a run, so each distinct WL key and bucket is hashed once per run; a
call without one gets a fresh one. The vectors are the same whatever the
grouping and whether labels are shared.
"""

from __future__ import annotations

import functools
import hashlib
from array import array
from collections.abc import Sequence
from itertools import chain, filterfalse

import numpy as np

from .codegraph import EDGE_KINDS, CodeGraph
from .configfile import BandConfig
_LITERAL_LABELS = ("string-literal", "number-literal")
# Slot of a node's own entry in its WL key; an edge of kind k has slot 2k at
# its source end and 2k + 1 at its destination end.
_OWN_SLOT = 2 * len(EDGE_KINDS)
# A `WLLabels` holding more entries (about 195 bytes each, key bytes
# included) than this is cleared before the next group; a 150-file tree
# interns about 7,300.
_MAX_WL_ENTRIES = 1 << 16
_digest8 = functools.partial(hashlib.blake2b, digest_size=8)


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

    An id stands for a label, an 8-byte blake2b digest; `label(i)` is its 16
    hex digits. A round-0 label is the digest of the node's kind label as
    UTF-8. A node's next label is the digest of its key: one entry for the
    node itself (slot `_OWN_SLOT`) and one for the far end of each of its
    edges (slot 2k for an outgoing and 2k + 1 for an incoming edge of kind
    `EDGE_KINDS[k]`), each entry the slot and that end's label digest as
    two little-endian uint64, sorted by slot, then digest. The key encodes
    the node's label and its neighbour multiset per slot injectively, so
    its digest is computed only the first time the key is seen. Two ids
    share a label only when two digests collide, and the vector reads
    labels, not ids, so it does not depend on which graphs shared the map.

    Each id belongs to one round: a kind label to round 0, and a key to the
    round after that of the digests in it (barring a digest collision across
    rounds). An id's structural bucket, that of `wl|<round>|<label>`,
    therefore depends only on the id and on the bands' structural dims and
    hash seed. It is hashed once per id and kept in a 4-byte slot until
    other dims or another seed are asked for.
    """

    def __init__(self) -> None:
        # kind label (str) or packed key (bytes) -> id
        self._ids: dict[str | bytes, int] = {}
        # id -> the 8-byte blake2b digest of its kind label or key, read big-endian
        self._digests = array("Q")
        # id -> its structural bucket, -1 until hashed
        self._buckets = array("i")
        # (structural dims, hash seed) that `_buckets` was hashed for
        self._bucket_bands: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        self._ids.clear()
        del self._digests[:]
        del self._buckets[:]

    def ids(self, keys: Sequence[str | bytes]) -> np.ndarray:
        """The id of each of `keys`, kind labels or packed keys, interning
        and hashing the keys not seen before."""
        new = list(dict.fromkeys(filterfalse(self._ids.__contains__, keys)))
        if new:
            start = len(self._digests)
            encoded = (key.encode("utf-8") if isinstance(key, str) else key for key in new)
            self._digests.extend(int.from_bytes(_digest8(key).digest(), "big") for key in encoded)
            self._buckets.extend(array("i", [-1]) * len(new))
            self._ids.update(zip(new, range(start, start + len(new))))
        return np.fromiter(map(self._ids.__getitem__, keys), dtype=np.int64, count=len(keys))

    def digests(self, ids: np.ndarray) -> np.ndarray:
        """The uint64 digest of each of `ids`."""
        return np.frombuffer(self._digests, dtype=np.uint64)[ids]

    def label(self, i: int) -> str:
        """The label of id `i`: its digest as 16 hex digits."""
        return f"{self._digests[i]:016x}"

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


def _wl_rounds(graph: CodeGraph, rounds: int, wl: WLLabels) -> list[np.ndarray]:
    """The label ids, interned in `wl`, of every node in each of the rounds
    0 to `rounds` of relabelling, keyed as `WLLabels` says. Identifier
    names never enter, so the result is invariant under renaming.
    """
    n = len(graph)
    nodes = np.arange(n, dtype=np.int64)
    src = np.array(graph.src, dtype=np.int64)
    dst = np.array(graph.dst, dtype=np.int64)
    kind_slot = 2 * np.array(graph.kinds, dtype=np.int64)
    # One key entry per node for itself and one per edge end: (slot, digest).
    owner = np.concatenate((nodes, src, dst))
    other = np.concatenate((nodes, dst, src))
    entries = np.empty((len(owner), 2), dtype="<u8")
    entries[:, 0] = np.concatenate((np.full(n, _OWN_SLOT, dtype=np.int64), kind_slot, kind_slot + 1))
    # Byte offsets of each node's key once the 16-byte entries are sorted by owner.
    bounds = [0, *(16 * np.cumsum(np.bincount(owner, minlength=n))).tolist()]

    labels = wl.ids(graph.labels)
    per_round = [labels]
    for _ in range(rounds):
        entries[:, 1] = wl.digests(labels[other])
        keys = entries[np.lexsort((entries[:, 1], entries[:, 0], owner))].tobytes()
        labels = wl.ids(list(map(keys.__getitem__, map(slice, bounds, bounds[1:]))))
        per_round.append(labels)
    return per_round


def _union(graphs: Sequence[CodeGraph]) -> CodeGraph:
    """The disjoint union of `graphs`: their nodes in order, with each
    graph's edges shifted past the nodes of the graphs before it."""
    if len(graphs) == 1:
        return graphs[0]
    shift = np.repeat(np.cumsum([0, *map(len, graphs)])[:-1], [len(g.src) for g in graphs])

    def column(name: str) -> list:
        return list(chain.from_iterable(getattr(g, name) for g in graphs))

    def shifted(name: str) -> list[int]:
        values = np.fromiter(chain.from_iterable(getattr(g, name) for g in graphs), np.int64, len(shift))
        return (values + shift).tolist()

    return CodeGraph(column("labels"), column("names"), shifted("src"), shifted("dst"), column("kinds"))


def _counts(rows: np.ndarray, buckets: np.ndarray, m: int, dims: int) -> np.ndarray:
    """The (m, dims) int64 counts of the pairs (rows[j], buckets[j])."""
    return np.bincount(rows * dims + buckets, minlength=m * dims).reshape(m, dims)


def graphs_to_vectors(
    graphs: Sequence[CodeGraph], bands: BandConfig | None = None, wl: WLLabels | None = None
) -> np.ndarray:
    """Embed code graphs as the rows of an (m, 768) float64 array: row i is
    the unit-norm vector of `graphs[i]`, or zero for an empty graph.

    `wl` carries interned WL labels and their structural buckets from group
    to group; pass one `WLLabels` to every call of a run to hash each
    distinct key and bucket once. It is cleared before a group once
    it holds more than `_MAX_WL_ENTRIES` entries. The rows are the same with
    or without it, and whatever the grouping.
    """
    bands = bands or BandConfig()
    if wl is None:
        wl = WLLabels()
    elif len(wl) > _MAX_WL_ENTRIES:
        wl.clear()
    m = len(graphs)
    union = _union(graphs)
    graph_of = np.repeat(np.arange(m), [len(g) for g in graphs])
    per_round = _wl_rounds(union, bands.wl_iterations, wl)
    structural = _counts(
        np.tile(graph_of, len(per_round)), wl.structural_buckets(per_round, bands), m, bands.structural_dims
    )

    keyed = _keyed(bands.hash_seed)
    identifier_nodes: list[int] = []
    identifier_buckets: list[int] = []
    literal_nodes: list[int] = []
    literal_buckets: list[int] = []
    for node, (label, name) in enumerate(zip(union.labels, union.names)):
        if name is None:
            continue
        if label in _LITERAL_LABELS:
            literal_nodes.append(node)
            literal_buckets.append(_bucket(f"lit|{label}|{name}", bands.literal_dims, keyed))
        else:
            identifier_nodes.append(node)
            identifier_buckets.append(_bucket(f"id|{name}", bands.identifier_dims, keyed))
    identifiers = _counts(
        graph_of[identifier_nodes], np.array(identifier_buckets, dtype=np.intp), m, bands.identifier_dims
    )
    literals = _counts(graph_of[literal_nodes], np.array(literal_buckets, dtype=np.intp), m, bands.literal_dims)

    vectors = np.concatenate(
        [
            structural.astype(np.float64),
            bands.identifier_weight * identifiers.astype(np.float64),
            literals.astype(np.float64),
        ],
        axis=1,
    )
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))[:, np.newaxis]
    return np.divide(vectors, norms, out=vectors, where=norms != 0)


def graph_to_vector(
    graph: CodeGraph, bands: BandConfig | None = None, wl: WLLabels | None = None
) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector (zero for an
    empty graph): `graphs_to_vectors` of the group of one."""
    # A copy owns its data, so a caller that keeps many vectors does not
    # also keep a (1, 768) base array behind each.
    return graphs_to_vectors([graph], bands, wl)[0].copy()


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
