"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.

Every feature is hashed one way, as in feature hashing (Weinberger et al.,
ICML 2009): its 8-byte blake2b digest keyed with the bands' `hash_seed`,
read big-endian, lands in bucket digest mod dims of its band. A node gives
a structural feature per round (its kind label in round 0, its packed WL
key after that), and a named node one more: `id|<name>`, or
`lit|<label>|<name>` for a literal. WL relabelling is label compression
(Shervashidze et al., JMLR 2011, section 3): a node's next label is the
digest of a packed binary key of its own label and its sorted neighbour
labels. A `WLLabels` interns every feature as an int and hashes it only the
first time it meets it.

`graphs_to_vectors` embeds a group of graphs at once. Relabelling is local,
so it runs one WL pass over the group's disjoint union, packing and sorting
the keys of all its nodes in a round at once, and splits the counts per
graph at the end; `graph_to_vector` is a group of one. `devmux index` embeds
its files in groups of about 1,000 nodes and passes one `WLLabels` to every
group of a run, so each distinct feature is hashed once per run; a call
without one gets a fresh one. The vectors are the same whatever the
grouping and whether labels are shared.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import chain, filterfalse

import numpy as np

from .codegraph import EDGE_KINDS, CodeGraph
from .configfile import BandConfig
_LITERAL_LABELS = ("string-literal", "number-literal")
# Slot of a node's own entry in its WL key; an edge of kind k has slot 2k at
# its source end and 2k + 1 at its destination end.
_OWN_SLOT = 2 * len(EDGE_KINDS)
# A `WLLabels` holding more entries (about 175 bytes each, key bytes
# included) than this is cleared before the next group; a 150-file tree
# interns about 13,400.
_MAX_WL_ENTRIES = 1 << 16


class WLLabels:
    """The features of one run interned as ints, each with its keyed digest.

    An id stands for a feature: a kind label, a packed WL key, `id|<name>`
    or `lit|<label>|<name>`. Its digest is the 8-byte blake2b of the
    feature's bytes (a string's UTF-8) keyed with `hash_seed` as 8
    little-endian bytes, read big-endian. A round-0 label is the digest of
    the node's kind label. A node's next label is the digest of its key: one
    entry for the node itself (slot `_OWN_SLOT`) and one for the far end of
    each of its edges (slot 2k for an outgoing and 2k + 1 for an incoming
    edge of kind `EDGE_KINDS[k]`), each entry the slot and that end's label
    digest as two little-endian uint64, sorted by slot, then digest. The key
    encodes the node's label and its neighbour multiset per slot
    injectively, so its digest is computed only the first time the key is
    seen. Two ids share a digest only when two digests collide, and the
    vector reads digests, not ids, so it does not depend on which graphs
    shared the map. The `id|` and `lit|` prefixes keep a name apart from a
    kind label.

    Every digest depends on `hash_seed`, so `graphs_to_vectors` clears the
    map before a group under another seed.
    """

    def __init__(self) -> None:
        # feature (str) or packed key (bytes) -> id
        self._ids: dict[str | bytes, int] = {}
        # id -> the keyed digest of its feature, 8 bytes each
        self._digests = bytearray()
        self.hash_seed: int = BandConfig.hash_seed

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        self._ids.clear()
        del self._digests[:]

    def ids(self, keys: Sequence[str | bytes]) -> np.ndarray:
        """The id of each of `keys`, features or packed keys, interning and
        hashing the keys not seen before."""
        new = list(dict.fromkeys(filterfalse(self._ids.__contains__, keys)))
        if new:
            keyed = hashlib.blake2b(digest_size=8, key=self.hash_seed.to_bytes(8, "little"))
            start = len(self._ids)
            for key in new:
                digest = keyed.copy()
                digest.update(key.encode("utf-8") if isinstance(key, str) else key)
                self._digests += digest.digest()
            self._ids.update(zip(new, range(start, start + len(new))))
        return np.fromiter(map(self._ids.__getitem__, keys), dtype=np.int64, count=len(keys))

    def digests(self, ids: np.ndarray) -> np.ndarray:
        """The uint64 digest of each of `ids`."""
        return np.frombuffer(self._digests, dtype=">u8")[ids]


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


def graphs_to_vectors(
    graphs: Sequence[CodeGraph], bands: BandConfig | None = None, wl: WLLabels | None = None
) -> np.ndarray:
    """Embed code graphs as the rows of an (m, 768) float64 array: row i is
    the unit-norm vector of `graphs[i]`, or zero for an empty graph.

    `wl` carries interned features and their digests from group to group;
    pass one `WLLabels` to every call of a run to hash each distinct
    feature once. It is cleared before a group under another hash seed, or
    once it holds more than `_MAX_WL_ENTRIES` entries. The rows are the same
    with or without it, and whatever the grouping.
    """
    bands = bands or BandConfig()
    if wl is None:
        wl = WLLabels()
    if len(wl) > _MAX_WL_ENTRIES or wl.hash_seed != bands.hash_seed:
        wl.clear()
        wl.hash_seed = bands.hash_seed
    m = len(graphs)
    union = _union(graphs)
    graph_of = np.repeat(np.arange(m), [len(g) for g in graphs])
    per_round = _wl_rounds(union, bands.wl_iterations, wl)
    names = np.array(union.names, dtype=object)
    named = np.flatnonzero(np.not_equal(names, None))
    names, labels = names[named], np.array(union.labels, dtype=object)[named]
    literal = np.isin(labels, _LITERAL_LABELS)
    features = np.where(literal, "lit|" + labels + "|" + names, "id|" + names)

    # Band 0 is structural, 1 identifiers and 2 literals; a feature's column
    # is its band's offset plus its bucket in the band.
    band = np.concatenate((np.zeros(len(per_round) * len(union), dtype=np.intp), 1 + literal))
    dims = (bands.structural_dims, bands.identifier_dims, bands.literal_dims)
    digests = wl.digests(np.concatenate((*per_round, wl.ids(features.tolist()))))
    buckets = (digests % np.array(dims, dtype=np.uint64)[band]).astype(np.intp)
    columns = np.array([0, dims[0], dims[0] + dims[1]])[band] + buckets
    rows = np.concatenate((np.tile(graph_of, len(per_round)), graph_of[named]))
    width = sum(dims)
    counts = np.bincount(rows * width + columns, minlength=m * width).reshape(m, width)

    # Structural and literal counts times 1/s and identifier counts times
    # w/s, with s = max(1, w): the unit vector is that of the counts weighted
    # by w, and the squares in the norm stay finite for any finite w.
    scale = max(1.0, bands.identifier_weight)
    vectors = counts * np.repeat([1.0 / scale, bands.identifier_weight / scale, 1.0 / scale], dims)
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
