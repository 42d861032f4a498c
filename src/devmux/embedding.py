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

`graphs_to_vectors` embeds a whole run in one call: it reads its graphs in
groups of about `_GROUP_NODES` nodes and keeps one `WLLabels` for the run,
so each distinct feature is hashed once per run. Relabelling is local, so
each group gets one WL pass over its disjoint union, packing the keys of
all its nodes in a round at once, and the counts are split per graph at
the end; `graph_to_vector` is a run of one graph. The group's key entries
are ordered by owner and slot once, before the rounds, so a round sorts by
digest only the runs of entries that share an owner and a slot. The vectors
are the same whatever the grouping and whatever the map held before.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, filterfalse
from operator import attrgetter

import numpy as np

from .codegraph import EDGE_KINDS, CodeGraph
from .configfile import BandConfig
_LITERAL_LABELS = ("string-literal", "number-literal")
# Slot of a node's own entry in its WL key; an edge of kind k has slot 2k at
# its source end and 2k + 1 at its destination end.
_OWN_SLOT = 2 * len(EDGE_KINDS)
# About how many graph nodes are embedded in one group (about 8 files of the
# benchmark tree): larger groups were no faster and raised the allocation peak.
_GROUP_NODES = 1000
# A run starts a fresh `WLLabels` before the next group once its map holds
# more entries (about 175 bytes each, key bytes included) than this; a
# 150-file tree interns about 13,400.
_MAX_WL_ENTRIES = 1 << 16
_columns = attrgetter("labels", "names", "src", "dst", "kinds")


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
    """

    def __init__(self, hash_seed: int) -> None:
        # feature (str) or packed key (bytes) -> id
        self._ids: dict[str | bytes, int] = {}
        # id -> the keyed digest of its feature, 8 bytes each
        self._digests = bytearray()
        self._keyed = hashlib.blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self, keys: Sequence[str | bytes]) -> np.ndarray:
        """The id of each of `keys`, features or packed keys, interning and
        hashing the keys not seen before."""
        new = list(dict.fromkeys(filterfalse(self._ids.__contains__, keys)))
        if new:
            start = len(self._ids)
            for key in new:
                digest = self._keyed.copy()
                digest.update(key.encode("utf-8") if isinstance(key, str) else key)
                self._digests += digest.digest()
            self._ids.update(zip(new, range(start, start + len(new))))
        return np.fromiter(map(self._ids.__getitem__, keys), dtype=np.int64, count=len(keys))

    def digests(self, ids: np.ndarray) -> np.ndarray:
        """The uint64 digest of each of `ids`."""
        return np.frombuffer(self._digests, dtype=">u8")[ids]


def _wl_rounds(
    labels: list[str], src: np.ndarray, dst: np.ndarray, kinds: np.ndarray, rounds: int, wl: WLLabels
) -> list[np.ndarray]:
    """The label ids, interned in `wl`, of every node in each of the rounds
    0 to `rounds` of relabelling a graph given as columns: its nodes' kind
    `labels` and its edges' int64 `src`, `dst` and `kinds`, keyed as
    `WLLabels` says. Identifier names never enter, so the result is
    invariant under renaming.

    The key entries are ordered by owner and slot once. A round then sorts
    by digest only the runs of two or more entries that share an owner and
    a slot (about a fifth of a code graph's entries), in one sort over
    those entries alone, which gives each key the bytes of a full sort.
    """
    n = len(labels)
    nodes = np.arange(n, dtype=np.int64)
    kind_slot = 2 * kinds
    # One key entry per node for itself and one per edge end: (slot, digest).
    owner = np.concatenate((nodes, src, dst))
    slot = np.concatenate((np.full(n, _OWN_SLOT, dtype=np.int64), kind_slot, kind_slot + 1))
    order = np.lexsort((slot, owner))
    owner, slot, other = owner[order], slot[order], np.concatenate((nodes, dst, src))[order]
    entries = np.empty((len(owner), 2), dtype="<u8")
    entries[:, 0] = slot
    # The entries of the shared runs, and which run each is in.
    tied = (owner[1:] == owner[:-1]) & (slot[1:] == slot[:-1])
    shared = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
    run = np.cumsum(np.concatenate(([True], ~tied)))[shared]
    # Byte offsets of each node's key in the 16-byte entries.
    bounds = [0, *(16 * np.cumsum(np.bincount(owner, minlength=n))).tolist()]

    ids = wl.ids(labels)
    per_round = [ids]
    for _ in range(rounds):
        digests = wl.digests(ids[other])
        in_runs = digests[shared]
        digests[shared] = in_runs[np.lexsort((in_runs, run))]
        entries[:, 1] = digests
        keys = entries.tobytes()
        ids = wl.ids(list(map(keys.__getitem__, map(slice, bounds, bounds[1:]))))
        per_round.append(ids)
    return per_round


def _groups(graphs: Iterable[CodeGraph]) -> Iterator[list[CodeGraph]]:
    """`graphs` in order, in lists of at most `_GROUP_NODES` nodes or of one
    larger graph: a list closes when the next graph would take it past."""
    group: list[CodeGraph] = []
    nodes = 0
    for graph in graphs:
        if group and nodes + len(graph) > _GROUP_NODES:
            yield group
            group, nodes = [], 0
        group.append(graph)
        nodes += len(graph)
    if group:
        yield group


def _group_vectors(group: list[CodeGraph], bands: BandConfig, wl: WLLabels) -> np.ndarray:
    """The rows of `graphs_to_vectors` for `group`, from one WL pass over
    its disjoint union: its nodes in order, with each graph's edges shifted
    past the nodes of the graphs before it. A lone graph is its own union,
    read as it is."""
    m = len(group)
    sizes = [len(g) for g in group]
    if m == 1:
        labels, names, src, dst, kinds = _columns(group[0])
        shift = 0
    else:
        labels, names, src, dst, kinds = (list(chain.from_iterable(c)) for c in zip(*map(_columns, group)))
        shift = np.repeat(np.cumsum([0, *sizes[:-1]]), [len(g.src) for g in group])
    per_round = _wl_rounds(labels, np.array(src, dtype=np.int64) + shift, np.array(dst, dtype=np.int64) + shift,
                           np.array(kinds, dtype=np.int64), bands.wl_iterations, wl)
    names = np.array(names, dtype=object)
    named = np.flatnonzero(np.not_equal(names, None))
    names, labels = names[named], np.array(labels, dtype=object)[named]
    literal = np.isin(labels, _LITERAL_LABELS)
    features = np.where(literal, "lit|" + labels + "|" + names, "id|" + names)

    # Band 0 is structural, 1 identifiers and 2 literals; a feature's column
    # is its band's offset plus its bucket in the band.
    graph_of = np.repeat(np.arange(m), sizes)
    band = np.concatenate((np.zeros(len(per_round) * len(graph_of), dtype=np.intp), 1 + literal))
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


def graphs_to_vectors(graphs: Iterable[CodeGraph], bands: BandConfig | None = None) -> np.ndarray:
    """Embed code graphs as the rows of an (m, 768) float64 array: row i is
    the unit-norm vector of the i-th of `graphs` (any iterable, read once
    and at most one graph ahead of the group being embedded), or zero for
    an empty graph.

    The graphs are embedded in groups (see `_groups`) with one `WLLabels`
    for the run, replaced by a fresh one before a group once it holds more
    than `_MAX_WL_ENTRIES` entries. The rows do not depend on either.
    """
    bands = bands or BandConfig()
    wl = WLLabels(bands.hash_seed)
    rows = [np.zeros((0, bands.structural_dims + bands.identifier_dims + bands.literal_dims))]
    for group in _groups(graphs):
        if len(wl) > _MAX_WL_ENTRIES:
            wl = WLLabels(bands.hash_seed)
        rows.append(_group_vectors(group, bands, wl))
    return np.concatenate(rows)


def graph_to_vector(graph: CodeGraph, bands: BandConfig | None = None) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector (zero for an
    empty graph): `graphs_to_vectors` of a run of one."""
    bands = bands or BandConfig()
    return _group_vectors([graph], bands, WLLabels(bands.hash_seed))[0]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; the zero vector compares as 0 against anything. A
    nonzero vector whose norm is below `_COSINE_FLOOR` or overflows is first
    divided by its largest absolute entry, as `vindex` scales a query; any
    other keeps its bits."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", under="ignore"):
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    a, norm_a = _in_range(a, norm_a)
    b, norm_b = _in_range(b, norm_b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


# Two norms at or above this (and finite) have a normal, finite product.
_COSINE_FLOOR = 2.0**-500


def _in_range(vector: np.ndarray, norm: float) -> tuple[np.ndarray, float]:
    """`vector` and its norm `norm`, or, for a nonzero vector whose norm is
    outside [`_COSINE_FLOOR`, inf), the vector over its largest absolute
    entry and that one's norm."""
    if _COSINE_FLOOR <= norm < np.inf or not vector.any():
        return vector, norm
    vector = vector / np.abs(vector).max()
    return vector, np.linalg.norm(vector)
