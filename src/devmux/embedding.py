"""Deterministic 768-dimensional structural embeddings of code graphs.

The vector is split into three bands: Weisfeiler-Lehman subtree features of
the node-kind structure (512 dims), hashed identifier names (192 dims,
down-weighted), and hashed literals (64 dims). Feature counts accumulate as
integers and the final vector is L2-normalized, so embeddings are
bit-reproducible across runs and platforms. An empty graph embeds to the
zero vector.

Every feature is a uint64 digest that lands in bucket digest mod dims of its
band, as in feature hashing (Weinberger et al., ICML 2009). A node gives a
structural feature per round, its label, and a named node one more:
`id|<name>`, or `lit|<label>|<name>` for a literal, as the node's name kind
in `CodeGraph.name_kinds` says. These strings and the kind labels, which are
the round-0 labels, are digested by `FeatureDigests`.
WL relabelling is label compression (Shervashidze et al., JMLR 2011, section
3) by a multiset hash (Clarke et al., ASIACRYPT 2003): a node's next label is
`_mix` of the sum mod 2**64 of `_mix(label[far] + _SLOT_KEYS[slot])` over its
entries, one for itself (far end the node, slot `_OWN_SLOT`) and one for the
far end of each of its edges. It stands for the node's label and its
neighbour multiset per slot, whatever the order of the nodes and edges.

`graphs_to_vectors` embeds a whole run in one call: it reads its graphs in
groups of about `_GROUP_NODES` nodes and keeps one `FeatureDigests` for the
run, so each distinct string feature is hashed once per run. Relabelling is
local, so each group gets one WL pass over its disjoint union, each round a
few numpy calls over all the group's entries, and the counts are split per
graph at the end; `graph_to_vector` is a run of one graph. A group's child
and next-sibling edges are made from its graphs' child lists in a few numpy
calls, beside their explicit edges; since relabelling sums over a multiset,
the order they come in moves no label. The vectors are the same whatever
the grouping and whatever the map held before.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

from .codegraph import EDGE_KINDS, LITERAL_LABELS, CodeGraph, EdgeKind
from .configfile import BandConfig

# The prefix a named node's name is digested after, by its name kind: `id|`
# for an identifier (band 1), then `lit|<label>|` for each literal label
# (band 2).
_NAME_PREFIXES = ("id|", *(f"lit|{label}|" for label in LITERAL_LABELS))
_CHILD, _NEXT_SIBLING = EDGE_KINDS.index(EdgeKind.CHILD), EDGE_KINDS.index(EdgeKind.NEXT_SIBLING)
# Slot of a node's own entry; an edge of kind k has slot 2k at its source end
# and 2k + 1 at its destination end.
_OWN_SLOT = 2 * len(EDGE_KINDS)
# About how many graph nodes are embedded in one group (about 8 files of the
# benchmark tree): larger groups were no faster and raised the allocation peak.
_GROUP_NODES = 1000
# A run starts a fresh `FeatureDigests` before the next group once its map
# holds more strings than this; the 150-file benchmark tree holds 6,059.
_MAX_WL_ENTRIES = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser (Steele et al., OOPSLA 2014) of each of the
    uint64 `z`: a bijection of the 64-bit words."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# The key added to a far end's label per slot: splitmix64's first outputs
# from seed 0, made odd.
_SLOT_KEYS = _mix(np.arange(1, _OWN_SLOT + 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)


class FeatureDigests:
    """The digests of the string features of one run: the 8-byte blake2b of
    a feature's UTF-8 keyed with `hash_seed` as 8 little-endian bytes, read
    big-endian. A feature is a kind label, or a name after one of
    `_NAME_PREFIXES`, which keep it apart from a kind label. Each prefix has
    a keyed state that has read it, and its own map from name to digest, so
    no feature string is built."""

    def __init__(self, hash_seed: int) -> None:
        keyed = hashlib.blake2b(digest_size=8, key=hash_seed.to_bytes(8, "little"))
        self._states = {}
        for prefix in ("", *_NAME_PREFIXES):
            self._states[prefix] = state = keyed.copy()
            state.update(prefix.encode("utf-8"))
        self._digests: dict[str, dict[str, bytes]] = {prefix: {} for prefix in self._states}

    def __len__(self) -> int:
        return sum(map(len, self._digests.values()))

    def digests(self, strings: Sequence[str], prefix: str = "") -> np.ndarray:
        """The uint64 digest of the feature `prefix` + s for each s of
        `strings`, hashing those not seen before."""
        known, state = self._digests[prefix], self._states[prefix]
        for string in set(strings).difference(known):
            digest = state.copy()
            digest.update(string.encode("utf-8"))
            known[string] = digest.digest()
        return np.frombuffer(b"".join(map(known.__getitem__, strings)), dtype=">u8").astype(np.uint64)


def _wl_rounds(
    labels: np.ndarray, src: np.ndarray, dst: np.ndarray, kinds: np.ndarray, rounds: int
) -> list[np.ndarray]:
    """The uint64 labels of every node in each of the rounds 0 to `rounds`
    of relabelling a graph given as columns: its nodes' round-0 `labels`
    and its edges' int64 `src`, `dst` and `kinds`. Identifier names never
    enter, so the result is invariant under renaming. A round adds each
    entry's term into its owner's sum with one `np.add.at`: a sum mod 2**64
    is the same in any order, so the entries need no sort.
    """
    n = len(labels)
    nodes = np.arange(n, dtype=np.int64)
    owner = np.concatenate((nodes, src, dst))
    far = np.concatenate((nodes, dst, src))
    slot_keys = _SLOT_KEYS[np.concatenate((np.full(n, _OWN_SLOT, dtype=np.int64), 2 * kinds, 2 * kinds + 1))]
    per_round = [labels]
    for _ in range(rounds):
        sums = np.zeros(n, dtype=np.uint64)
        np.add.at(sums, owner, _mix(labels[far] + slot_keys))
        labels = _mix(sums)
        per_round.append(labels)
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


def _joined(columns: Iterable[list[int]]) -> np.ndarray:
    """`columns` one after another, as one int64 array."""
    return np.fromiter(chain.from_iterable(columns), dtype=np.int64)


def _group_edges(group: list[CodeGraph], offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 `src`, `dst` and `kinds` of every edge of `group`'s graphs,
    each graph's shifted by its entry of `offsets`: the child edges of all
    child lists, then the next-sibling edges, then the explicit edges."""
    lists = list(chain.from_iterable(g.child_lists for g in group))
    lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    list_shifts = np.repeat(offsets, [len(g.child_lists) for g in group])
    parents = np.repeat(_joined(g.parents for g in group) + list_shifts, lengths)
    children = _joined(lists) + np.repeat(list_shifts, lengths)
    # A child and the next one are siblings where they have one parent: the
    # parser gives a parent one child list.
    siblings = parents[1:] == parents[:-1]
    explicit_shifts = np.repeat(offsets, [len(g.explicit_src) for g in group])
    return (
        np.concatenate((parents, children[:-1][siblings], _joined(g.explicit_src for g in group) + explicit_shifts)),
        np.concatenate((children, children[1:][siblings], _joined(g.explicit_dst for g in group) + explicit_shifts)),
        np.concatenate((np.full(len(children), _CHILD), np.full(np.count_nonzero(siblings), _NEXT_SIBLING),
                        _joined(g.explicit_kinds for g in group))),
    )


def _group_vectors(group: list[CodeGraph], bands: BandConfig, digests: FeatureDigests) -> np.ndarray:
    """The rows of `graphs_to_vectors` for `group`, from one WL pass over
    its disjoint union: its nodes in order, with each graph's edges shifted
    past the nodes of the graphs before it."""
    m = len(group)
    sizes = [len(g) for g in group]
    labels = list(chain.from_iterable(g.labels for g in group))
    names = list(chain.from_iterable(g.names for g in group))
    per_round = _wl_rounds(digests.digests(labels), *_group_edges(group, np.cumsum([0, *sizes[:-1]])),
                           bands.wl_iterations)
    # The named nodes of each of `_NAME_PREFIXES`, whose index is their name
    # kind: identifiers, then each literal label's.
    name_kinds = _joined(g.name_kinds for g in group)
    by_prefix = [np.flatnonzero(name_kinds == kind) for kind in range(len(_NAME_PREFIXES))]

    # Band 0 is structural, 1 identifiers and 2 literals; a feature's column
    # is its band's offset plus its bucket in the band.
    graph_of = np.repeat(np.arange(m), sizes)
    band = np.repeat([0, 1, *[2] * len(LITERAL_LABELS)], [len(per_round) * len(graph_of), *map(len, by_prefix)])
    dims = (bands.structural_dims, bands.identifier_dims, bands.literal_dims)
    name_values = (digests.digests(list(map(names.__getitem__, nodes.tolist())), prefix)
                   for nodes, prefix in zip(by_prefix, _NAME_PREFIXES))
    values = np.concatenate((*per_round, *name_values))
    buckets = (values % np.array(dims, dtype=np.uint64)[band]).astype(np.intp)
    columns = np.array([0, dims[0], dims[0] + dims[1]])[band] + buckets
    rows = np.concatenate((np.tile(graph_of, len(per_round)), graph_of[np.concatenate(by_prefix)]))
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

    The graphs are embedded in groups (see `_groups`) with one
    `FeatureDigests` for the run, replaced by a fresh one before a group once
    it holds more than `_MAX_WL_ENTRIES` entries. The rows do not depend on
    either.
    """
    bands = bands or BandConfig()
    digests = FeatureDigests(bands.hash_seed)
    rows = [np.zeros((0, bands.structural_dims + bands.identifier_dims + bands.literal_dims))]
    for group in _groups(graphs):
        if len(digests) > _MAX_WL_ENTRIES:
            digests = FeatureDigests(bands.hash_seed)
        rows.append(_group_vectors(group, bands, digests))
    return np.concatenate(rows)


def graph_to_vector(graph: CodeGraph, bands: BandConfig | None = None) -> np.ndarray:
    """Embed a code graph as a unit-norm 768-dim float64 vector (zero for an
    empty graph): `graphs_to_vectors` of a run of one."""
    bands = bands or BandConfig()
    return _group_vectors([graph], bands, FeatureDigests(bands.hash_seed))[0]


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
