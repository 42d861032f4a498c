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
and hash seed stay the same.

`graphs_to_vectors` embeds a group of graphs at once. Relabelling is local,
so it runs one WL pass over the group's disjoint union, builds the group's
new signatures of a round in bulk, and splits the counts per graph at the
end; `graph_to_vector` is a group of one. `devmux index` embeds its files in
groups of about 1,000 nodes and passes one `WLLabels` to every group of a
run, so each distinct WL signature and bucket is hashed once per run; a call
without one gets a fresh one. The vectors are the same whatever the grouping
and whether labels are shared.
"""

from __future__ import annotations

import functools
import hashlib
import operator
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
# A `WLLabels` holding more entries (about 160 bytes each) than this is
# cleared before the next group; a 150-file tree interns about 7,200.
_MAX_WL_ENTRIES = 1 << 16

# A signature lists its entries in slot order, own entry first: position p
# is the own slot at p = 0 and slot p - 1 after it. _BOUNDARIES[p] is the
# text between the entries of position p and those of p + 1, and
# _SEPARATORS[9 * a + b] the text after an entry at position a when the next
# entry is at b: a comma within one slot, the boundaries in between, or,
# when b = 0 opens the next signature, the rest of this one.
_BOUNDARIES = [text for kind in EDGE_KINDS for text in (f"|{kind.value}>", "<")] + [""]
_SEPARATORS = tuple(
    "".join(_BOUNDARIES[a:]) if b == 0 else "," if a == b else "".join(_BOUNDARIES[a:b])
    for a in range(_OWN_SLOT + 1)
    for b in range(_OWN_SLOT + 1)
)
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

    def id(self, label: str) -> int:
        """The id of a raw label, interned on first sight."""
        i = self._ids.get(label)
        if i is None:
            i = self._ids[label] = len(self._digests)
            self._raw[i] = label
            self._digests.append(0)
            self._buckets.append(-1)
        return i

    def key_ids(self, keys: bytes, bounds: list[int], raw: bool) -> np.ndarray:
        """The id of every packed key `keys[bounds[i]:bounds[i + 1]]`,
        interning the keys not seen before. `raw` says that the keys' codes
        hold raw-label ids (round 0), not signature digests."""
        per_node = list(map(keys.__getitem__, map(slice, bounds, bounds[1:])))
        new = list(dict.fromkeys(filterfalse(self._ids.__contains__, per_node)))
        if new:
            start = len(self._digests)
            self._digests.frombytes(self._signature_digests(new, raw).tobytes())
            self._buckets.extend(array("i", [-1]) * len(new))
            self._ids.update(zip(new, range(start, start + len(new))))
        return np.fromiter(map(self._ids.__getitem__, per_node), dtype=np.int64, count=len(per_node))

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

    def _signature_digests(self, keys: list[bytes], raw: bool) -> np.ndarray:
        """The native uint64 digest of the signature of each of `keys`,
        none of them interned yet.

        Every entry of every key is sorted at once by (key, position, label
        order), the text between two entries comes from `_SEPARATORS`, and
        each signature is one join of its slice of the interleaved list.
        Label order is the string order of raw labels, and after round 0
        the digest itself, since fixed-width hex sorts like its integer.
        """
        codes = np.frombuffer(b"".join(keys), dtype=np.int64)
        sizes = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        position = ((codes & 15) + 1) % (_OWN_SLOT + 1)
        neighbour = codes >> 4
        distinct = list(dict.fromkeys(neighbour.tolist()))
        labels = dict(zip(distinct, map(self.label, distinct)))
        if raw:
            rank = dict(zip(sorted(distinct, key=labels.__getitem__), range(len(distinct))))
            order = np.fromiter(map(rank.__getitem__, neighbour.tolist()), dtype=np.int64, count=len(codes))
        else:
            order = np.frombuffer(self._digests, dtype=np.uint64)[neighbour]
        entries = np.lexsort((order, position, np.repeat(np.arange(len(keys)), sizes >> 3)))
        position = position[entries]
        separators = (_OWN_SLOT + 1) * position
        separators[:-1] += position[1:]
        pieces: list[str] = [""] * (2 * len(codes))
        pieces[0::2] = map(labels.__getitem__, neighbour[entries].tolist())
        pieces[1::2] = map(_SEPARATORS.__getitem__, separators.tolist())
        # Each 8-byte entry of a key is two pieces.
        ends = np.cumsum(sizes) >> 2
        signatures = map("".join, map(pieces.__getitem__, map(slice, (ends - (sizes >> 2)).tolist(), ends.tolist())))
        digests = b"".join(map(operator.methodcaller("digest"), map(_digest8, map(str.encode, signatures))))
        return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


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
    for r in range(rounds):
        codes = labels[other] << 4 | slot
        keys = codes[np.lexsort((codes, owner))].tobytes()
        labels = wl.key_ids(keys, bounds, raw=r == 0)
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
    distinct signature and bucket once. It is cleared before a group once
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
    for row in vectors:
        norm = np.linalg.norm(row)
        if norm != 0.0:
            row /= norm
    return vectors


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
