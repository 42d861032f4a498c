import hashlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux import embedding
from devmux.codegraph import EDGE_KINDS, CodeGraph, EdgeKind, parse_to_graph
from devmux.configfile import VECTOR_DIM
from devmux.embedding import (
    BandConfig,
    WLLabels,
    _wl_rounds,
    cosine,
    graph_to_vector,
    graphs_to_vectors,
)

RENAME_A = """
class Account extends Base {
    int balance = 0;
    void deposit(int amount) {
        validate(amount);
        balance = amount;
    }
    void validate(int amount) { check(amount, "positive"); }
}
"""

# identical structure, every identifier renamed, literals untouched
RENAME_B = """
class Ledger extends Root {
    int total = 0;
    void add(int delta) {
        audit(delta);
        total = delta;
    }
    void audit(int delta) { probe(delta, "positive"); }
}
"""

RESTRUCTURED = """
class Account extends Base {
    int balance = 0;
    void deposit(int amount) { balance = amount; }
}
"""


def test_vector_is_768_dimensional():
    v = graph_to_vector(parse_to_graph("class A { }"))
    assert v.shape == (VECTOR_DIM,)
    assert v.dtype == np.float64


def test_empty_graph_embeds_to_zero():
    v = graph_to_vector(parse_to_graph(""))
    assert v.shape == (VECTOR_DIM,)
    assert not v.any()


def test_nonempty_graph_is_unit_norm():
    v = graph_to_vector(parse_to_graph(RENAME_A))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def test_bit_deterministic_across_runs():
    a = graph_to_vector(parse_to_graph(RENAME_A))
    b = graph_to_vector(parse_to_graph(RENAME_A))
    assert a.tobytes() == b.tobytes()


def test_identical_graphs_cosine_one():
    a = graph_to_vector(parse_to_graph(RENAME_A))
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)


def test_renaming_invariance_at_zero_identifier_weight():
    bands = BandConfig(identifier_weight=0.0)
    a = graph_to_vector(parse_to_graph(RENAME_A), bands)
    b = graph_to_vector(parse_to_graph(RENAME_B), bands)
    assert cosine(a, b) == pytest.approx(1.0, abs=1e-9)
    assert a.tobytes() == b.tobytes()


def test_renaming_beats_restructuring_at_default_weight():
    base = graph_to_vector(parse_to_graph(RENAME_A))
    renamed = graph_to_vector(parse_to_graph(RENAME_B))
    restructured = graph_to_vector(parse_to_graph(RESTRUCTURED))
    assert cosine(base, renamed) >= cosine(base, restructured)
    assert cosine(base, renamed) < 1.0  # identifiers still matter at default weight


def test_added_inherits_edge_changes_structural_band():
    plain = parse_to_graph("class A { void f() { } }")
    extended = CodeGraph(
        plain.labels + ["external-class"],
        plain.names + ["B"],
        plain.src + [0],
        plain.dst + [len(plain)],
        plain.kinds + [EDGE_KINDS.index(EdgeKind.INHERITS)],
    )
    bands = BandConfig(identifier_weight=0.0)
    assert cosine(graph_to_vector(plain, bands), graph_to_vector(extended, bands)) < 1.0 - 1e-9


def test_band_dims_must_sum_to_768():
    with pytest.raises(ValueError):
        BandConfig(structural_dims=512, identifier_dims=192, literal_dims=65)


def test_fingerprint_tracks_config():
    assert BandConfig().fingerprint() == BandConfig().fingerprint()
    assert BandConfig().fingerprint() != BandConfig(identifier_weight=0.25).fingerprint()


def test_cosine_zero_vector_convention():
    zero = np.zeros(VECTOR_DIM)
    v = graph_to_vector(parse_to_graph("class A { }"))
    assert cosine(v, zero) == 0.0
    assert cosine(zero, zero) == 0.0


def test_cosine_orthogonal_one_hots():
    a = np.zeros(VECTOR_DIM)
    b = np.zeros(VECTOR_DIM)
    a[0] = 1.0
    b[1] = 1.0
    assert cosine(a, b) == 0.0


@pytest.mark.parametrize("entry", [1e300, 1e-170], ids=["norm_overflows", "norm_underflows"])
def test_cosine_of_a_vector_whose_norm_overflows_or_underflows(entry):
    """Every entry 1e300 overflows the norm and every entry 1e-170 underflows
    it to 0; such a vector is compared as itself over its largest entry, so
    `cosine(a, a)` is that of the all-ones vector, with no warning (the test
    configuration makes a RuntimeWarning an error), and so is its cosine
    against an ordinary vector, bit for bit."""
    huge_or_tiny, ones = np.full(VECTOR_DIM, entry), np.ones(VECTOR_DIM)
    other = np.random.default_rng(7).standard_normal(VECTOR_DIM)
    assert cosine(huge_or_tiny, huge_or_tiny) == cosine(ones, ones) == pytest.approx(1.0, abs=1e-15)
    assert cosine(huge_or_tiny, other) == cosine(other, huge_or_tiny) == cosine(ones, other)
    assert cosine(np.full(VECTOR_DIM, 1e300), np.full(VECTOR_DIM, 1e-170)) == cosine(ones, ones)


def test_cosine_keeps_the_bits_of_vectors_with_norms_in_range():
    """Vectors whose norms are in range are not rescaled: the cosine is the
    plain quotient, so `query`'s fusion weights keep their bits."""
    rng = np.random.default_rng(8)
    for a, b in zip(rng.standard_normal((20, VECTOR_DIM)), rng.standard_normal((20, VECTOR_DIM)) * 1e-100):
        assert cosine(a, b) == float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


KIND_LABELS = ["class-decl", "method-decl", "block", "call-expr", "identifier", "string-literal"]
# Some names spell a kind label, which the `id|` prefix keeps apart.
NAMES = st.one_of(st.none(), st.text("abc", min_size=1, max_size=3), st.sampled_from(KIND_LABELS))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    ends = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n_edges, max_size=n_edges)
    return CodeGraph(
        draw(st.lists(st.sampled_from(KIND_LABELS), min_size=n, max_size=n)),
        draw(st.lists(NAMES, min_size=n, max_size=n)),
        draw(ends),
        draw(ends),
        draw(st.lists(st.integers(min_value=0, max_value=len(EDGE_KINDS) - 1), min_size=n_edges, max_size=n_edges)),
    )


@st.composite
def hub_graphs(draw):
    """A graph whose node 0 has 20-60 edges of one kind, in either
    direction, to nodes of one or two labels, self-loops and repeated edges
    among them: its key holds long runs of one slot with tied digests."""
    n = draw(st.integers(min_value=2, max_value=8))
    hub_label = draw(st.sampled_from(KIND_LABELS))
    far_labels = draw(st.lists(st.sampled_from(KIND_LABELS), min_size=1, max_size=2))
    labels = [hub_label, *draw(st.lists(st.sampled_from(far_labels), min_size=n - 1, max_size=n - 1))]
    n_edges = draw(st.integers(min_value=20, max_value=60))
    far = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n_edges, max_size=n_edges))
    outgoing = draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges))
    return CodeGraph(
        labels,
        draw(st.lists(NAMES, min_size=n, max_size=n)),
        [0 if out else end for out, end in zip(outgoing, far)],
        [end if out else 0 for out, end in zip(outgoing, far)],
        [draw(st.integers(min_value=0, max_value=len(EDGE_KINDS) - 1))] * n_edges,
    )


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_norm_invariant_on_random_graphs(graph):
    v = graph_to_vector(graph)
    assert v.shape == (VECTOR_DIM,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def keyed_digest(feature: str | bytes, hash_seed: int) -> int:
    """The 8-byte blake2b of `feature` (a string as UTF-8) keyed with
    `hash_seed` as 8 little-endian bytes, read big-endian."""
    data = feature.encode("utf-8") if isinstance(feature, str) else feature
    key = hash_seed.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key).digest(), "big")


def reference_wl_label_counts(graph: CodeGraph, rounds: int, hash_seed: int = BandConfig().hash_seed) -> Counter:
    """Counts of (round, label) pairs, hashing every node's key in every
    round: the relabelling `WLLabels` compresses. A round-0 label is the
    keyed digest of the kind label; a node's next one is the keyed digest
    of its sorted (slot, label) pairs, its own at slot 8 and one per edge
    end at slot 2k (source) or 2k + 1 (destination), each as two
    little-endian 8-byte ints."""
    own_slot = 2 * len(EDGE_KINDS)
    ends = [[] for _ in range(len(graph))]
    for edge in graph.edges:
        k = EDGE_KINDS.index(edge.kind)
        ends[edge.src].append((2 * k, edge.dst))
        ends[edge.dst].append((2 * k + 1, edge.src))

    labels = [keyed_digest(node.label, hash_seed) for node in graph.nodes]
    counts: Counter = Counter()
    for r in range(rounds + 1):
        for label in labels:
            counts[(r, label)] += 1
        if r == rounds:
            break
        new_labels = []
        for v, node_ends in enumerate(ends):
            pairs = sorted([(own_slot, labels[v])] + [(slot, labels[u]) for slot, u in node_ends])
            key = b"".join(slot.to_bytes(8, "little") + label.to_bytes(8, "little") for slot, label in pairs)
            new_labels.append(keyed_digest(key, hash_seed))
        labels = new_labels
    return counts


def counts_by_label(per_round: list[np.ndarray], wl: WLLabels) -> Counter:
    return Counter((r, label) for r, ids in enumerate(per_round) for label in wl.digests(ids).tolist())


SEEDS = st.sampled_from([0x5EEDC0DE, 0, 2**64 - 1])


def columns(graph: CodeGraph) -> tuple:
    """`graph` as the columns `_wl_rounds` takes."""
    return (graph.labels, *(np.array(c, dtype=np.int64) for c in (graph.src, graph.dst, graph.kinds)))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_graphs() | hub_graphs(), min_size=1, max_size=5), st.integers(min_value=0, max_value=4), SEEDS)
def test_wl_counts_match_per_node_reference(graphs, rounds, hash_seed):
    """One map across graphs, as a run keeps it, gives every graph the
    reference's label counts."""
    wl = WLLabels(hash_seed)
    for graph in graphs:
        per_round = _wl_rounds(*columns(graph), rounds, wl)
        assert counts_by_label(per_round, wl) == reference_wl_label_counts(graph, rounds, hash_seed)


def reference_graph_to_vector(graph: CodeGraph, bands: BandConfig) -> np.ndarray:
    """The vector from one keyed digest per feature of every node, with no
    interning: each (round, label) of `reference_wl_label_counts`, and
    `id|<name>` or `lit|<label>|<name>` per named node, each in bucket
    digest mod its band's dims. The structural and literal counts are
    scaled by 1/s and the identifier counts by w/s, s = max(1, w)."""
    seed = bands.hash_seed
    structural = np.zeros(bands.structural_dims, dtype=np.int64)
    identifiers = np.zeros(bands.identifier_dims, dtype=np.int64)
    literals = np.zeros(bands.literal_dims, dtype=np.int64)
    for (_, label), count in reference_wl_label_counts(graph, bands.wl_iterations, seed).items():
        structural[label % bands.structural_dims] += count
    for node in graph.nodes:
        if node.name is None:
            continue
        if node.label in ("string-literal", "number-literal"):
            literals[keyed_digest(f"lit|{node.label}|{node.name}", seed) % bands.literal_dims] += 1
        else:
            identifiers[keyed_digest(f"id|{node.name}", seed) % bands.identifier_dims] += 1
    scale = max(1.0, bands.identifier_weight)
    vector = np.concatenate(
        [
            structural.astype(np.float64) * (1.0 / scale),
            identifiers.astype(np.float64) * (bands.identifier_weight / scale),
            literals.astype(np.float64) * (1.0 / scale),
        ]
    )
    norm = np.sqrt(np.add.reduce(vector * vector))
    return vector if norm == 0.0 else vector / norm


# Identifiers, a parameter and a literal spelling kind labels.
KIND_NAMES = 'class block { void param(int identifier) { block = param("block", identifier); } }'


def test_names_spelling_kind_labels_match_reference():
    graph = parse_to_graph(KIND_NAMES)
    assert {"block", "param", "identifier"} <= set(graph.labels) & set(graph.names)
    for bands in (BandConfig(), BandConfig(hash_seed=0), BandConfig(identifier_weight=2.0, wl_iterations=0)):
        vector = graph_to_vector(graph, bands)
        assert vector.tobytes() == reference_graph_to_vector(graph, bands).tobytes()
        assert vector[bands.structural_dims:-bands.literal_dims].any()


@st.composite
def band_configs(draw):
    """Few distinct dims, weights and seeds, so a run often returns to bands
    it had left."""
    structural = draw(st.sampled_from([512, 100, 7]))
    return BandConfig(
        structural_dims=structural,
        identifier_dims=VECTOR_DIM - 64 - structural,
        identifier_weight=draw(st.sampled_from([0.5, 0.0, 3.0, sys.float_info.max])),
        wl_iterations=draw(st.integers(min_value=0, max_value=4)),
        hash_seed=draw(SEEDS),
    )


EMPTY_GRAPH = CodeGraph([], [], [], [], [])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(small_graphs() | hub_graphs() | st.just(EMPTY_GRAPH), max_size=12),
    band_configs(),
    st.sampled_from([1, 7, 1000]),
    st.sampled_from([4, 24, 1 << 16]),
)
def test_grouped_vectors_match_reference_vectors(graphs, bands, group_nodes, cap):
    """Every row of one `graphs_to_vectors` run over a one-shot generator
    (empty graphs, graphs without edges and hubs among them), at any group
    size and with fresh maps at a small entry cap, is the reference vector
    of its graph, byte for byte."""
    with mock.patch.object(embedding, "_GROUP_NODES", group_nodes), \
            mock.patch.object(embedding, "_MAX_WL_ENTRIES", cap):
        vectors = graphs_to_vectors((graph for graph in graphs), bands)
    assert vectors.shape == (len(graphs), VECTOR_DIM) and vectors.dtype == np.float64
    for graph, row in zip(graphs, vectors):
        assert row.tobytes() == reference_graph_to_vector(graph, bands).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(small_graphs(), min_size=1, max_size=6), band_configs()), min_size=1, max_size=5),
       st.sampled_from([4, 24, 1 << 16]))
def test_shared_labels_match_reference_vectors(runs, cap):
    """Runs that change dims, seed and rounds, each sharing one map across
    groups of one graph and starting fresh ones at a small entry cap, give
    the reference's bytes."""
    with mock.patch.object(embedding, "_GROUP_NODES", 1), mock.patch.object(embedding, "_MAX_WL_ENTRIES", cap):
        for graphs, bands in runs:
            vectors = graphs_to_vectors(graphs, bands)
            for graph, row in zip(graphs, vectors):
                assert row.tobytes() == reference_graph_to_vector(graph, bands).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=8))
def test_shared_labels_give_fresh_vectors(graphs):
    """A row of a run whose map is shared across graphs, in one group or in
    a group per graph, is the vector of its graph embedded alone."""
    alone = [graph_to_vector(graph).tobytes() for graph in graphs]
    assert [row.tobytes() for row in graphs_to_vectors(graphs)] == alone
    with mock.patch.object(embedding, "_GROUP_NODES", 1):
        assert [row.tobytes() for row in graphs_to_vectors(graphs)] == alone


@pytest.mark.parametrize("group_nodes", [1, 40, 100])
def test_input_is_read_one_graph_ahead_of_the_embedding(group_nodes, monkeypatch):
    """A run pulls a graph from its input only to embed it or to find that
    it closes the group before it: when a group is embedded, at most one
    graph past it has been read, and no group but a lone graph passes
    `_GROUP_NODES` nodes."""
    monkeypatch.setattr(embedding, "_GROUP_NODES", group_nodes)
    graphs = [parse_to_graph(source) for source in (RENAME_A, RESTRUCTURED, RENAME_B, KIND_NAMES)] * 3
    alone = [graph_to_vector(graph).tobytes() for graph in graphs]
    pulled, embedded, groups = [], [], []

    def source():
        for graph in graphs:
            pulled.append(graph)
            yield graph

    group_vectors = embedding._group_vectors

    def recording(group, bands, wl):
        embedded.extend(group)
        groups.append(len(group))
        assert len(group) == 1 or sum(map(len, group)) <= group_nodes
        assert len(pulled) <= len(embedded) + 1
        return group_vectors(group, bands, wl)

    monkeypatch.setattr(embedding, "_group_vectors", recording)
    vectors = graphs_to_vectors(source())
    assert embedded == graphs and len(groups) > 1
    assert [row.tobytes() for row in vectors] == alone


def test_labels_reset_past_cap_keep_vectors(monkeypatch):
    """A run past `_MAX_WL_ENTRIES` starts a fresh map before each group,
    and its rows stay those of each graph embedded alone."""
    monkeypatch.setattr(embedding, "_MAX_WL_ENTRIES", 8)
    monkeypatch.setattr(embedding, "_GROUP_NODES", 1)
    maps = []
    init = WLLabels.__init__

    def counted_init(self, hash_seed):
        maps.append(hash_seed)
        init(self, hash_seed)

    sources = [RENAME_A, RESTRUCTURED, RENAME_B, "class A { void f() { g(1); } }", RENAME_A]
    graphs = [parse_to_graph(source) for source in sources]
    alone = [graph_to_vector(graph).tobytes() for graph in graphs]
    monkeypatch.setattr(WLLabels, "__init__", counted_init)
    assert [row.tobytes() for row in graphs_to_vectors(graphs)] == alone
    assert maps == [BandConfig().hash_seed] * len(sources)
