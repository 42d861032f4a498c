import hashlib
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
    _bucket,
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


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine(np.ones(3), np.ones(4))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = ["class-decl", "method-decl", "block", "call-expr", "identifier", "string-literal"]
    names = st.one_of(st.none(), st.text("abc", min_size=1, max_size=3))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    ends = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n_edges, max_size=n_edges)
    return CodeGraph(
        draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)),
        draw(st.lists(names, min_size=n, max_size=n)),
        draw(ends),
        draw(ends),
        draw(st.lists(st.integers(min_value=0, max_value=len(EDGE_KINDS) - 1), min_size=n_edges, max_size=n_edges)),
    )


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_norm_invariant_on_random_graphs(graph):
    v = graph_to_vector(graph)
    assert v.shape == (VECTOR_DIM,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def reference_wl_label_counts(graph: CodeGraph, rounds: int) -> Counter:
    """Counts of (round, label) pairs, hashing every node's key in every
    round: the relabelling `WLLabels` compresses. A round-0 label is the
    digest of the kind label; a node's next one is the digest of its sorted
    (slot, label digest) pairs, its own at slot 8 and one per edge end at
    slot 2k (source) or 2k + 1 (destination), each as two little-endian
    8-byte ints."""
    own_slot = 2 * len(EDGE_KINDS)
    ends = [[] for _ in range(len(graph))]
    for edge in graph.edges:
        k = EDGE_KINDS.index(edge.kind)
        ends[edge.src].append((2 * k, edge.dst))
        ends[edge.dst].append((2 * k + 1, edge.src))

    labels = [hashlib.blake2b(node.label.encode("utf-8"), digest_size=8).hexdigest() for node in graph.nodes]
    counts: Counter = Counter()
    for r in range(rounds + 1):
        for label in labels:
            counts[(r, label)] += 1
        if r == rounds:
            break
        new_labels = []
        for v, node_ends in enumerate(ends):
            pairs = sorted([(own_slot, int(labels[v], 16))] + [(slot, int(labels[u], 16)) for slot, u in node_ends])
            key = b"".join(slot.to_bytes(8, "little") + digest.to_bytes(8, "little") for slot, digest in pairs)
            new_labels.append(hashlib.blake2b(key, digest_size=8).hexdigest())
        labels = new_labels
    return counts


def counts_by_label(per_round: list[np.ndarray], wl: WLLabels) -> Counter:
    return Counter((r, wl.label(i)) for r, ids in enumerate(per_round) for i in ids.tolist())


@settings(max_examples=60, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=5), st.integers(min_value=0, max_value=4))
def test_wl_counts_match_per_node_reference(graphs, rounds):
    wl = WLLabels()
    for graph in graphs:
        assert counts_by_label(_wl_rounds(graph, rounds, wl), wl) == reference_wl_label_counts(graph, rounds)


def reference_graph_to_vector(graph: CodeGraph, bands: BandConfig) -> np.ndarray:
    """The vector with one `_bucket` per (round, label) of
    `reference_wl_label_counts` and one per named node: the formula that
    `WLLabels` memoises per id."""
    keyed = hashlib.blake2b(digest_size=8, key=bands.hash_seed.to_bytes(8, "little"))
    structural = np.zeros(bands.structural_dims, dtype=np.int64)
    identifiers = np.zeros(bands.identifier_dims, dtype=np.int64)
    literals = np.zeros(bands.literal_dims, dtype=np.int64)
    for (r, label), count in reference_wl_label_counts(graph, bands.wl_iterations).items():
        structural[_bucket(f"wl|{r}|{label}", bands.structural_dims, keyed)] += count
    for node in graph.nodes:
        if node.name is None:
            continue
        if node.label in ("string-literal", "number-literal"):
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
    norm = np.sqrt(np.add.reduce(vector * vector))
    return vector if norm == 0.0 else vector / norm


@st.composite
def band_configs(draw):
    """Few distinct dims and seeds, so a run often returns to bands it had
    left."""
    structural = draw(st.sampled_from([512, 100, 7]))
    return BandConfig(
        structural_dims=structural,
        identifier_dims=VECTOR_DIM - 64 - structural,
        wl_iterations=draw(st.integers(min_value=0, max_value=4)),
        hash_seed=draw(st.sampled_from([0x5EEDC0DE, 0, 2**64 - 1])),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_graphs(), band_configs()), min_size=1, max_size=10), st.sampled_from([4, 24, 1 << 16]))
def test_shared_labels_match_reference_vectors(calls, cap):
    """One `WLLabels` across calls that change dims, seed and rounds, and
    across clears at a small entry cap, gives the reference's bytes."""
    wl = WLLabels()
    with mock.patch.object(embedding, "_MAX_WL_ENTRIES", cap):
        for graph, bands in calls:
            assert graph_to_vector(graph, bands, wl).tobytes() == reference_graph_to_vector(graph, bands).tobytes()


EMPTY_GRAPH = CodeGraph([], [], [], [], [])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.lists(small_graphs() | st.just(EMPTY_GRAPH), max_size=6), band_configs()), max_size=6),
    st.sampled_from([4, 24, 1 << 16]),
)
def test_grouped_vectors_match_reference_vectors(groups, cap):
    """Every row of `graphs_to_vectors` over groups of graphs (empty groups,
    empty graphs and graphs without edges among them), with one `WLLabels`
    across groups and clears between them at a small entry cap, is the
    reference vector of its graph, byte for byte."""
    wl = WLLabels()
    with mock.patch.object(embedding, "_MAX_WL_ENTRIES", cap):
        for graphs, bands in groups:
            vectors = graphs_to_vectors(graphs, bands, wl)
            assert vectors.shape == (len(graphs), VECTOR_DIM) and vectors.dtype == np.float64
            for graph, row in zip(graphs, vectors):
                assert row.tobytes() == reference_graph_to_vector(graph, bands).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=8))
def test_shared_labels_give_fresh_vectors(graphs):
    wl = WLLabels()
    for graph in graphs:
        assert graph_to_vector(graph, None, wl).tobytes() == graph_to_vector(graph).tobytes()


def test_labels_reset_past_cap_keep_vectors(monkeypatch):
    monkeypatch.setattr(embedding, "_MAX_WL_ENTRIES", 8)
    clear = WLLabels.clear
    clears = []

    def counted_clear(self):
        clears.append(len(self))
        clear(self)

    monkeypatch.setattr(WLLabels, "clear", counted_clear)
    sources = [RENAME_A, RESTRUCTURED, RENAME_B, "class A { void f() { g(1); } }", RENAME_A]
    wl = WLLabels()
    for source in sources:
        graph = parse_to_graph(source)
        assert graph_to_vector(graph, None, wl).tobytes() == graph_to_vector(graph).tobytes()
    assert len(clears) == len(sources) - 1
