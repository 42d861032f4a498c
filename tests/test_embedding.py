import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux import embedding
from devmux.codegraph import CodeGraph, Edge, EdgeKind, Node, parse_to_graph
from devmux.embedding import VECTOR_DIM, BandConfig, WLLabels, _wl_label_counts, cosine, graph_to_vector

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
    nodes = plain.nodes + (Node(len(plain.nodes), "external-class", "B"),)
    edges = plain.edges + (Edge(0, len(plain.nodes), EdgeKind.INHERITS),)
    extended = CodeGraph(nodes, edges)
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
    nodes = tuple(
        Node(i, draw(st.sampled_from(labels)), draw(st.one_of(st.none(), st.text("abc", min_size=1, max_size=3))))
        for i in range(n)
    )
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    kinds = list(EdgeKind)
    edges = tuple(
        Edge(
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.sampled_from(kinds)),
        )
        for _ in range(n_edges)
    )
    return CodeGraph(nodes, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_norm_invariant_on_random_graphs(graph):
    v = graph_to_vector(graph)
    assert v.shape == (VECTOR_DIM,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def reference_wl_label_counts(graph: CodeGraph, rounds: int) -> Counter:
    """Counts of (round, label) pairs, building and hashing every node's
    signature string in every round: the relabelling `WLLabels` compresses."""
    kinds = (EdgeKind.CHILD, EdgeKind.NEXT_SIBLING, EdgeKind.INVOKES, EdgeKind.INHERITS)
    n = len(graph.nodes)
    out_nbrs = {k: [[] for _ in range(n)] for k in kinds}
    in_nbrs = {k: [[] for _ in range(n)] for k in kinds}
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
            for kind in kinds:
                outs = ",".join(sorted(labels[u] for u in out_nbrs[kind][v]))
                ins = ",".join(sorted(labels[u] for u in in_nbrs[kind][v]))
                parts.append(f"{kind.value}>{outs}<{ins}")
            signature = "|".join(parts)
            new_labels.append(hashlib.blake2b(signature.encode("utf-8"), digest_size=8).hexdigest())
        labels = new_labels
    return counts


def counts_by_label(counts: Counter, wl: WLLabels) -> Counter:
    out: Counter = Counter()
    for (r, i), count in counts.items():
        out[(r, wl.label(i))] += count
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(small_graphs(), min_size=1, max_size=5), st.integers(min_value=0, max_value=4))
def test_wl_counts_match_per_node_reference(graphs, rounds):
    wl = WLLabels()
    for graph in graphs:
        assert counts_by_label(_wl_label_counts(graph, rounds, wl), wl) == reference_wl_label_counts(graph, rounds)


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
