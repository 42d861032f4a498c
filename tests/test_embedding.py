import contextlib
import hashlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux import embedding
from devmux.codegraph import (
    EDGE_KINDS,
    IDENTIFIER_NAME,
    NO_NAME,
    NUMBER_NAME,
    STRING_NAME,
    CodeGraph,
    EdgeKind,
    ParseError,
    fallback_token_graph,
    parse_to_graph,
)
from devmux.configfile import MAX_WL_ITERATIONS, VECTOR_DIM
from devmux.embedding import (
    BandConfig,
    FeatureDigests,
    _wl_rounds,
    cosine,
    graph_to_vector,
    graphs_to_vectors,
)
from test_codegraph import LEXER_ALPHABET, UNITS
from test_golden import index_tree

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


def keyed_digest(feature: str, hash_seed: int) -> int:
    """The 8-byte blake2b of `feature`'s UTF-8 keyed with `hash_seed` as 8
    little-endian bytes, read big-endian."""
    key = hash_seed.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest(), "big")


MASK = 2**64 - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix(z: int) -> int:
    """splitmix64's finaliser of the 64-bit `z`."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


# The slot keys: splitmix64's first outputs from seed 0 (its state steps by
# the golden gamma), made odd; the last is a node's own slot.
SLOT_KEYS = [mix(((i + 1) * GOLDEN_GAMMA) & MASK) | 1 for i in range(2 * len(EDGE_KINDS) + 1)]


def test_mix_gives_splitmix64_outputs():
    """`mix` of the first states gives splitmix64's published seed-0 outputs."""
    firsts = [mix((i * GOLDEN_GAMMA) & MASK) for i in (1, 2, 3)]
    assert firsts == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def node_ends(graph: CodeGraph) -> list[list[tuple[int, int]]]:
    """Per node, the (slot, far node) of each of its edge ends: slot 2k at
    the source of an edge of kind k and 2k + 1 at its destination."""
    ends = [[] for _ in range(len(graph))]
    for edge in graph.edges:
        k = EDGE_KINDS.index(edge.kind)
        ends[edge.src].append((2 * k, edge.dst))
        ends[edge.dst].append((2 * k + 1, edge.src))
    return ends


def reference_wl_label_counts(graph: CodeGraph, rounds: int, hash_seed: int = BandConfig().hash_seed) -> Counter:
    """Counts of (round, label) pairs, relabelling node by node in Python
    ints. A round-0 label is the keyed digest of the kind label; a node's
    next one is mix of the sum mod 2**64 of mix(label + slot key) over its
    own label (the last slot) and the label of the far end of each of its
    edge ends, each at its slot."""
    own_slot = 2 * len(EDGE_KINDS)
    ends = node_ends(graph)
    labels = [keyed_digest(node.label, hash_seed) for node in graph.nodes]
    counts: Counter = Counter()
    for r in range(rounds + 1):
        for label in labels:
            counts[(r, label)] += 1
        if r == rounds:
            break
        new_labels = []
        for v, edge_ends in enumerate(ends):
            total = mix((labels[v] + SLOT_KEYS[own_slot]) & MASK)
            for slot, u in edge_ends:
                total += mix((labels[u] + SLOT_KEYS[slot]) & MASK)
            new_labels.append(mix(total & MASK))
        labels = new_labels
    return counts


def counts_by_label(per_round: list[np.ndarray]) -> Counter:
    return Counter((r, label) for r, labels in enumerate(per_round) for label in labels.tolist())


SEEDS = st.sampled_from([0x5EEDC0DE, 0, 2**64 - 1])


def edge_columns(graph: CodeGraph) -> tuple:
    """`graph`'s edges as the int64 columns `_wl_rounds` takes."""
    return tuple(np.array(c, dtype=np.int64) for c in (graph.src, graph.dst, graph.kinds))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_graphs() | hub_graphs(), min_size=1, max_size=5), st.integers(min_value=0, max_value=4), SEEDS)
def test_wl_counts_match_per_node_reference(graphs, rounds, hash_seed):
    """One map across graphs, as a run keeps it, gives every graph the
    reference's label counts."""
    digests = FeatureDigests(hash_seed)
    for graph in graphs:
        per_round = _wl_rounds(digests.digests(graph.labels), *edge_columns(graph), rounds)
        assert counts_by_label(per_round) == reference_wl_label_counts(graph, rounds, hash_seed)


def test_wl_labels_are_as_distinct_as_exact_keys():
    """Over the parsed files of the golden index tree, in every round up to
    the most a config admits, nodes share a new label if and only if they
    share the exact key: their label and their sorted (slot, far label)
    pairs. The sums merge no keys that differ."""
    graphs = []
    for text in index_tree().values():
        with contextlib.suppress(ParseError):
            graphs.append(parse_to_graph(text))
    digests = FeatureDigests(BandConfig().hash_seed)
    per_graph = [_wl_rounds(digests.digests(g.labels), *edge_columns(g), MAX_WL_ITERATIONS) for g in graphs]
    ends = [node_ends(graph) for graph in graphs]
    distinct = []
    for r in range(1, MAX_WL_ITERATIONS + 1):
        key_of, label_of = {}, {}
        for per_round, graph_ends in zip(per_graph, ends):
            previous, labels = per_round[r - 1].tolist(), per_round[r].tolist()
            for v, edge_ends in enumerate(graph_ends):
                key = (previous[v], tuple(sorted((slot, previous[u]) for slot, u in edge_ends)))
                assert key_of.setdefault(labels[v], key) == key
                assert label_of.setdefault(key, labels[v]) == labels[v]
        distinct.append(len(key_of))
    # Some nodes share keys and labels, so the check has pairs to compare.
    assert 1 < distinct[0] < sum(map(len, graphs))


def reference_graph_to_vector(graph: CodeGraph, bands: BandConfig) -> np.ndarray:
    """The vector from each (round, label) of `reference_wl_label_counts`
    and the keyed digest of `id|<name>` or `lit|<label>|<name>` per named
    node, each in bucket digest mod its band's dims. The structural and literal counts are
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


def hand_built(graph: CodeGraph) -> CodeGraph:
    """`graph` made through the public constructor, which keeps every edge,
    its child and next-sibling edges too, as an explicit column."""
    return CodeGraph(graph.labels, graph.names, graph.src, graph.dst, graph.kinds)


PARSED = UNITS.map(lambda tokens: parse_to_graph(" ".join(tokens)))
FALLBACK = st.text(st.sampled_from(LEXER_ALPHABET), max_size=40).map(fallback_token_graph)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(PARSED | FALLBACK, st.booleans()) | small_graphs().map(lambda g: (g, False)), max_size=8),
       band_configs())
def test_mixed_groups_match_graphs_alone(drawn, bands):
    """A group that mixes graphs with child lists (parsed ones) and graphs
    that hold those edges as explicit columns (their hand-built twins, and
    random graphs) gives each graph the row it gets alone, which is the
    reference vector; a parsed graph and its twin are equal, record the
    same name kinds and embed to the same bytes."""
    graphs = [hand_built(graph) if twin else graph for graph, twin in drawn]
    rows = graphs_to_vectors(graphs, bands)
    for graph, row in zip(graphs, rows):
        assert row.tobytes() == graph_to_vector(graph, bands).tobytes()
        assert row.tobytes() == reference_graph_to_vector(graph, bands).tobytes()
    for graph, _ in drawn:
        twin = hand_built(graph)
        assert twin == graph and twin.name_kinds == graph.name_kinds and not twin.child_lists
        assert graph_to_vector(twin, bands).tobytes() == graph_to_vector(graph, bands).tobytes()


def test_constructor_name_kinds_give_the_reference_features():
    """A graph made through the public constructor gets each node's name
    kind from its label and name: a named literal's name is a literal
    feature and any other name an identifier one, while an unnamed literal
    gives neither."""
    graph = CodeGraph(
        ["string-literal", "string-literal", "number-literal", "number-literal", "identifier", "block", "class-decl"],
        ["block", None, "42", None, "string-literal", "x", "Foo"],
        [6, 6, 0],
        [0, 4, 4],
        [EDGE_KINDS.index(EdgeKind.CHILD), EDGE_KINDS.index(EdgeKind.CHILD), EDGE_KINDS.index(EdgeKind.NEXT_SIBLING)],
    )
    assert graph.name_kinds == [STRING_NAME, NO_NAME, NUMBER_NAME, NO_NAME, IDENTIFIER_NAME, IDENTIFIER_NAME,
                                IDENTIFIER_NAME]
    for bands in (BandConfig(), BandConfig(hash_seed=0), BandConfig(identifier_weight=2.0, wl_iterations=0)):
        vector = graph_to_vector(graph, bands)
        assert vector.tobytes() == reference_graph_to_vector(graph, bands).tobytes()
        assert vector[bands.structural_dims:-bands.literal_dims].any() and vector[-bands.literal_dims:].any()


@settings(max_examples=60, deadline=None)
@given(small_graphs() | hub_graphs(), band_configs(), st.data())
def test_vector_does_not_depend_on_node_or_edge_order(graph, bands, data):
    """Renumbering a graph's nodes and reordering its edges leaves its
    vector's bytes unchanged."""
    order = data.draw(st.permutations(range(len(graph))))  # node order[i] becomes node i
    new = {old: i for i, old in enumerate(order)}
    edges = data.draw(st.permutations(list(zip(graph.src, graph.dst, graph.kinds))))
    renumbered = CodeGraph(
        [graph.labels[old] for old in order],
        [graph.names[old] for old in order],
        [new[src] for src, _, _ in edges],
        [new[dst] for _, dst, _ in edges],
        [kind for _, _, kind in edges],
    )
    assert graph_to_vector(renumbered, bands).tobytes() == graph_to_vector(graph, bands).tobytes()


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

    def recording(group, bands, digests):
        embedded.extend(group)
        groups.append(len(group))
        assert len(group) == 1 or sum(map(len, group)) <= group_nodes
        assert len(pulled) <= len(embedded) + 1
        return group_vectors(group, bands, digests)

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
    init = FeatureDigests.__init__

    def counted_init(self, hash_seed):
        maps.append(hash_seed)
        init(self, hash_seed)

    sources = [RENAME_A, RESTRUCTURED, RENAME_B, "class A { void f() { g(1); } }", RENAME_A]
    graphs = [parse_to_graph(source) for source in sources]
    alone = [graph_to_vector(graph).tobytes() for graph in graphs]
    monkeypatch.setattr(FeatureDigests, "__init__", counted_init)
    assert [row.tobytes() for row in graphs_to_vectors(graphs)] == alone
    assert maps == [BandConfig().hash_seed] * len(sources)
