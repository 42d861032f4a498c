import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.layoutlint import (
    PARENT,
    ConstraintEdge,
    FindingKind,
    LayoutParseError,
    Relation,
    Visibility,
    build_constraint_graph,
    check_layout_source,
    describe,
    detect_inconsistencies,
    parse_layout,
)

GOLDEN = """
<Layout>
  <TextView id="B"/>
  <Button id="A" layout_centeredBelow="B" onClick="onBuy"/>
</Layout>
"""

FOUR_FINDINGS = """
<Layout>
  <Button id="buy"/>
  <TextView id="A" layout_below="B"/>
  <TextView id="B" visibility="gone"/>
  <TextView id="C" layout_below="D"/>
  <TextView id="D" layout_below="C"/>
  <TextView id="E" layout_toLeftOf="Z"/>
</Layout>
"""


def graph_of(xml):
    return build_constraint_graph(parse_layout(xml))[0]


class TestParse:
    def test_empty_layout(self):
        assert parse_layout("<Layout/>").widgets == []

    def test_two_widgets_in_document_order(self):
        tree = parse_layout('<Layout><Button id="A"/><TextView id="B"/></Layout>')
        assert [(w.kind, w.declared_id, w.document_order) for w in tree.widgets] == [
            ("Button", "A", 0),
            ("TextView", "B", 1),
        ]

    def test_nested_widgets_counted(self):
        tree = parse_layout('<Layout><Group id="g"><Button id="A"/></Group></Layout>')
        assert [w.kind for w in tree.widgets] == ["Group", "Button"]

    def test_duplicate_id_is_error(self):
        # A generated `<Kind>@<position>` ref collides with a declared id in either order.
        for xml_text in (
            '<Layout><Button id="A"/><Button id="A"/></Layout>',
            '<Layout><TextView layout_below="B"/><TextView id="B"/><Button id="TextView@0" onClick="go"/></Layout>',
            '<Layout><TextView id="Button@1" layout_below="B"/><Button/><TextView id="B"/></Layout>',
        ):
            with pytest.raises(LayoutParseError, match="duplicate"):
                parse_layout(xml_text)

    def test_malformed_xml_carries_location(self):
        with pytest.raises(LayoutParseError) as err:
            parse_layout("<Layout><Button</Layout>")
        assert err.value.line is not None

    def test_unknown_attributes_preserved(self):
        tree = parse_layout('<Layout><Button id="A" theme="dark"/></Layout>')
        assert tree.widgets[0].attributes["theme"] == "dark"


class TestConstraintGraph:
    def test_centered_below_edge(self):
        graph = graph_of('<Layout><TextView id="B"/><Button id="A" layout_centeredBelow="B"/></Layout>')
        assert graph.edges == [ConstraintEdge("A", Relation.CENTERED_BELOW, "B")]

    def test_dangling_reference_makes_finding_not_edge(self):
        graph, dangling = build_constraint_graph(
            parse_layout('<Layout><Button id="A" layout_below="Z"/></Layout>')
        )
        assert graph.edges == []
        assert len(dangling) == 1
        assert dangling[0].kind is FindingKind.DANGLING_REFERENCE
        assert dangling[0].widgets == ("A",)
        assert "Z" in dangling[0].message

    def test_center_in_parent_edge(self):
        graph = graph_of('<Layout><Button id="A" layout_centerInParent="true"/></Layout>')
        assert graph.edges == [ConstraintEdge("A", Relation.CENTER_IN_PARENT, PARENT)]

    def test_interactivity_and_handlers(self):
        graph = graph_of(
            '<Layout><Button id="A"/><TextView id="B" clickable="true"/>'
            '<TextView id="C" onClick="go"/></Layout>'
        )
        assert graph.nodes["A"].interactive and not graph.nodes["A"].has_click_handler
        assert graph.nodes["B"].interactive and not graph.nodes["B"].has_click_handler
        assert not graph.nodes["C"].interactive and graph.nodes["C"].has_click_handler

    def test_visibility_normalization(self):
        graph = graph_of('<Layout><TextView id="A" visibility="gone"/><TextView id="B"/></Layout>')
        assert graph.nodes["A"].visibility is Visibility.GONE
        assert graph.nodes["B"].visibility is Visibility.VISIBLE


class TestDescribe:
    def test_golden_sentence(self):
        statements = describe(graph_of(GOLDEN))
        assert [s.text for s in statements] == ["Button A is centered below TextView B"]

    def test_empty_graph_empty_list(self):
        assert describe(graph_of("<Layout/>")) == []

    def test_statement_count_equals_edge_count(self):
        graph = graph_of(FOUR_FINDINGS)
        assert len(describe(graph)) == len(graph.edges)

    def test_relation_ordering_below_family_before_sides(self):
        graph = graph_of(
            '<Layout><TextView id="B"/><TextView id="C"/>'
            '<TextView id="A" layout_toLeftOf="C" layout_below="B"/></Layout>'
        )
        statements = describe(graph)
        assert [s.text for s in statements] == [
            "TextView A is below TextView B",
            "TextView A is to the left of TextView C",
        ]

    def test_center_in_parent_sentence(self):
        graph = graph_of('<Layout><TextView id="A" layout_centerInParent="true"/></Layout>')
        assert describe(graph)[0].text == "TextView A is centered in its parent"

    def test_deterministic(self):
        a = describe(graph_of(FOUR_FINDINGS))
        b = describe(graph_of(FOUR_FINDINGS))
        assert a == b


class TestInconsistencies:
    def test_missing_click_handler(self):
        findings = detect_inconsistencies(graph_of('<Layout><Button id="A"/></Layout>'))
        assert [f.kind for f in findings] == [FindingKind.MISSING_CLICK_HANDLER]
        assert findings[0].widgets == ("A",)

    def test_button_with_handler_is_clean(self):
        findings = detect_inconsistencies(
            graph_of('<Layout><Button id="A" onClick="go"/></Layout>')
        )
        assert findings == []

    def test_conflicting_visibility(self):
        findings = detect_inconsistencies(
            graph_of(
                '<Layout><TextView id="A" layout_below="B"/>'
                '<TextView id="B" visibility="gone"/></Layout>'
            )
        )
        assert [f.kind for f in findings] == [FindingKind.CONFLICTING_VISIBILITY]
        assert findings[0].widgets == ("A", "B")

    def test_two_cycle(self):
        findings = detect_inconsistencies(
            graph_of(
                '<Layout><TextView id="A" layout_below="B"/>'
                '<TextView id="B" layout_below="A"/></Layout>'
            )
        )
        assert [f.kind for f in findings] == [FindingKind.CONSTRAINT_CYCLE]
        assert findings[0].widgets == ("A", "B")

    def test_self_loop_cycle(self):
        findings = detect_inconsistencies(
            graph_of('<Layout><TextView id="A" layout_above="A"/></Layout>')
        )
        assert [f.kind for f in findings] == [FindingKind.CONSTRAINT_CYCLE]
        assert findings[0].widgets == ("A",)

    def test_consistent_fixture_is_clean(self):
        findings = detect_inconsistencies(graph_of(GOLDEN))
        assert findings == []

    def test_four_finding_fixture(self):
        findings = detect_inconsistencies(graph_of(FOUR_FINDINGS))
        assert [f.kind for f in findings] == [
            FindingKind.MISSING_CLICK_HANDLER,
            FindingKind.CONFLICTING_VISIBILITY,
            FindingKind.CONSTRAINT_CYCLE,
            FindingKind.DANGLING_REFERENCE,
        ]

    def test_findings_reproducible(self):
        graph = graph_of(FOUR_FINDINGS)
        assert detect_inconsistencies(graph) == detect_inconsistencies(graph)

    def test_findings_reference_known_widgets_only(self):
        graph = graph_of(FOUR_FINDINGS)
        known = set(graph.nodes)
        for finding in detect_inconsistencies(graph):
            assert set(finding.widgets) <= known


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_cycle_groups_match_networkx_oracle(n, data):
    networkx = pytest.importorskip("networkx")
    edge_count = data.draw(st.integers(min_value=0, max_value=2 * n))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    body = "".join(f'<TextView id="w{i}"/>' for i in range(n))
    tree = parse_layout(f"<Layout>{body}</Layout>")
    graph, _ = build_constraint_graph(tree)
    seen = set()
    for src, dst in pairs:
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        graph.edges.append(ConstraintEdge(f"w{src}", Relation.BELOW, f"w{dst}"))

    digraph = networkx.DiGraph()
    digraph.add_nodes_from(f"w{i}" for i in range(n))
    digraph.add_edges_from((f"w{s}", f"w{d}") for s, d in seen)
    expected = sorted(
        tuple(sorted(component))
        for component in networkx.strongly_connected_components(digraph)
        if len(component) > 1 or digraph.has_edge(*(2 * list(component)[:1]))
    )

    actual = sorted(
        f.widgets for f in detect_inconsistencies(graph) if f.kind is FindingKind.CONSTRAINT_CYCLE
    )
    assert actual == expected


def test_cycle_groups_match_oracle_at_200_nodes():
    networkx = pytest.importorskip("networkx")
    import numpy as np

    rng = np.random.default_rng(200)
    n = 200
    body = "".join(f'<TextView id="w{i}"/>' for i in range(n))
    graph, _ = build_constraint_graph(parse_layout(f"<Layout>{body}</Layout>"))
    digraph = networkx.DiGraph()
    digraph.add_nodes_from(f"w{i}" for i in range(n))
    for src, dst in zip(rng.integers(0, n, 500), rng.integers(0, n, 500)):
        if not digraph.has_edge(f"w{src}", f"w{dst}"):
            digraph.add_edge(f"w{src}", f"w{dst}")
            graph.edges.append(ConstraintEdge(f"w{src}", Relation.BELOW, f"w{dst}"))

    expected = sorted(
        tuple(sorted(component))
        for component in networkx.strongly_connected_components(digraph)
        if len(component) > 1 or digraph.has_edge(list(component)[0], list(component)[0])
    )
    actual = sorted(
        f.widgets for f in detect_inconsistencies(graph) if f.kind is FindingKind.CONSTRAINT_CYCLE
    )
    assert actual == expected
    assert expected, "random 500-edge graph over 200 nodes should contain cycles"


def synthetic_layout(n_widgets=500, n_edges=2000):
    parts = ["<Layout>"]
    edges = 0
    for i in range(n_widgets):
        attrs = [f'id="w{i}"']
        for attr, offset in (
            ("layout_below", 1),
            ("layout_toLeftOf", 2),
            ("layout_centeredBelow", 3),
            ("layout_toRightOf", 4),
        ):
            if i - offset >= 0 and edges < n_edges:
                attrs.append(f'{attr}="w{i - offset}"')
                edges += 1
        if edges < n_edges:
            attrs.append('layout_centerInParent="true"')
            edges += 1
        parts.append(f"<TextView {' '.join(attrs)}/>")
    parts.append("</Layout>")
    return "".join(parts), edges


class TestValidityCheck:
    def test_empty_layout(self):
        report = check_layout_source("<Layout/>")
        assert report.findings == []
        assert report.elapsed_ms >= 0.0

    def test_four_finding_fixture_counts(self):
        report = check_layout_source(FOUR_FINDINGS)
        assert len(report.findings) == 4

    def test_synthetic_layout_within_budget(self):
        xml, edges = synthetic_layout()
        assert edges == 2000
        report = check_layout_source(xml)
        assert len(report.statements) == 2000
        assert report.findings == []
        assert report.elapsed_ms <= 200.0
