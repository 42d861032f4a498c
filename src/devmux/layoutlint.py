"""Constraint-layout XML linting: graphs, plain-language descriptions, findings.

The schema is deliberately namespace-free: the element name is the widget
kind, and positional relations are plain attributes (layout_below,
layout_above, layout_toLeftOf, layout_toRightOf, layout_centeredBelow,
layout_centeredAbove, layout_centerInParent). The root element is the
container and is not itself a widget. The records are `NamedTuple`s, so
`describe-layout` does not import `dataclasses`.
"""

from __future__ import annotations

import time
import xml.etree.ElementTree as ET
from enum import Enum
from typing import NamedTuple

from .base import LayoutParseError


class Visibility(str, Enum):
    VISIBLE = "visible"
    INVISIBLE = "invisible"
    GONE = "gone"


class Relation(str, Enum):
    BELOW = "below"
    ABOVE = "above"
    LEFT_OF = "left_of"
    RIGHT_OF = "right_of"
    CENTERED_BELOW = "centered_below"
    CENTERED_ABOVE = "centered_above"
    CENTER_IN_PARENT = "center_in_parent"


class FindingKind(str, Enum):
    MISSING_CLICK_HANDLER = "missing_click_handler"
    CONFLICTING_VISIBILITY = "conflicting_visibility"
    CONSTRAINT_CYCLE = "constraint_cycle"
    DANGLING_REFERENCE = "dangling_reference"


# attribute scan order fixes edge (and therefore statement) ordering
CONSTRAINT_ATTRS: tuple[tuple[str, Relation], ...] = (
    ("layout_below", Relation.BELOW),
    ("layout_above", Relation.ABOVE),
    ("layout_toLeftOf", Relation.LEFT_OF),
    ("layout_toRightOf", Relation.RIGHT_OF),
    ("layout_centeredBelow", Relation.CENTERED_BELOW),
    ("layout_centeredAbove", Relation.CENTERED_ABOVE),
)

INTERACTIVE_KINDS = {"Button", "ImageButton"}
PARENT = "parent"  # edge target sentinel for center-in-parent constraints


class Widget(NamedTuple):
    ref_id: str  # declared id, or "<Kind>@<order>" when the element has none
    kind: str
    attributes: dict[str, str]
    declared_id: str | None
    document_order: int


class LayoutTree(NamedTuple):
    widgets: list[Widget]


class GraphNode(NamedTuple):
    ref_id: str
    kind: str
    visibility: Visibility
    interactive: bool
    has_click_handler: bool
    document_order: int


class ConstraintEdge(NamedTuple):
    src: str
    relation: Relation
    target: str  # widget ref id or PARENT


class Inconsistency(NamedTuple):
    kind: FindingKind
    widgets: tuple[str, ...]
    message: str


class ConstraintGraph(NamedTuple):
    nodes: dict[str, GraphNode]
    edges: list[ConstraintEdge]
    dangling: tuple[Inconsistency, ...] = ()


class LayoutStatement(NamedTuple):
    text: str
    subject_id: str
    relation: Relation
    object_id: str


class ValidityReport(NamedTuple):
    statements: list[LayoutStatement]
    findings: list[Inconsistency]
    elapsed_ms: float


def parse_layout(xml_text: str) -> LayoutTree:
    """Parse layout XML into widgets in document order.

    Malformed XML raises LayoutParseError with the offending location. A
    widget without an id is referred to as `<Kind>@<position>`; a ref that
    repeats another widget's, declared or generated, is rejected. Unknown
    attributes are preserved on the widget but otherwise ignored.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as err:
        line, col = err.position
        raise LayoutParseError(err.msg.split(":")[0], line, col) from None

    widgets: list[Widget] = []
    refs: set[str] = set()
    order = 0
    for element in root.iter():
        if element is root:
            continue
        declared = element.attrib.get("id")
        ref_id = declared if declared is not None else f"{element.tag}@{order}"
        if ref_id in refs:
            raise LayoutParseError(f"duplicate widget id {ref_id!r}")
        refs.add(ref_id)
        widgets.append(
            Widget(
                ref_id=ref_id,
                kind=element.tag,
                attributes=dict(element.attrib),
                declared_id=declared,
                document_order=order,
            )
        )
        order += 1
    return LayoutTree(widgets)


def build_constraint_graph(tree: LayoutTree) -> tuple[ConstraintGraph, list[Inconsistency]]:
    """Turn constraint attributes into typed edges.

    References to ids that do not exist become dangling-reference findings
    instead of edges; those findings cite only the referencing widget so
    that no finding ever names an unknown id.
    """
    nodes: dict[str, GraphNode] = {}
    for widget in tree.widgets:
        visibility_raw = widget.attributes.get("visibility", "visible")
        try:
            visibility = Visibility(visibility_raw)
        except ValueError:
            visibility = Visibility.VISIBLE
        nodes[widget.ref_id] = GraphNode(
            ref_id=widget.ref_id,
            kind=widget.kind,
            visibility=visibility,
            interactive=widget.kind in INTERACTIVE_KINDS
            or widget.attributes.get("clickable") == "true",
            has_click_handler="onClick" in widget.attributes,
            document_order=widget.document_order,
        )

    known = {w.ref_id for w in tree.widgets if w.declared_id is not None}
    edges: list[ConstraintEdge] = []
    dangling: list[Inconsistency] = []
    for widget in tree.widgets:
        for attr, relation in CONSTRAINT_ATTRS:
            target = widget.attributes.get(attr)
            if target is None:
                continue
            if target in known:
                edges.append(ConstraintEdge(widget.ref_id, relation, target))
            else:
                dangling.append(
                    Inconsistency(
                        FindingKind.DANGLING_REFERENCE,
                        (widget.ref_id,),
                        f"{widget.kind} {widget.ref_id} is constrained to {target!r}, "
                        "which does not exist in this layout",
                    )
                )
        if widget.attributes.get("layout_centerInParent") == "true":
            edges.append(ConstraintEdge(widget.ref_id, Relation.CENTER_IN_PARENT, PARENT))

    graph = ConstraintGraph(nodes=nodes, edges=edges, dangling=tuple(dangling))
    return graph, list(dangling)


_TEMPLATES = {
    Relation.BELOW: "{s} is below {t}",
    Relation.ABOVE: "{s} is above {t}",
    Relation.LEFT_OF: "{s} is to the left of {t}",
    Relation.RIGHT_OF: "{s} is to the right of {t}",
    Relation.CENTERED_BELOW: "{s} is centered below {t}",
    Relation.CENTERED_ABOVE: "{s} is centered above {t}",
    Relation.CENTER_IN_PARENT: "{s} is centered in its parent",
}


def describe(graph: ConstraintGraph) -> list[LayoutStatement]:
    """One fixed-template sentence per edge, ordered by the subject's
    document position and then the relation name."""
    def sort_key(edge: ConstraintEdge):
        return (graph.nodes[edge.src].document_order, edge.relation.name)

    statements = []
    for edge in sorted(graph.edges, key=sort_key):
        subject = graph.nodes[edge.src]
        subject_text = f"{subject.kind} {subject.ref_id}"
        if edge.target == PARENT:
            text = _TEMPLATES[edge.relation].format(s=subject_text)
        else:
            target = graph.nodes[edge.target]
            text = _TEMPLATES[edge.relation].format(s=subject_text, t=f"{target.kind} {target.ref_id}")
        statements.append(LayoutStatement(text, edge.src, edge.relation, edge.target))
    return statements


def _cyclic_groups(graph: ConstraintGraph) -> list[tuple[str, ...]]:
    """Strongly connected components (iterative Tarjan) that contain a
    cycle, over widget-to-widget positional edges."""
    adjacency: dict[str, list[str]] = {ref: [] for ref in graph.nodes}
    self_loops: set[str] = set()
    for edge in graph.edges:
        if edge.target == PARENT:
            continue
        adjacency[edge.src].append(edge.target)
        if edge.src == edge.target:
            self_loops.add(edge.src)

    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    for start in graph.nodes:
        if start in index_of:
            continue
        work = [(start, iter(adjacency[start]))]
        index_of[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, neighbors = work[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    cyclic = [c for c in components if len(c) > 1 or c[0] in self_loops]
    return sorted(tuple(sorted(c)) for c in cyclic)


def detect_inconsistencies(graph: ConstraintGraph) -> list[Inconsistency]:
    """All findings for a constraint graph, deterministically ordered.

    Interactive widgets without a click handler, edges anchored to a
    gone-visibility widget (the anchor vanishes from the layout), each
    cyclic cluster of positional constraints reported once with its members
    sorted, and dangling references carried over from graph construction.
    """
    findings: list[Inconsistency] = []

    for node in sorted(graph.nodes.values(), key=lambda n: n.document_order):
        if node.interactive and not node.has_click_handler:
            findings.append(
                Inconsistency(
                    FindingKind.MISSING_CLICK_HANDLER,
                    (node.ref_id,),
                    f"{node.kind} {node.ref_id} is interactive but has no click handler",
                )
            )

    conflicting = []
    for edge in graph.edges:
        if edge.target == PARENT:
            continue
        target = graph.nodes[edge.target]
        if target.visibility is Visibility.GONE:
            conflicting.append(
                Inconsistency(
                    FindingKind.CONFLICTING_VISIBILITY,
                    (edge.src, edge.target),
                    f"{graph.nodes[edge.src].kind} {edge.src} is anchored to "
                    f"{target.kind} {edge.target}, whose visibility is 'gone'",
                )
            )
    findings.extend(sorted(conflicting, key=lambda f: f.widgets))

    for group in _cyclic_groups(graph):
        findings.append(
            Inconsistency(
                FindingKind.CONSTRAINT_CYCLE,
                group,
                "circular positional constraints among: " + ", ".join(group),
            )
        )

    findings.extend(sorted(graph.dangling, key=lambda f: f.widgets))
    return findings


def check_layout_source(xml_text: str) -> ValidityReport:
    """Parse, describe and lint a layout, reporting wall-clock time with the
    parse included. The elapsed time is expected to stay at or under 200 ms
    for layouts up to 500 widgets and 2,000 edges on desktop hardware."""
    start = time.perf_counter()
    tree = parse_layout(xml_text)
    graph, _ = build_constraint_graph(tree)
    statements = describe(graph)
    findings = detect_inconsistencies(graph)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ValidityReport(statements, findings, elapsed_ms)
