import string
from dataclasses import astuple, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.codegraph import (
    KEYWORDS,
    CodeGraph,
    Edge,
    EdgeKind,
    ParseError,
    fallback_token_graph,
    parse_to_graph,
    tokenize,
)


def edges_of_kind(graph: CodeGraph, kind: EdgeKind):
    return [e for e in graph.edges if e.kind == kind]


def node_by_label(graph: CodeGraph, label: str, name=None):
    matches = [n for n in graph.nodes if n.label == label and (name is None or n.name == name)]
    assert matches, f"no node labeled {label} (name={name})"
    return matches[0]


def test_empty_source_gives_empty_graph():
    graph = parse_to_graph("")
    assert len(graph.nodes) == 0
    assert len(graph.edges) == 0


def test_whitespace_only_is_empty():
    assert len(parse_to_graph("  \n\t // just a comment\n")) == 0


def test_class_with_inheritance_and_unresolved_call():
    graph = parse_to_graph("class A extends B { void f() { g(); } }")

    cls = node_by_label(graph, "class-decl", "A")
    method = node_by_label(graph, "method-decl", "f")
    block = node_by_label(graph, "block")
    call = node_by_label(graph, "call-expr", "g")
    ext_class = node_by_label(graph, "external-class", "B")
    ext_call = node_by_label(graph, "external-call", "g")
    assert len(graph.nodes) == 6

    child = {(e.src, e.dst) for e in edges_of_kind(graph, EdgeKind.CHILD)}
    assert child == {(cls.id, method.id), (method.id, block.id), (block.id, call.id)}
    assert Edge(cls.id, ext_class.id, EdgeKind.INHERITS) in graph.edges
    assert Edge(method.id, ext_call.id, EdgeKind.INVOKES) in graph.edges


def test_in_unit_call_resolution():
    source = "class A { void f() { g(); } void g() { } }"
    graph = parse_to_graph(source)
    f = node_by_label(graph, "method-decl", "f")
    g = node_by_label(graph, "method-decl", "g")
    invokes = edges_of_kind(graph, EdgeKind.INVOKES)
    assert invokes == [Edge(f.id, g.id, EdgeKind.INVOKES)]
    assert not [n for n in graph.nodes if n.label == "external-call"]


def test_in_unit_inheritance_resolution():
    graph = parse_to_graph("class Base { } class Sub extends Base { }")
    base = node_by_label(graph, "class-decl", "Base")
    sub = node_by_label(graph, "class-decl", "Sub")
    assert edges_of_kind(graph, EdgeKind.INHERITS) == [Edge(sub.id, base.id, EdgeKind.INHERITS)]


def test_dotted_calls_are_external():
    graph = parse_to_graph('class A { void log() { } void f() { console.log("x"); } }')
    f = node_by_label(graph, "method-decl", "f")
    ext = node_by_label(graph, "external-call", "console.log")
    assert Edge(f.id, ext.id, EdgeKind.INVOKES) in graph.edges


def test_repeated_calls_share_one_invokes_edge():
    graph = parse_to_graph("class A { void f() { g(); g(); } void g() { } }")
    assert len(edges_of_kind(graph, EdgeKind.INVOKES)) == 1
    assert len([n for n in graph.nodes if n.label == "call-expr"]) == 2


def test_sibling_chain_order():
    graph = parse_to_graph("class A { void f(int x, int y) { return; } }")
    method = node_by_label(graph, "method-decl", "f")
    px = node_by_label(graph, "param", "x")
    py = node_by_label(graph, "param", "y")
    block = node_by_label(graph, "block")
    siblings = {(e.src, e.dst) for e in edges_of_kind(graph, EdgeKind.NEXT_SIBLING)}
    assert (px.id, py.id) in siblings
    assert (py.id, block.id) in siblings
    child = {(e.src, e.dst) for e in edges_of_kind(graph, EdgeKind.CHILD)}
    assert {(method.id, px.id), (method.id, py.id), (method.id, block.id)} <= child


def test_literals_and_locals():
    graph = parse_to_graph('class A { void f() { int n = 42; String s = "hi"; n = 7; } }')
    node_by_label(graph, "var-decl", "n")
    node_by_label(graph, "number-literal", "42")
    node_by_label(graph, "string-literal", "hi")
    node_by_label(graph, "assign")


def test_parse_is_deterministic():
    source = "class A extends B { int k = 3; void f(int x) { g(x, 1); } }"
    a = parse_to_graph(source)
    b = parse_to_graph(source)
    assert a == b


def test_child_edges_form_a_forest():
    source = "class A { void f() { g(1, \"s\"); } void g(int a, int b) { return a; } }"
    graph = parse_to_graph(source)
    ids = [n.id for n in graph.nodes]
    assert ids == list(range(len(ids)))
    parents = {}
    for e in edges_of_kind(graph, EdgeKind.CHILD):
        assert e.dst not in parents, "child node has two parents"
        parents[e.dst] = e.src
    # no cycles: walking up from any node terminates
    for nid in ids:
        seen = set()
        while nid in parents:
            assert nid not in seen
            seen.add(nid)
            nid = parents[nid]


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_to_graph("class A {\n  void f( { }\n}")
    assert err.value.line == 2
    assert err.value.col > 0


def test_fallback_token_graph():
    graph = fallback_token_graph('how does Parser handle "quotes" and 42? ')
    labels = sorted({n.label for n in graph.nodes})
    assert labels == ["identifier", "number-literal", "string-literal"]
    assert len(graph.edges) == 0
    names = {n.name for n in graph.nodes if n.label == "identifier"}
    assert {"how", "does", "Parser", "handle", "and"} == names


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(source: str, strict: bool = True) -> list[RefToken]:
    """The tokenizer as it was with one frozen dataclass per token: the
    oracle for the tuple tokens of `tokenize`."""
    tokens: list[RefToken] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                if strict:
                    raise ParseError("unterminated block comment", line, col)
                break
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            col = len(skipped) - skipped.rfind("\n") if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(RefToken(kind, text, line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n - 1 and source[i] == "." and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            tokens.append(RefToken("number", source[start:i], line, col))
            col += i - start
            continue
        if ch == '"':
            start = i
            i += 1
            while i < n and source[i] != '"':
                if source[i] == "\\" and i + 1 < n:
                    i += 1
                if source[i] == "\n":
                    if strict:
                        raise ParseError("unterminated string literal", line, col)
                    break
                i += 1
            if i >= n or source[i] != '"':
                if strict:
                    raise ParseError("unterminated string literal", line, col)
                tokens.append(RefToken("string", source[start + 1 :], line, col))
                break
            tokens.append(RefToken("string", source[start + 1 : i], line, col))
            i += 1
            col += i - start
            continue
        if ch in "{}();,=.":
            tokens.append(RefToken("punct", ch, line, col))
            i, col = i + 1, col + 1
            continue
        if strict:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i, col = i + 1, col + 1
    return tokens


def lex(lexer, source: str, strict: bool, record=tuple):
    """`(kind, text, line, col)` of every token, or the `ParseError` message."""
    try:
        return [record(tok) for tok in lexer(source, strict)]
    except ParseError as err:
        return str(err)


# Characters every branch of the lexer turns on, non-ASCII letters and
# digits (`\u00b2` and `\u0663` are digits to `str.isdigit` but not to an
# ASCII class; `\u216b` is alphanumeric but not alphabetic) and newlines.
LEXER_ALPHABET = list(' "\\/*{}();,=._@\n\n\t\u00e9\u00b2\u0663\u216b') + list(string.digits + string.ascii_lowercase)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from(LEXER_ALPHABET))), st.booleans())
def test_tokenize_matches_reference(source, strict):
    assert lex(tokenize, source, strict) == lex(reference_tokenize, source, strict, astuple)
