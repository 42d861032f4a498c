import json
import os
import string
import subprocess
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devmux.codegraph import (
    EDGE_KINDS,
    KEYWORDS,
    CodeGraph,
    Edge,
    EdgeKind,
    ParseError,
    fallback_token_graph,
    parse_to_graph,
    tokenize,
)


SRC = Path(__file__).resolve().parents[1] / "src"


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


def lexeme_kind(lexeme: str) -> str:
    """A lexeme's kind, from its first character."""
    first = lexeme[0]
    if first == '"':
        return "string"
    if first.isdigit():
        return "number"
    if first in "{}();,=.":
        return "punct"
    return "keyword" if lexeme in KEYWORDS else "ident"


def reference_lexemes(source: str, strict: bool) -> list[tuple[str, str]]:
    """`(kind, lexeme)` of each token of `reference_tokenize`: the lexeme is
    the source from the token's line and column on, as long as its text and,
    for a string, its quotes. An unterminated string runs to the end of the
    input, so its lexeme has no closing quote."""
    starts = [0, *(i + 1 for i, ch in enumerate(source) if ch == "\n")]
    out = []
    for tok in reference_tokenize(source, strict):
        at = starts[tok.line - 1] + tok.col - 1
        quoted = tok.kind == "string"
        lexeme = source[at : at + len(tok.text) + 2 * quoted]
        assert lexeme[quoted : quoted + len(tok.text)] == tok.text
        out.append((tok.kind, lexeme))
    return out


def lex(lexer, source: str, strict: bool):
    """What `lexer` returns, or the `ParseError` message."""
    try:
        return lexer(source, strict)
    except ParseError as err:
        return str(err)


# Characters every branch of the lexer turns on, non-ASCII letters and
# digits (`\u00b2` and `\u0663` are digits to `str.isdigit` but not to an
# ASCII class; `\u216b` is alphanumeric but not alphabetic), newlines and
# the blanks, carriage return included.
LEXER_ALPHABET = list(' "\\/*{}();,=._@\n\n\t\r\u00e9\u00b2\u0663\u216b') + list(string.digits + string.ascii_lowercase)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from(LEXER_ALPHABET))), st.booleans())
def test_tokenize_matches_reference(source, strict):
    lexemes = lex(tokenize, source, strict)
    if isinstance(lexemes, list):
        lexemes = [(lexeme_kind(lexeme), lexeme) for lexeme in lexemes]
    assert lexemes == lex(reference_lexemes, source, strict)


# About 1 MB each: unterminated comments, strings cut by a newline, a run of
# blanks after the last lexeme, a string of escaped quotes that ends in a
# lone backslash, and one string that runs to the end of the input.
LONG_INPUTS = {
    "comments": "/* " * 350_000,
    "strings": '"x\n' * 350_000,
    "blanks": "x" + " \t\r\n" * 250_000,
    "escapes": '"\\' * 500_000,
    "open string": '"' + "x" * 1_000_000,
}


# Lexes the JSON `[source, strict]` on stdin and prints the seconds taken
# and the lexemes or the `ParseError` message.
LEX_SCRIPT = r"""
import json, sys, time
from devmux.codegraph import ParseError, tokenize
source, strict = json.load(sys.stdin)
start = time.perf_counter()
try:
    result = tokenize(source, strict)
except ParseError as err:
    result = str(err)
print(json.dumps([time.perf_counter() - start, result]))
"""


@pytest.mark.parametrize("name", LONG_INPUTS)
@pytest.mark.parametrize("strict", [True, False])
def test_lexing_takes_linear_time(name, strict):
    """Every input lexes within a fixed bound, far below the time a pattern
    that rescans the rest of the input at each position would take; a
    subprocess turns a lexer that never ends into a failure. An
    unterminated comment or string is one match to the end of the input:
    an error at its start, or the end of the lenient lexemes."""
    source = LONG_INPUTS[name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", LEX_SCRIPT], input=json.dumps([source, strict]),
                          capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    seconds, lexemes = json.loads(proc.stdout)
    assert seconds < 5.0
    expected = {
        "comments": ("unterminated block comment at line 1, column 1", []),
        "strings": ("unterminated string literal at line 1, column 1", [source]),
        "blanks": (["x"], ["x"]),
        "escapes": ("unterminated string literal at line 1, column 1", [source]),
        "open string": ("unterminated string literal at line 1, column 1", [source]),
    }
    assert lexemes == expected[name][not strict]


class RefGraphBuilder:
    def __init__(self):
        self.labels: list[str] = []
        self.names: list[str | None] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.kinds: list[int] = []

    def node(self, label: str, name: str | None = None) -> int:
        self.labels.append(label)
        self.names.append(name)
        return len(self.labels) - 1

    def edge(self, src: int, dst: int, kind: int) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.kinds.append(kind)

    def attach_children(self, parent: int, children: list[int]) -> None:
        """A child edge to each of `children`, then a next-sibling edge
        between each adjacent pair."""
        n = len(children)
        self.src += [parent] * n
        self.src += children[:-1]
        self.dst += children
        self.dst += children[1:]
        self.kinds += [EDGE_KINDS.index(EdgeKind.CHILD)] * n
        self.kinds += [EDGE_KINDS.index(EdgeKind.NEXT_SIBLING)] * (n - 1)

    def finish(self) -> CodeGraph:
        return CodeGraph(self.labels, self.names, self.src, self.dst, self.kinds)


class RefParser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.g = RefGraphBuilder()
        # (class_name, class_node, superclass_name or None)
        self.classes: list[tuple[str, int, str | None]] = []
        # (method_name, method_node)
        self.methods: list[tuple[str, int]] = []
        # (callee_name, enclosing_method_node, dotted)
        self.calls: list[tuple[str, int | None, bool]] = []
        self.current_method: int | None = None

    def peek(self, offset: int = 0) -> tuple | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self) -> tuple:
        tok = self.peek()
        if tok is None:
            # Just past the last token, a string's closing quote included.
            kind, text, line, col = self.tokens[-1]
            raise ParseError("unexpected end of input", line, col + len(text) + 2 * (kind == "string"))
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> tuple:
        tok = self.advance()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def at(self, kind: str, text: str | None = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok[0] == kind and (text is None or tok[1] == text)

    def parse_unit(self) -> CodeGraph:
        while self.peek() is not None:
            if self.at("keyword", "class"):
                self.parse_class()
            else:
                self.parse_method_or_field(in_class=False)
        self.resolve()
        return self.g.finish()

    def parse_class(self) -> None:
        self.expect("keyword", "class")
        name = self.expect("ident")[1]
        superclass = None
        if self.at("keyword", "extends"):
            self.advance()
            superclass = self.expect("ident")[1]
        node = self.g.node("class-decl", name)
        self.classes.append((name, node, superclass))
        self.expect("punct", "{")
        members: list[int] = []
        while not self.at("punct", "}"):
            members.append(self.parse_method_or_field(in_class=True))
        self.expect("punct", "}")
        self.g.attach_children(node, members)

    def parse_method_or_field(self, in_class: bool) -> int:
        self.expect("ident")  # declared type; not represented structurally
        name = self.expect("ident")[1]
        if self.at("punct", "("):
            return self.parse_method_rest(name)
        node = self.g.node("field-decl", name)
        children: list[int] = []
        if self.at("punct", "="):
            self.advance()
            children.append(self.parse_expr())
        self.expect("punct", ";")
        self.g.attach_children(node, children)
        return node

    def parse_method_rest(self, name: str) -> int:
        node = self.g.node("method-decl", name)
        self.methods.append((name, node))
        self.expect("punct", "(")
        children: list[int] = []
        while not self.at("punct", ")"):
            self.expect("ident")  # parameter type
            pname = self.expect("ident")[1]
            children.append(self.g.node("param", pname))
            if self.at("punct", ","):
                self.advance()
        self.expect("punct", ")")
        outer = self.current_method
        self.current_method = node
        children.append(self.parse_block())
        self.current_method = outer
        self.g.attach_children(node, children)
        return node

    def parse_block(self) -> int:
        self.expect("punct", "{")
        node = self.g.node("block")
        children: list[int] = []
        while not self.at("punct", "}"):
            children.append(self.parse_stmt())
        self.expect("punct", "}")
        self.g.attach_children(node, children)
        return node

    def parse_stmt(self) -> int:
        if self.at("punct", "{"):
            return self.parse_block()
        if self.at("keyword", "return"):
            self.advance()
            node = self.g.node("return")
            children: list[int] = []
            if not self.at("punct", ";"):
                children.append(self.parse_expr())
            self.expect("punct", ";")
            self.g.attach_children(node, children)
            return node
        # Two adjacent identifiers open a local declaration: "Foo bar = ...;"
        if self.at("ident") and self.at("ident", offset=1):
            self.advance()
            name = self.advance()[1]
            node = self.g.node("var-decl", name)
            children = []
            if self.at("punct", "="):
                self.advance()
                children.append(self.parse_expr())
            self.expect("punct", ";")
            self.g.attach_children(node, children)
            return node
        node = self.parse_expr()
        self.expect("punct", ";")
        return node

    def parse_expr(self) -> int:
        left = self.parse_primary()
        if self.at("punct", "="):
            self.advance()
            right = self.parse_expr()
            node = self.g.node("assign")
            self.g.attach_children(node, [left, right])
            return node
        return left

    def parse_primary(self) -> int:
        kind, name, line, col = self.advance()
        if kind == "string":
            return self.g.node("string-literal", name)
        if kind == "number":
            return self.g.node("number-literal", name)
        if kind != "ident":
            raise ParseError(f"expected expression, found {name!r}", line, col)
        dotted = False
        while self.at("punct", "."):
            self.advance()
            name += "." + self.expect("ident")[1]
            dotted = True
        if self.at("punct", "("):
            self.advance()
            node = self.g.node("call-expr", name)
            args: list[int] = []
            while not self.at("punct", ")"):
                args.append(self.parse_expr())
                if self.at("punct", ","):
                    self.advance()
            self.expect("punct", ")")
            self.g.attach_children(node, args)
            self.calls.append((name, self.current_method, dotted))
            return node
        return self.g.node("identifier", name)

    def resolve(self) -> None:
        """Second pass: invokes and inherits edges, with external placeholders.

        Call names resolve against method declarations in the same unit
        (first declaration wins); dotted callees are always external. One
        placeholder node is shared per distinct external name, and repeated
        caller/callee pairs collapse to a single edge.
        """
        method_by_name: dict[str, int] = {}
        for name, node in self.methods:
            method_by_name.setdefault(name, node)
        class_by_name = {name: node for name, node, _ in self.classes}

        external: dict[tuple[str, str], int] = {}

        def external_node(label: str, name: str) -> int:
            key = (label, name)
            if key not in external:
                external[key] = self.g.node(label, name)
            return external[key]

        seen_invokes: set[tuple[int, int]] = set()
        for callee, caller, dotted in self.calls:
            if caller is None:
                continue
            if not dotted and callee in method_by_name:
                target = method_by_name[callee]
            else:
                target = external_node("external-call", callee)
            if (caller, target) not in seen_invokes:
                seen_invokes.add((caller, target))
                self.g.edge(caller, target, EDGE_KINDS.index(EdgeKind.INVOKES))

        for _, node, superclass in self.classes:
            if superclass is None:
                continue
            target = class_by_name.get(superclass)
            if target is None:
                target = external_node("external-class", superclass)
            self.g.edge(node, target, EDGE_KINDS.index(EdgeKind.INHERITS))


def reference_parse(source: str) -> CodeGraph:
    """`parse_to_graph` as it was when the parser read `(kind, text, line,
    col)` tokens through `peek`/`at` calls, fed by `reference_tokenize`: the
    oracle for the lexer and the parser that reads lexemes by index."""
    tokens = [astuple(tok) for tok in reference_tokenize(source, strict=True)]
    if not tokens:
        return RefGraphBuilder().finish()
    return RefParser(tokens).parse_unit()


def parse_result(parse, source: str):
    """The columns of the graph `parse` builds from `source`, or the
    `ParseError` message."""
    try:
        return parse(source)._columns()
    except ParseError as err:
        return str(err)


# Mini units as token lists, from the grammar: classes with an optional
# superclass, fields with an optional initialiser, methods with parameters,
# and blocks of nested blocks, returns, local declarations and expression
# statements over literals, dotted names, calls and assignments.
NAMES = st.sampled_from(["a", "b", "run", "Foo", "x1", "_t", "été"])
# String literals whose text is punctuation the parser looks for.
LITERALS = st.sampled_from(['"s"', '""', '"}"', '")"', '","', '";"', '"="', '"."', "42", "3.5"])


def _call(parts):
    """A call of a dotted name; the grammar lets a comma between two
    arguments be left out."""
    path, args = parts
    tokens = [*path[:1]]
    for name in path[1:]:
        tokens += [".", name]
    tokens.append("(")
    for i, (arg, comma) in enumerate(args):
        tokens += [","] * (i > 0 and comma) + arg
    return tokens + [")"]


EXPRS = st.recursive(
    NAMES.map(lambda name: [name]) | LITERALS.map(lambda text: [text]),
    lambda inner: st.one_of(
        st.tuples(st.lists(NAMES, min_size=1, max_size=3), st.lists(st.tuples(inner, st.booleans()), max_size=3)).map(
            _call
        ),
        st.tuples(NAMES, inner).map(lambda t: [t[0], "=", *t[1]]),
    ),
    max_leaves=6,
)
OPTIONAL_INIT = st.none() | EXPRS
STMTS = st.recursive(
    st.one_of(
        EXPRS.map(lambda e: [*e, ";"]),
        st.tuples(NAMES, NAMES, OPTIONAL_INIT).map(lambda t: [t[0], t[1], *(["=", *t[2]] if t[2] else []), ";"]),
        OPTIONAL_INIT.map(lambda e: ["return", *(e or []), ";"]),
    ),
    lambda inner: st.lists(inner, max_size=3).map(lambda stmts: ["{", *(tok for s in stmts for tok in s), "}"]),
    max_leaves=6,
)
BLOCKS = st.lists(STMTS, max_size=3).map(lambda stmts: ["{", *(tok for s in stmts for tok in s), "}"])
FIELDS = st.tuples(NAMES, NAMES, OPTIONAL_INIT).map(lambda t: [t[0], t[1], *(["=", *t[2]] if t[2] else []), ";"])
METHODS = st.tuples(NAMES, NAMES, st.lists(st.tuples(NAMES, NAMES), max_size=3), BLOCKS).map(
    lambda t: [t[0], t[1], "(", *(tok for i, p in enumerate(t[2]) for tok in [","] * (i > 0) + list(p)), ")", *t[3]]
)
MEMBERS = FIELDS | METHODS
CLASSES = st.tuples(NAMES, st.none() | NAMES, st.lists(MEMBERS, max_size=3)).map(
    lambda t: ["class", t[0], *(["extends", t[1]] if t[1] else []), "{", *(tok for m in t[2] for tok in m), "}"]
)
UNITS = st.lists(CLASSES | MEMBERS, max_size=4).map(lambda parts: [tok for part in parts for tok in part])


@st.composite
def mini_sources(draw):
    """A generated mini unit, whole or broken: cut after a random token,
    without one random token, or with a stray `Ⅻ`, `²` or `é`, an
    unterminated string or an unterminated comment inserted at a random
    place."""
    tokens = draw(UNITS)
    cut = draw(st.sampled_from([None, "end", "token"]))
    if cut is not None and tokens:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens = tokens[:at] if cut == "end" else tokens[:at] + tokens[at + 1 :]
    source = "".join(tok + draw(st.sampled_from([" ", "\n", "", "  // c\n", " /* c */ "])) for tok in tokens)
    insert = draw(st.sampled_from([None, "Ⅻ", "\u00b2", "\u00e9", '"open', "/* open"]))
    if insert is not None:
        at = draw(st.integers(0, len(source)))
        source = source[:at] + insert + source[at:]
    return source


@settings(max_examples=400, deadline=None)
@given(st.one_of(mini_sources(), st.text(st.sampled_from(LEXER_ALPHABET))))
# String literals where the parser looks for the punctuation they spell.
@example('void f() { { return ";"; "}"; } g(a "," b ")"); }')
@example('void f() { x "=" y; }')
@example('void f() { Foo bar "=" y; }')
@example('void f() { a "." b; }')
# The end of the input just past a trailing string's closing quote.
@example('int x = "ab"')
def test_parse_matches_reference(source):
    assert parse_result(parse_to_graph, source) == parse_result(reference_parse, source)


@pytest.mark.parametrize(
    "source, col",
    [("int x = 12", 11), ('int x = "ab"', 13), ('int x = ""', 11), ("int x = \u00e9\u00b2", 11)],
)
def test_end_of_input_is_just_past_the_last_lexeme(source, col):
    assert parse_result(parse_to_graph, source) == f"unexpected end of input at line 1, column {col}"
