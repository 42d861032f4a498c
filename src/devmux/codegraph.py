"""Parse a small C/Java-like language into AST-derived code graphs.

The "mini" grammar covers class declarations with single
inheritance, method and field declarations, blocks, call expressions,
assignments, returns, identifiers, and string/number literals. Each parsed
unit becomes a labeled graph: containment (child) edges, ordering
(next-sibling) edges, call (invokes) edges resolved within the unit, and
inheritance edges. Callees and superclasses that do not resolve locally
get placeholder nodes labeled "external-call" / "external-class".

A `CodeGraph` is stored as columns, not as one object per node and edge:
node `i` is `labels[i]` with `names[i]`, and edge `e` runs from `src[e]` to
`dst[e]` with kind `EDGE_KINDS[kinds[e]]`. Its `nodes` and `edges`
properties build lists of `Node`/`Edge` records for callers that want them.
Tokens are plain `(kind, text, line, col)` tuples.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class EdgeKind(str, Enum):
    CHILD = "child"
    NEXT_SIBLING = "next_sibling"
    INVOKES = "invokes"
    INHERITS = "inherits"


# The edge kinds in column order: `CodeGraph.kinds` holds indexes into this.
EDGE_KINDS = tuple(EdgeKind)
_CHILD, _NEXT_SIBLING, _INVOKES, _INHERITS = map(
    EDGE_KINDS.index, (EdgeKind.CHILD, EdgeKind.NEXT_SIBLING, EdgeKind.INVOKES, EdgeKind.INHERITS)
)


class Node(NamedTuple):
    id: int
    label: str
    name: str | None = None


class Edge(NamedTuple):
    src: int
    dst: int
    kind: EdgeKind


class CodeGraph:
    """A code graph as five columns: `labels` and `names` per node, and
    `src`, `dst` and `kinds` (indexes into `EDGE_KINDS`) per edge."""

    __slots__ = ("labels", "names", "src", "dst", "kinds")

    def __init__(
        self,
        labels: list[str],
        names: list[str | None],
        src: list[int],
        dst: list[int],
        kinds: list[int],
    ) -> None:
        self.labels = labels
        self.names = names
        self.src = src
        self.dst = dst
        self.kinds = kinds

    def _columns(self) -> tuple[list, ...]:
        return (self.labels, self.names, self.src, self.dst, self.kinds)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeGraph):
            return NotImplemented
        return self._columns() == other._columns()

    def __repr__(self) -> str:
        return "CodeGraph(labels={!r}, names={!r}, src={!r}, dst={!r}, kinds={!r})".format(*self._columns())

    @property
    def nodes(self) -> list[Node]:
        return list(map(Node, range(len(self.labels)), self.labels, self.names))

    @property
    def edges(self) -> list[Edge]:
        return list(map(Edge, self.src, self.dst, map(EDGE_KINDS.__getitem__, self.kinds)))


KEYWORDS = {"class", "extends", "return"}
_PUNCT = set("{}();,=.")
_WORD = re.compile(r"\w*").match
_BLANKS = re.compile(r"[ \t\r]*").match

# (kind, text, line, col); kind is ident | number | string | punct | keyword
Token = tuple[str, str, int, int]


def tokenize(source: str, strict: bool = True) -> list[Token]:
    """Lex mini-language source into `(kind, text, line, col)` tuples. With
    strict=False, unknown bytes are skipped (used for plain-text token
    fallback)."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            end = _BLANKS(source, i).end()
            i, col = end, col + end - i
            continue
        if ch == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if ch == "/" and source.startswith("/*", i):
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
            # In a str pattern `\w` is a character whose `isalnum()` is true
            # or "_", so one match ends the identifier where a loop over
            # `isalnum() or "_"` would.
            i = _WORD(source, i).end()
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append((kind, text, line, col))
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
            tokens.append(("number", source[start:i], line, col))
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
                tokens.append(("string", source[start + 1 :], line, col))
                break
            tokens.append(("string", source[start + 1 : i], line, col))
            i += 1
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, line, col))
            i, col = i + 1, col + 1
            continue
        if strict:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i, col = i + 1, col + 1
    return tokens


class _GraphBuilder:
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
        self.kinds += [_CHILD] * n
        self.kinds += [_NEXT_SIBLING] * (n - 1)

    def finish(self) -> CodeGraph:
        return CodeGraph(self.labels, self.names, self.src, self.dst, self.kinds)


# Kind of the token that closes a parser's token list; no lexed token has it.
_END = "end"


class _MiniParser:
    """A recursive-descent parser over a token list closed by an `_END`
    token, so every rule reads `tokens[pos]` with no bounds check. The
    sentinel sits just past the last real token, where a rule that runs
    into it reports "unexpected end of input"."""

    def __init__(self, tokens: list[Token]):
        _, text, line, col = tokens[-1]
        self.tokens = [*tokens, (_END, "", line, col + len(text))]
        self.pos = 0
        self.g = _GraphBuilder()
        # (class_name, class_node, superclass_name or None)
        self.classes: list[tuple[str, int, str | None]] = []
        # (method_name, method_node)
        self.methods: list[tuple[str, int]] = []
        # (callee_name, enclosing_method_node, dotted)
        self.calls: list[tuple[str, int | None, bool]] = []
        self.current_method: int | None = None

    @staticmethod
    def error(tok: Token, message: str) -> ParseError:
        """`message` at `tok`, or "unexpected end of input" at the sentinel."""
        if tok[0] == _END:
            message = "unexpected end of input"
        return ParseError(message, tok[2], tok[3])

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise self.error(tok, f"expected {want!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def at(self, kind: str, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == text and tok[0] == kind

    def parse_unit(self) -> CodeGraph:
        while self.tokens[self.pos][0] != _END:
            if self.at("keyword", "class"):
                self.parse_class()
            else:
                self.parse_method_or_field()
        self.resolve()
        return self.g.finish()

    def parse_class(self) -> None:
        self.expect("keyword", "class")
        name = self.expect("ident")[1]
        superclass = None
        if self.at("keyword", "extends"):
            self.pos += 1
            superclass = self.expect("ident")[1]
        node = self.g.node("class-decl", name)
        self.classes.append((name, node, superclass))
        self.expect("punct", "{")
        members: list[int] = []
        while not self.at("punct", "}"):
            members.append(self.parse_method_or_field())
        self.expect("punct", "}")
        self.g.attach_children(node, members)

    def parse_method_or_field(self) -> int:
        self.expect("ident")  # declared type; not represented structurally
        name = self.expect("ident")[1]
        if self.at("punct", "("):
            return self.parse_method_rest(name)
        node = self.g.node("field-decl", name)
        children: list[int] = []
        if self.at("punct", "="):
            self.pos += 1
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
                self.pos += 1
        self.expect("punct", ")")
        outer = self.current_method
        self.current_method = node
        children.append(self.parse_block())
        self.current_method = outer
        self.g.attach_children(node, children)
        return node

    # The rules below run once per statement or expression, so they read the
    # token list by index rather than through `at` and `expect`.

    def parse_block(self) -> int:
        self.expect("punct", "{")
        node = self.g.node("block")
        children: list[int] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok[1] == "}" and tok[0] == "punct":
                break
            children.append(self.parse_stmt())
        self.pos += 1
        self.g.attach_children(node, children)
        return node

    def parse_stmt(self) -> int:
        tokens = self.tokens
        pos = self.pos
        kind, text = tokens[pos][:2]
        if kind == "punct" and text == "{":
            return self.parse_block()
        if kind == "keyword" and text == "return":
            self.pos = pos + 1
            node = self.g.node("return")
            children: list[int] = []
            tok = tokens[pos + 1]
            if not (tok[1] == ";" and tok[0] == "punct"):
                children.append(self.parse_expr())
            self.expect("punct", ";")
            self.g.attach_children(node, children)
            return node
        # Two adjacent identifiers open a local declaration: "Foo bar = ...;"
        if kind == "ident" and tokens[pos + 1][0] == "ident":
            self.pos = pos + 2
            node = self.g.node("var-decl", tokens[pos + 1][1])
            children = []
            tok = tokens[pos + 2]
            if tok[1] == "=" and tok[0] == "punct":
                self.pos = pos + 3
                children.append(self.parse_expr())
            self.expect("punct", ";")
            self.g.attach_children(node, children)
            return node
        node = self.parse_expr()
        self.expect("punct", ";")
        return node

    def parse_expr(self) -> int:
        left = self.parse_primary()
        tok = self.tokens[self.pos]
        if tok[1] == "=" and tok[0] == "punct":
            self.pos += 1
            right = self.parse_expr()
            node = self.g.node("assign")
            self.g.attach_children(node, [left, right])
            return node
        return left

    def parse_primary(self) -> int:
        tokens = self.tokens
        tok = tokens[self.pos]
        kind, name = tok[:2]
        if kind == "string":
            self.pos += 1
            return self.g.node("string-literal", name)
        if kind == "number":
            self.pos += 1
            return self.g.node("number-literal", name)
        if kind != "ident":
            raise self.error(tok, f"expected expression, found {name!r}")
        self.pos += 1
        dotted = False
        tok = tokens[self.pos]
        while tok[1] == "." and tok[0] == "punct":
            self.pos += 1
            name += "." + self.expect("ident")[1]
            dotted = True
            tok = tokens[self.pos]
        if tok[1] == "(" and tok[0] == "punct":
            self.pos += 1
            node = self.g.node("call-expr", name)
            args: list[int] = []
            while True:
                tok = tokens[self.pos]
                if tok[1] == ")" and tok[0] == "punct":
                    break
                args.append(self.parse_expr())
                tok = tokens[self.pos]
                if tok[1] == "," and tok[0] == "punct":
                    self.pos += 1
            self.pos += 1
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
                self.g.edge(caller, target, _INVOKES)

        for _, node, superclass in self.classes:
            if superclass is None:
                continue
            target = class_by_name.get(superclass)
            if target is None:
                target = external_node("external-class", superclass)
            self.g.edge(node, target, _INHERITS)


def parse_to_graph(source: str) -> CodeGraph:
    """Parse mini-language source; raises ParseError with the offending
    line/column."""
    tokens = tokenize(source, strict=True)
    if not tokens:
        return _GraphBuilder().finish()
    return _MiniParser(tokens).parse_unit()


def fallback_token_graph(text: str) -> CodeGraph:
    """Degenerate graph for non-parseable text: one node per token, no edges.

    Lets free-text queries land in the identifier/literal bands of the
    embedding so retrieval still works on name overlap.
    """
    g = _GraphBuilder()
    for kind, word, _, _ in tokenize(text, strict=False):
        if kind in ("ident", "keyword"):
            g.node("identifier", word)
        elif kind == "string":
            g.node("string-literal", word)
        elif kind == "number":
            g.node("number-literal", word)
    return g.finish()
