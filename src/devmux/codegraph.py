"""Parse a small C/Java-like language into AST-derived code graphs.

The "mini" grammar covers class declarations with single
inheritance, method and field declarations, blocks, call expressions,
assignments, returns, identifiers, and string/number literals. Each parsed
unit becomes a labeled graph: containment (child) edges, ordering
(next-sibling) edges, call (invokes) edges resolved within the unit, and
inheritance edges. Callees and superclasses that do not resolve locally
get placeholder nodes labeled "external-call" / "external-class".

A `CodeGraph` is stored as columns, not as one object per node and edge:
per node a label, a name and a name kind; the parser's child lists, each
beside its parent, which stand for the child and next-sibling edges; and
the other edges as source, target and kind columns. Its `src`, `dst` and
`kinds` properties give all the edges as columns, and its `nodes` and
`edges` properties build lists of `Node`/`Edge` records for callers that
want them.

`tokenize` reads a source with one compiled pattern's `findall` into its
lexemes, plain strings whose kind follows from the first character (a
string literal keeps its quotes), and the parser reads them by index. No
position is kept per lexeme: a `ParseError` is raised at a lexeme's index,
and its line and column are worked out from one more pass of the pattern
over the failing source.
"""

from __future__ import annotations

import re
from collections import deque
from enum import Enum
from itertools import chain, islice
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

# What a node's name is, as `CodeGraph.name_kinds` holds it: an identifier,
# the text of a literal of each of `LITERAL_LABELS` in turn, or no name.
LITERAL_LABELS = ("string-literal", "number-literal")
IDENTIFIER_NAME, STRING_NAME, NUMBER_NAME, NO_NAME = range(4)
_LITERAL_NAME_KINDS = dict(zip(LITERAL_LABELS, (STRING_NAME, NUMBER_NAME)))


def _name_kind(label: str, name: str | None) -> int:
    """The name kind of a node with `label` and `name`."""
    return NO_NAME if name is None else _LITERAL_NAME_KINDS.get(label, IDENTIFIER_NAME)


class Node(NamedTuple):
    id: int
    label: str
    name: str | None = None


class Edge(NamedTuple):
    src: int
    dst: int
    kind: EdgeKind


class CodeGraph:
    """A code graph as columns: `labels`, `names` and `name_kinds` per node;
    `parents` and `child_lists`, the children of a parsed node in order, one
    list per parent; and `explicit_src`, `explicit_dst` and `explicit_kinds`
    (indexes into `EDGE_KINDS`) per other edge.

    The constructor takes a graph's edges as the columns `src`, `dst` and
    `kinds`, which it keeps as its explicit edges, and works out each node's
    name kind from its label and name. The `src`, `dst` and `kinds`
    properties give every edge: a child edge to each child of each child
    list, then a next-sibling edge between each adjacent pair, list by list,
    then the explicit edges."""

    __slots__ = ("labels", "names", "name_kinds", "parents", "child_lists",
                 "explicit_src", "explicit_dst", "explicit_kinds")

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
        self.name_kinds = list(map(_name_kind, labels, names))
        self.parents: list[int] = []
        self.child_lists: list[list[int]] = []
        self.explicit_src = src
        self.explicit_dst = dst
        self.explicit_kinds = kinds

    @classmethod
    def _parsed(cls, labels: list[str], names: list[str | None], name_kinds: list[int], parents: list[int],
                child_lists: list[list[int]], src: list[int], dst: list[int], kinds: list[int]) -> CodeGraph:
        """A graph with child lists, whose name kinds the parser recorded."""
        graph = cls.__new__(cls)
        graph.labels, graph.names, graph.name_kinds = labels, names, name_kinds
        graph.parents, graph.child_lists = parents, child_lists
        graph.explicit_src, graph.explicit_dst, graph.explicit_kinds = src, dst, kinds
        return graph

    def _edge_columns(self) -> tuple[list[int], list[int], list[int]]:
        """`src`, `dst` and `kinds` of every edge, in the class docstring's order."""
        src: list[int] = []
        dst: list[int] = []
        kinds: list[int] = []
        for parent, children in zip(self.parents, self.child_lists):
            n = len(children)
            src += [parent] * n
            src += children[:-1]
            dst += children
            dst += children[1:]
            kinds += [_CHILD] * n
            kinds += [_NEXT_SIBLING] * (n - 1)
        return src + self.explicit_src, dst + self.explicit_dst, kinds + self.explicit_kinds

    @property
    def src(self) -> list[int]:
        return self._edge_columns()[0]

    @property
    def dst(self) -> list[int]:
        return self._edge_columns()[1]

    @property
    def kinds(self) -> list[int]:
        return self._edge_columns()[2]

    def _columns(self) -> tuple[list, ...]:
        return (self.labels, self.names, *self._edge_columns())

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
        src, dst, kinds = self._edge_columns()
        return list(map(Edge, src, dst, map(EDGE_KINDS.__getitem__, kinds)))


KEYWORDS = {"class", "extends", "return"}
_PUNCT = "{}();,=."

# A closed string literal, quotes included: no newline, and a backslash
# escapes the next character. The unrolled form (a run of plain characters,
# then escape-and-run pairs that each start with a backslash) gives an
# unterminated literal back in one linear pass, where a nested
# `(?:[^"\\\n]+|\\.)*` would try every split of the run.
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
_is_closed_string = re.compile(_STRING).fullmatch


def _pattern_text(alpha: str, digits: str, strict: bool) -> str:
    """The lexer's pattern, whose `findall` yields the lexemes: an
    identifier or keyword (a start character of `alpha` or `_`, then word
    characters), a punctuation mark, a number of `digits` with an optional
    fraction, or a string literal. Group 1 is empty at the end of the input.

    What follows the skipped text always matches: a lexeme, the rest of
    the source, or nothing at its end. So no match backtracks into the text
    it skipped, an unterminated comment or string is read by the one match
    that takes it to the end, and lexing takes linear time (Cox, "Regular
    Expression Matching Can Be Simple And Fast", 2007).
    """
    lexeme = rf"[{alpha}_]\w*|[{_PUNCT}]|[{digits}]+(?:\.[{digits}]+)?|{_STRING}"
    if strict:
        # Blanks and closed comments are skipped. Where no lexeme starts
        # (an unknown character, a lone "/", an unterminated comment or
        # string), one match takes the rest of the source, so only the last
        # lexeme can be an error.
        blanks = r"[ \t\r\n]*"
        return rf"{blanks}(?:(?://[^\n]*|/\*(?s:.*?)\*/){blanks})*({lexeme}|(?s:.+))?"
    # Everything that starts no lexeme is skipped, an unterminated comment to
    # the end of the input; an unterminated string is a lexeme to the end.
    other = rf'[^{alpha}_{digits}"{_PUNCT}/]*'
    return rf'{other}(?:(?://[^\n]*|/\*(?s:.*?\*/|.*)|/){other})*({lexeme}|"(?s:.*))?'


_ALPHA, _DIGITS = "A-Za-z", "0-9"
_ASCII_PATTERNS = {strict: re.compile(_pattern_text(_ALPHA, _DIGITS, strict)) for strict in (False, True)}


def _pattern(source: str, strict: bool) -> re.Pattern[str]:
    """The lexer's pattern for `source`. Identifier starts are the
    characters whose `str.isalpha()` is true and digits those whose
    `str.isdigit()` is; ASCII ones are fixed classes, and the non-ASCII ones
    `source` holds are classified here and added. `re` caches the pattern of
    each pair of classes."""
    if source.isascii():
        return _ASCII_PATTERNS[strict]
    extra = sorted(ch for ch in set(source) if not ch.isascii())
    alpha = _ALPHA + "".join(ch for ch in extra if ch.isalpha())
    digits = _DIGITS + "".join(ch for ch in extra if ch.isdigit())
    return re.compile(_pattern_text(alpha, digits, strict))


def _parse_error(source: str, message: str, index: int) -> ParseError:
    """A `ParseError` with `message` at lexeme `index` of `source` (strict),
    or, for the index just past the last lexeme, just past that lexeme. Its
    line and column come from one pass of the lexer's pattern."""
    matches = islice(_pattern(source, True).finditer(source), index + 1)
    before, match = deque(chain([None], matches), maxlen=2)
    offset = match.start(1) if match.group(1) else before.end(1)
    return ParseError(message, source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset))


def _unlexed(rest: str) -> str | None:
    """The error at `rest`, the last strict lexeme, or None if it is a
    lexeme. Where no lexeme starts, the strict pattern takes the rest of the
    source."""
    first = rest[0]
    if first == '"':
        return None if _is_closed_string(rest) else "unterminated string literal"
    if rest.startswith("/*"):
        return "unterminated block comment"
    if first.isalpha() or first == "_" or first.isdigit() or first in _PUNCT:
        return None
    return f"unexpected character {first!r}"


def tokenize(source: str, strict: bool = True) -> list[str]:
    """Lex mini-language source into its lexemes: identifiers and keywords,
    punctuation marks, numbers, and string literals with their quotes. A
    lexeme's kind follows from its first character: `"`, a digit, a
    punctuation mark, or else an identifier or keyword. With strict=False,
    unknown characters are skipped, and an unterminated comment or string
    ends the input, the string as a lexeme without its closing quote (used
    for plain-text token fallback)."""
    lexemes = _pattern(source, strict).findall(source)
    # An empty match ends the input, after a second one where the source
    # ends in skipped text.
    del lexemes[-1]
    if lexemes and not lexemes[-1]:
        del lexemes[-1]
    if strict and lexemes:
        message = _unlexed(lexemes[-1])
        if message is not None:
            raise _parse_error(source, message, len(lexemes) - 1)
    return lexemes


class _GraphBuilder:
    def __init__(self):
        self.labels: list[str] = []
        self.names: list[str | None] = []
        self.name_kinds: list[int] = []
        self.parents: list[int] = []
        self.child_lists: list[list[int]] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.kinds: list[int] = []

    def node(self, label: str, name: str | None = None, name_kind: int = NO_NAME) -> int:
        self.labels.append(label)
        self.names.append(name)
        self.name_kinds.append(name_kind)
        return len(self.labels) - 1

    def edge(self, src: int, dst: int, kind: int) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.kinds.append(kind)

    def attach_children(self, parent: int, children: list[int]) -> None:
        """`children`, in order, as the child list of `parent`: a child edge
        to each, and a next-sibling edge between each adjacent pair. A
        parent gets at most one child list."""
        self.parents.append(parent)
        self.child_lists.append(children)

    def finish(self) -> CodeGraph:
        return CodeGraph._parsed(self.labels, self.names, self.name_kinds, self.parents, self.child_lists,
                                 self.src, self.dst, self.kinds)


# The lexeme that closes a parser's lexeme list; no lexeme is empty.
_END = ""


class _ErrorAtLexeme(Exception):
    """`(message, index)`: a parse error at the parser's lexeme `index`,
    which `parse_to_graph` turns into a `ParseError` at a line and column."""


def _is_ident(lexeme: str) -> bool:
    first = lexeme[:1]
    return (first.isalpha() or first == "_") and lexeme not in KEYWORDS


def _text(lexeme: str) -> str:
    """A lexeme as error messages quote it: a string literal without its
    quotes."""
    return lexeme[1:-1] if lexeme[:1] == '"' else lexeme


class _MiniParser:
    """A recursive-descent parser over a lexeme list closed by `_END`, so
    every rule reads `tokens[pos]` with no bounds check. A rule that runs
    into the sentinel reports "unexpected end of input"."""

    def __init__(self, lexemes: list[str]):
        self.tokens = [*lexemes, _END]
        self.pos = 0
        self.g = _GraphBuilder()
        # (class_name, class_node, superclass_name or None)
        self.classes: list[tuple[str, int, str | None]] = []
        # (method_name, method_node)
        self.methods: list[tuple[str, int]] = []
        # (callee_name, enclosing_method_node, dotted)
        self.calls: list[tuple[str, int | None, bool]] = []
        self.current_method: int | None = None

    def error(self, message: str) -> _ErrorAtLexeme:
        """`message` at `pos`, or "unexpected end of input" at the sentinel."""
        if self.tokens[self.pos] == _END:
            message = "unexpected end of input"
        return _ErrorAtLexeme(message, self.pos)

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, found {_text(tok)!r}")
        self.pos += 1

    def ident(self) -> str:
        """The identifier at `pos`, consumed."""
        tok = self.tokens[self.pos]
        if not _is_ident(tok):
            raise self.error(f"expected 'ident', found {_text(tok)!r}")
        self.pos += 1
        return tok

    def parse_unit(self) -> CodeGraph:
        while self.tokens[self.pos] != _END:
            if self.tokens[self.pos] == "class":
                self.parse_class()
            else:
                self.parse_method_or_field()
        self.resolve()
        return self.g.finish()

    def parse_class(self) -> None:
        self.pos += 1  # "class"
        name = self.ident()
        superclass = None
        if self.tokens[self.pos] == "extends":
            self.pos += 1
            superclass = self.ident()
        node = self.g.node("class-decl", name, IDENTIFIER_NAME)
        self.classes.append((name, node, superclass))
        self.expect("{")
        members: list[int] = []
        while self.tokens[self.pos] != "}":
            members.append(self.parse_method_or_field())
        self.pos += 1
        self.g.attach_children(node, members)

    def parse_method_or_field(self) -> int:
        self.ident()  # declared type; not represented structurally
        name = self.ident()
        if self.tokens[self.pos] == "(":
            return self.parse_method_rest(name)
        node = self.g.node("field-decl", name, IDENTIFIER_NAME)
        children: list[int] = []
        if self.tokens[self.pos] == "=":
            self.pos += 1
            children.append(self.parse_expr())
        self.expect(";")
        self.g.attach_children(node, children)
        return node

    def parse_method_rest(self, name: str) -> int:
        node = self.g.node("method-decl", name, IDENTIFIER_NAME)
        self.methods.append((name, node))
        self.pos += 1  # "("
        children: list[int] = []
        while self.tokens[self.pos] != ")":
            self.ident()  # parameter type
            children.append(self.g.node("param", self.ident(), IDENTIFIER_NAME))
            if self.tokens[self.pos] == ",":
                self.pos += 1
        self.pos += 1
        outer = self.current_method
        self.current_method = node
        children.append(self.parse_block())
        self.current_method = outer
        self.g.attach_children(node, children)
        return node

    def parse_block(self) -> int:
        self.expect("{")
        node = self.g.node("block")
        children: list[int] = []
        tokens = self.tokens
        while tokens[self.pos] != "}":
            children.append(self.parse_stmt())
        self.pos += 1
        self.g.attach_children(node, children)
        return node

    def parse_stmt(self) -> int:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        if tok == "{":
            return self.parse_block()
        if tok == "return":
            self.pos = pos + 1
            node = self.g.node("return")
            children: list[int] = []
            if tokens[pos + 1] != ";":
                children.append(self.parse_expr())
            self.expect(";")
            self.g.attach_children(node, children)
            return node
        # Two adjacent identifiers open a local declaration: "Foo bar = ...;"
        if _is_ident(tok) and _is_ident(tokens[pos + 1]):
            self.pos = pos + 2
            node = self.g.node("var-decl", tokens[pos + 1], IDENTIFIER_NAME)
            children = []
            if tokens[pos + 2] == "=":
                self.pos = pos + 3
                children.append(self.parse_expr())
            self.expect(";")
            self.g.attach_children(node, children)
            return node
        node = self.parse_expr()
        self.expect(";")
        return node

    def parse_expr(self) -> int:
        left = self.parse_primary()
        if self.tokens[self.pos] == "=":
            self.pos += 1
            right = self.parse_expr()
            node = self.g.node("assign")
            self.g.attach_children(node, [left, right])
            return node
        return left

    def parse_primary(self) -> int:
        tokens = self.tokens
        name = tokens[self.pos]
        first = name[:1]
        if first == '"':
            self.pos += 1
            return self.g.node("string-literal", name[1:-1], STRING_NAME)
        if first.isdigit():
            self.pos += 1
            return self.g.node("number-literal", name, NUMBER_NAME)
        if not _is_ident(name):
            raise self.error(f"expected expression, found {_text(name)!r}")
        self.pos += 1
        dotted = False
        while tokens[self.pos] == ".":
            self.pos += 1
            name += "." + self.ident()
            dotted = True
        if tokens[self.pos] == "(":
            self.pos += 1
            node = self.g.node("call-expr", name, IDENTIFIER_NAME)
            args: list[int] = []
            while tokens[self.pos] != ")":
                args.append(self.parse_expr())
                if tokens[self.pos] == ",":
                    self.pos += 1
            self.pos += 1
            self.g.attach_children(node, args)
            self.calls.append((name, self.current_method, dotted))
            return node
        return self.g.node("identifier", name, IDENTIFIER_NAME)

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
                external[key] = self.g.node(label, name, IDENTIFIER_NAME)
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
    try:
        return _MiniParser(tokenize(source, strict=True)).parse_unit()
    except _ErrorAtLexeme as err:
        raise _parse_error(source, *err.args) from None


def fallback_token_graph(text: str) -> CodeGraph:
    """Degenerate graph for non-parseable text: one node per token, no edges.

    Lets free-text queries land in the identifier/literal bands of the
    embedding so retrieval still works on name overlap.
    """
    g = _GraphBuilder()
    for lexeme in tokenize(text, strict=False):
        first = lexeme[0]
        if first == '"':
            # Only the last lexeme can be a string left unterminated.
            g.node("string-literal", lexeme[1:-1] if _is_closed_string(lexeme) else lexeme[1:], STRING_NAME)
        elif first.isdigit():
            g.node("number-literal", lexeme, NUMBER_NAME)
        elif first not in _PUNCT:
            g.node("identifier", lexeme, IDENTIFIER_NAME)
    return g.finish()
