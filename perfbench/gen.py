"""Seeded input generators for the devmux benchmark.

Every generator takes the benchmark seed and returns plain data (file
texts, argv fragments) together with the answer the benchmark expects, so
the program under test receives only generated files and the checks never
ask devmux what the right answer is.

Sizes are fixed multisets shuffled by the seed: a different seed changes
names, literals, order and which files are broken, but not how much work
a workload asks for, so timings stay comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_WORDS = (
    "alpha", "buffer", "cache", "delta", "event", "frame", "graph", "handle",
    "index", "job", "kernel", "layout", "merge", "node", "offset", "parse",
    "queue", "route", "stream", "token", "update", "vector", "widget", "yield",
    "batch", "config", "draw", "fetch", "group", "load", "panel", "query",
    "retry", "scan", "task", "user", "value", "write", "zone", "block",
)
_TYPES = ("int", "String", "float", "List", "Map", "Object", "Result")
_OBJECTS = ("console", "logger", "cache", "client", "store", "metrics")
_FREE_TEXT = (
    "how does {a} handle {b} when the {c} is empty",
    "where is {a} {b} retried after a {c} failure",
    "explain the {a} path for {b} and {c} ?",
    "why does {a} call {b} twice # {c}",
    "{a} {b} {c} timeout 42 'quoted'",
)


def _rng(seed: int, stream: str) -> random.Random:
    # String seeding is stable across Python versions (SHA-512 of the text).
    return random.Random(f"devmux-bench:{seed}:{stream}")


def _cycle_shuffled(rng: random.Random, n: int, values) -> list:
    """`n` values cycling through `values`, shuffled: a fixed multiset."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _ident(rng: random.Random, capital: bool = False) -> str:
    a, b = rng.choice(_WORDS), rng.choice(_WORDS)
    name = a + b.capitalize()
    return name[0].upper() + name[1:] if capital else name


# --------------------------------------------------------------------------
# mini-language source units


def _literal(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return str(rng.randrange(0, 1000))
    return '"' + rng.choice(_WORDS) + " " + rng.choice(_WORDS) + '"'


def _method(rng: random.Random, siblings: list[str], n_stmts: int) -> str:
    params = [f"{rng.choice(_TYPES)} {_ident(rng)}{i}" for i in range(rng.randrange(0, 3))]
    lines = [f"  {rng.choice(_TYPES)} {_ident(rng)}({', '.join(params)}) {{"]
    local = _ident(rng)
    for s in range(n_stmts):
        kind = s % 4
        if kind == 0:
            callee = rng.choice(siblings) if siblings and rng.random() < 0.6 else _ident(rng)
            args = ", ".join(_literal(rng) for _ in range(rng.randrange(0, 3)))
            lines.append(f"    {rng.choice(_TYPES)} {local}{s} = {callee}({args});")
        elif kind == 1:
            lines.append(f"    {rng.choice(_OBJECTS)}.{_ident(rng)}({_literal(rng)});")
        elif kind == 2:
            lines.append(f"    {local}{s - 2} = {_literal(rng)};")
        else:
            lines.append(f"    return {local}{s - 3};")
    lines.append("  }")
    return "\n".join(lines)


def mini_unit(rng: random.Random, n_classes: int, methods: list[int], stmts: list[int]) -> str:
    """One parseable source file: `n_classes` classes with fields, methods,
    calls (local and external), `extends` and literals."""
    class_names = [_ident(rng, capital=True) + str(i) for i in range(n_classes)]
    out = [f"// generated unit {rng.randrange(1 << 30)}"]
    for c, name in enumerate(class_names):
        if c > 0 and rng.random() < 0.5:
            header = f"class {name} extends {class_names[rng.randrange(c)]} {{"
        elif rng.random() < 0.3:
            header = f"class {name} extends {_ident(rng, capital=True)} {{"
        else:
            header = f"class {name} {{"
        out.append(header)
        out.append(f"  {rng.choice(_TYPES)} {_ident(rng)} = {_literal(rng)};")
        method_names: list[str] = []
        for _ in range(methods.pop()):
            body = _method(rng, method_names, stmts.pop())
            method_names.append(body.split("(")[0].split()[-1])
            out.append(body)
        out.append("}")
    return "\n".join(out) + "\n"


# Ways to make a unit unparseable; every one raises ParseError.
_BREAKERS = (
    lambda text: text.replace("{", "{ @", 1),           # unexpected character
    lambda text: text.rstrip().rstrip("}"),              # missing closing brace
    lambda text: text.replace('"', '"open\n', 1) if '"' in text else text + ' "open\n',
    lambda text: text.replace("(", "( {", 1),            # bad parameter list
)


@dataclass
class MiniTree:
    files: dict[str, str]      # relative path -> text
    parseable: int
    unparseable: int


def mini_tree(seed: int, n_files: int = 150, n_broken: int = 5) -> MiniTree:
    """The `index-build` tree: `n_files` files of 1-8 classes each, of which
    `n_broken` are made unparseable."""
    rng = _rng(seed, "tree")
    classes = _cycle_shuffled(rng, n_files, list(range(1, 9)))
    n_classes = sum(classes)
    methods = _cycle_shuffled(rng, n_classes, [1, 2])
    stmts = _cycle_shuffled(rng, sum(methods), [2, 3, 4])
    broken = set(rng.sample(range(n_files), n_broken))
    files: dict[str, str] = {}
    for i in range(n_files):
        text = mini_unit(rng, classes[i], methods, stmts)
        if i in broken:
            text = _BREAKERS[i % len(_BREAKERS)](text)
        path = f"pkg{i % 12:02d}/{_ident(rng, capital=True)}{i:03d}.mini"
        files[path] = text
    return MiniTree(files=files, parseable=n_files - n_broken, unparseable=n_broken)


# --------------------------------------------------------------------------
# query corpus: distinct units stored under several vendored ids

_COPY_ROOTS = ("src", "third_party/acme", "vendor/libcore", "vendor/mirror")


@dataclass
class QueryCorpus:
    units: list[str]                     # distinct source texts
    ids: list[list[str]]                 # per unit, the ids it is stored under

    def files(self) -> dict[str, str]:
        return {rid: text for text, rids in zip(self.units, self.ids) for rid in rids}


def query_corpus(seed: int, n_units: int = 2500, copies: int = 4) -> QueryCorpus:
    rng = _rng(seed, "corpus")
    methods = _cycle_shuffled(rng, n_units, [1, 2])
    stmts = _cycle_shuffled(rng, sum(methods), [2, 3])
    units, ids = [], []
    for i in range(n_units):
        units.append(mini_unit(rng, 1, methods, stmts))
        rel = f"mod{i % 50:02d}/{_ident(rng, capital=True)}{i:04d}.mini"
        ids.append([f"{root}/{rel}" for root in _COPY_ROOTS[:copies]])
    return QueryCorpus(units=units, ids=ids)


@dataclass(frozen=True)
class Query:
    text: str
    top_k: int
    budget: int


def query_set(seed: int, corpus: QueryCorpus, n: int = 48) -> list[Query]:
    """Exact copies of indexed units, fresh parseable snippets, and free text
    that only the token fallback accepts; `--top-k` 10 or 50."""
    rng = _rng(seed, "queries")
    kinds = _cycle_shuffled(rng, n, ["copy", "snippet", "text"])
    top_ks = _cycle_shuffled(rng, n, [10, 10, 50])
    budgets = _cycle_shuffled(rng, n, [1024, 4096])
    queries = []
    for kind, top_k, budget in zip(kinds, top_ks, budgets):
        if kind == "copy":
            text = rng.choice(corpus.units)
        elif kind == "snippet":
            text = mini_unit(rng, 1, [rng.randrange(1, 3)], [2, 3, 4])
        else:
            words = {k: _ident(rng) for k in "abc"}
            text = rng.choice(_FREE_TEXT).format(**words)
        queries.append(Query(text=text, top_k=top_k, budget=budget))
    return queries


# --------------------------------------------------------------------------
# constraint layouts with injected findings

# The median falls inside the 300-widget group and the 90th percentile
# inside the 1000-widget group, whatever the number of operations run.
LAYOUT_SIZES = (50, 120, 300, 300, 300, 300, 300, 600, 1000, 1000)
_RELATIONS = (
    "layout_below", "layout_above", "layout_toLeftOf",
    "layout_toRightOf", "layout_centeredBelow", "layout_centeredAbove",
)
_PLAIN_KINDS = ("TextView", "ImageView", "EditText", "ProgressBar", "Switch")


@dataclass
class Layout:
    xml: str
    widgets: int
    statements: int                       # resolvable constraints = expected statements
    findings: set = field(default_factory=set)   # {(kind, widgets tuple)}


def layout(seed: int, n_widgets: int, variant: int = 0) -> Layout:
    """A layout of `n_widgets` widgets with about four constraints each,
    pointing only at earlier widgets (so the clean part is acyclic), plus
    injected findings: missing click handlers, anchors with `gone`
    visibility, a constraint cycle and dangling references."""
    rng = _rng(seed, f"layout{n_widgets}:{variant}")
    ids = [f"{_ident(rng)}_{i}" for i in range(n_widgets)]
    kinds = [rng.choice(_PLAIN_KINDS) if rng.random() < 0.8 else "Button" for _ in range(n_widgets)]
    attrs: list[dict[str, str]] = [{"id": wid} for wid in ids]
    for i, kind in enumerate(kinds):
        if kind == "Button":
            attrs[i]["onClick"] = "on" + ids[i].split("_")[0].capitalize()

    findings: set = set()
    # Injected widgets sit below the last ten, so every `gone` anchor has
    # later widgets to be anchored from; each later widget anchors at most
    # one of them and keeps a free relation attribute for it.
    pool = list(range(3, n_widgets - 10))
    rng.shuffle(pool)
    n_each = 1 + n_widgets // 400

    missing = pool[:n_each]
    for i in missing:
        kinds[i] = "ImageButton"
        attrs[i].pop("onClick", None)
        findings.add(("missing_click_handler", (ids[i],)))
    gone = set(pool[n_each:2 * n_each])
    for i in gone:
        attrs[i]["visibility"] = "gone"
    ring = sorted(pool[2 * n_each:2 * n_each + 3])
    dangling = pool[2 * n_each + 3:3 * n_each + 3]
    special = set(ring) | set(dangling)

    statements = 0
    counts = _cycle_shuffled(rng, n_widgets, [3, 4, 5])
    for i in range(n_widgets):
        if i in ring:
            continue
        targets = [t for t in range(i) if t not in gone and t not in ring]
        relations = rng.sample(_RELATIONS, min(len(_RELATIONS), counts[i], len(targets)))
        for rel in relations:
            attrs[i][rel] = ids[rng.choice(targets)]
            statements += 1
        if len(relations) < counts[i]:
            attrs[i]["layout_centerInParent"] = "true"
            statements += 1
    for g in sorted(gone):
        anchored = rng.choice([i for i in range(g + 1, n_widgets) if i not in special])
        special.add(anchored)
        rel = next(r for r in _RELATIONS if r not in attrs[anchored])
        attrs[anchored][rel] = ids[g]
        statements += 1
        findings.add(("conflicting_visibility", (ids[anchored], ids[g])))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        attrs[a]["layout_below"] = ids[b]
        statements += 1
    findings.add(("constraint_cycle", tuple(sorted(ids[i] for i in ring))))
    for i in dangling:
        rel = next(r for r in _RELATIONS if r not in attrs[i])
        attrs[i][rel] = f"missing_{i}"
        findings.add(("dangling_reference", (ids[i],)))

    body = "".join(
        "  <" + kind + "".join(f' {k}="{v}"' for k, v in a.items()) + "/>\n"
        for kind, a in zip(kinds, attrs)
    )
    return Layout(xml=f"<Layout>\n{body}</Layout>\n", widgets=n_widgets,
                  statements=statements, findings=findings)


# --------------------------------------------------------------------------
# simulation configs and seeds

SIM_TASKS = 10_000
SIM_CONFIGS = {
    "default": f"simulate:\n  n_tasks: {SIM_TASKS}\n",
    "gpu": f"simulate:\n  n_tasks: {SIM_TASKS}\n  device: gpu\n",
    "flaky": (
        f"simulate:\n  n_tasks: {SIM_TASKS}\n"
        "network:\n  transition_matrix:\n"
        "    good:\n      good: 0.55\n      degraded: 0.15\n      offline: 0.30\n"
        "    degraded:\n      good: 0.30\n      degraded: 0.35\n      offline: 0.35\n"
        "    offline:\n      good: 0.25\n      degraded: 0.15\n      offline: 0.60\n"
    ),
}


def sim_seeds(seed: int, n: int) -> list[int]:
    """Fresh simulation seeds, one per operation."""
    rng = _rng(seed, "sim")
    return [rng.randrange(1, 2**31) for _ in range(n)]
