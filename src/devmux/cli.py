"""Command-line interface: indexing, querying, layout linting, routing,
simulation, and policy comparison.

Exit codes: 0 success, 1 findings or a degraded result, 2 usage or parse
errors, 3 I/O errors. Commands raise; `cli_main` alone maps an error to its
code and a one-line message naming the file or config key. A config or layout
that is not UTF-8 or does not parse, or a bad config value (an unknown enum
value, `embed.hash_seed` outside [0, 2**64)), exits 2; an unreadable or
unwritable path, or an index file that does not load or holds a row that is
not UTF-8, exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from .base import Battery, Complexity, ConfigError, DeviceClass, IndexFileError, LayoutParseError, NetworkState

EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_EXTENSIONS = (".java", ".mini")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _source_files(root: Path, extensions: tuple[str, ...]) -> list[str]:
    """The paths below `root`, relative and with `/` separators, of the
    files whose suffix is one of `extensions`, sorted by path parts (so
    `a/x.mini` comes before `a-b/z.mini`). A link to a file counts; a link
    to a directory is not followed, and a broken link is skipped. A suffix
    is as `Path.suffix` reads it: from the last dot of a name that neither
    starts nor ends with it."""
    found = []
    parts_of = {str(root): ()}
    for dirpath, dirnames, filenames in os.walk(root):
        parts = parts_of.pop(dirpath)
        for name in dirnames:
            parts_of[os.path.join(dirpath, name)] = (*parts, name)
        for name in filenames:
            dot = name.rfind(".")
            path = os.path.join(dirpath, name)
            if 0 < dot < len(name) - 1 and name[dot:] in extensions and os.path.isfile(path):
                found.append((*parts, name))
    return ["/".join(parts) for parts in sorted(found)]


def cmd_index(args) -> int:
    from .codegraph import ParseError, parse_to_graph
    from .configfile import load_config
    from .embedding import graphs_to_vectors
    from .vindex import VectorIndex

    config = load_config(args.config)
    max_files = args.max_files if args.max_files is not None else config.max_files
    root = Path(args.directory)
    if not root.is_dir():
        return _fail(f"not a directory: {root}", EXIT_IO)

    extensions = tuple(args.ext) if args.ext else DEFAULT_EXTENSIONS
    paths = _source_files(root, extensions)
    selected = paths[:max_files]
    skipped_cap = paths[max_files:]

    index = VectorIndex(band_config_hash=config.bands.fingerprint())
    parse_failures: list[str] = []
    # The id of each file that parsed, in the order its graph is embedded.
    ids: list[str] = []

    def graphs():
        for rel in selected:
            source = (root / rel).read_text(encoding="utf-8", errors="replace")
            try:
                graph = parse_to_graph(source)
            except ParseError as err:
                parse_failures.append(rel)
                print(f"warning: skipping {rel}: {err}", file=sys.stderr)
                continue
            ids.append(rel)
            yield graph

    vectors = graphs_to_vectors(graphs(), config.bands)
    for rel, vector in zip(ids, vectors):
        index.insert(rel, vector)

    if skipped_cap:
        names = ", ".join(skipped_cap)
        print(
            f"warning: file cap {max_files} reached; skipped {len(skipped_cap)} files: {names}",
            file=sys.stderr,
        )

    index.save(args.out)

    print(
        _dump_json(
            {
                "indexed": len(index),
                "skipped_over_cap": len(skipped_cap),
                "parse_failures": len(parse_failures),
                "out": str(args.out),
            }
        ),
        end="",
    )
    return EXIT_DEGRADED if skipped_cap or parse_failures else EXIT_OK


def _query_text_for(root_hint: Path, record_id: str, limit: int = 400) -> str:
    """`<id>: <head of the file>` for a hit, whose id is its file's path
    below `root_hint`, or the bare id when the file cannot be read or is not
    below `root_hint`: an absolute id or one with a `..` part, which only a
    crafted index holds, is never opened. Only the first `limit` characters
    are read."""
    relative = Path(record_id)
    if relative.anchor or ".." in relative.parts:
        return record_id
    try:
        with open(root_hint / relative, encoding="utf-8", errors="replace") as fh:
            return f"{record_id}: {fh.read(limit)}"
    except OSError:
        return record_id


def cmd_query(args) -> int:
    from .codegraph import ParseError, fallback_token_graph, parse_to_graph
    from .configfile import VECTOR_DIM, load_config
    from .embedding import graph_to_vector
    from .fusion import ContextItem, ContextSource, assemble_context, score_items
    from .vindex import VectorIndex

    config = load_config(args.config)
    if not config.fusion_weights.prior[ContextSource.CODE_CONTEXT] > 0:
        raise ConfigError("fusion.priors.code_context must be > 0 for query, which scores only code context")
    index = VectorIndex.load(args.index)
    if index.dim != VECTOR_DIM:
        raise IndexFileError(f"{args.index}: it holds {index.dim}-dimensional vectors, not {VECTOR_DIM}")
    if index.band_config_hash != config.bands.fingerprint():
        print("warning: index was built with a different embedding config", file=sys.stderr)

    try:
        graph = parse_to_graph(args.text)
    except ParseError:
        graph = fallback_token_graph(args.text)
    query_vector = graph_to_vector(graph, config.bands)

    result = index.search(query_vector, args.top_k)
    if not result.hits:
        print(_dump_json({"entries": [], "total_tokens": 0}), end="")
        return EXIT_DEGRADED

    root_hint = Path(args.source_root) if args.source_root else Path(".")
    items = []
    for hit in result.hits:
        text = _query_text_for(root_hint, hit.id)
        items.append(
            ContextItem(
                source=ContextSource.CODE_CONTEXT,
                vector=index.vector(hit.id),
                text=text,
                timestamp_s=0.0,
                token_cost=max(1, math.ceil(len(text) / 4)),
            )
        )
    scored = score_items(query_vector, items, config.fusion_weights, now=0.0)
    fused = assemble_context(scored, args.budget)
    payload = {
        "entries": [
            {"source": e.item.source.value, "weight": e.weight, "text": e.item.text}
            for e in fused.entries
        ],
        "total_tokens": fused.total_tokens,
    }
    print(_dump_json(payload), end="")
    return EXIT_OK


def cmd_describe_layout(args) -> int:
    from .layoutlint import check_layout_source

    with open(args.file, encoding="utf-8") as fh:
        try:
            xml_text = fh.read()
        except UnicodeDecodeError as err:
            raise LayoutParseError(f"{args.file} is not UTF-8 text ({err.reason} at byte {err.start})") from None
    report = check_layout_source(xml_text)
    payload = {
        "statements": [s.text for s in report.statements],
        "findings": [
            {"kind": f.kind.value, "widgets": list(f.widgets), "message": f.message}
            for f in report.findings
        ],
    }
    print(_dump_json(payload), end="")
    return EXIT_DEGRADED if report.findings else EXIT_OK


def cmd_route(args) -> int:
    from .configfile import load_config
    from .routing import (
        ACTIONS, BATTERY_LEVELS, COMPLEXITIES, DEVICE_CLASSES, NETWORK_STATES, cost_table, policy_fingerprint,
        save_policy, solve_policy, state_index,
    )

    router = load_config(args.config).sim.router
    policy = solve_policy(router)
    if args.policy:
        save_policy(policy, policy_fingerprint(router), args.policy)

    state = state_index(COMPLEXITIES.index(Complexity(args.complexity)),
                        DEVICE_CLASSES.index(DeviceClass(args.device)),
                        NETWORK_STATES.index(NetworkState(args.network)),
                        BATTERY_LEVELS.index(Battery(args.battery)))
    action = int(policy.actions[state])
    latency_ms, energy_units, accuracy_loss = cost_table(router.device, router.network)[state, action].tolist()
    print(ACTIONS[action].value)
    print(f"latency_ms={latency_ms} energy_units={energy_units} accuracy_loss={accuracy_loss}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .configfile import load_config
    from .simulate import run_simulation, workload_from_config

    config = load_config(args.config)
    sim = config.sim_config(seed=args.seed, n_tasks=args.n_tasks)
    report, trace = run_simulation(workload_from_config(sim), sim)
    text = _dump_json({
        "policy": sim.policy.value,
        "seed": sim.seed,
        "n_tasks": sim.n_tasks,
        "metrics": report.to_dict(),
    })
    Path(args.out).write_text(text, encoding="utf-8")
    if args.events:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.writelines(trace.event_log())
    print(text, end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    import csv

    from .configfile import load_config
    from .simulate import compare_policies

    config = load_config(args.config)
    report = compare_policies(config.sim_config(seed=args.seed), config.compare_policy_names)
    text = _dump_json(report.to_dict())
    Path(args.out).write_text(text, encoding="utf-8")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(report.csv_rows())
    print(text, end="")
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _task_count(text: str) -> int:
    """A `--n-tasks` value: an integer from 0 to `configfile.MAX_TASKS`."""
    from .configfile import MAX_TASKS

    value = _non_negative_int(text)
    if value > MAX_TASKS:
        raise argparse.ArgumentTypeError(f"n_tasks must be <= {MAX_TASKS}")
    return value


def _suffix(text: str) -> str:
    """An `index --ext` value: a file suffix as `Path.suffix` gives it."""
    if not text.startswith(".") or text == ".":
        raise argparse.ArgumentTypeError(f"must be a suffix starting with '.', such as '.mini', got {text!r}")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `devmux` argument parser; its description is this module's docstring.

    It is built once per process and shared by every call, since
    `parse_args` keeps no state between calls.
    The `route` choices come from the enums in the stdlib-only `base`, so
    building the parser imports no subsystem.
    """
    parser = argparse.ArgumentParser(prog="devmux", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="embed a source tree into a vector index")
    p.add_argument("directory")
    p.add_argument("--max-files", type=_non_negative_int, default=None, help="file cap (default: index.max_files)")
    p.add_argument("--out", default="index.bin")
    p.add_argument("--config", default=None)
    p.add_argument("--ext", action="append", type=_suffix, help="file suffix to include, such as .mini (repeatable)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="search the index and fuse a context bundle")
    p.add_argument("text")
    p.add_argument("--top-k", type=_non_negative_int, default=10)
    p.add_argument("--budget", type=_non_negative_int, default=4096)
    p.add_argument("--index", default="index.bin")
    p.add_argument("--config", default=None)
    p.add_argument("--source-root", default=None, help="base dir for reading hit snippets")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("describe-layout", help="lint a layout file and describe it")
    p.add_argument("file")
    p.set_defaults(func=cmd_describe_layout)

    p = sub.add_parser("route", help="look up the routing action for a state")
    p.add_argument("--complexity", required=True, choices=[c.value for c in Complexity])
    p.add_argument("--device", required=True, choices=[d.value for d in DeviceClass])
    p.add_argument("--network", required=True, choices=[n.value for n in NetworkState])
    p.add_argument("--battery", required=True, choices=[b.value for b in Battery])
    p.add_argument("--config", default=None)
    p.add_argument("--policy", default=None, help="also write the solved policy (JSON)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("simulate", help="run one policy over a synthetic workload")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--n-tasks", type=_task_count, default=None)
    p.add_argument("--out", default="report.json")
    p.add_argument("--events", default=None, help="also write the event log (JSONL)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run every configured policy on one paired workload")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--out", default="comparison.json")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Each `cmd_*` imports the modules it runs inside its body, on every call,
    so a command loads only those (`describe-layout` loads neither numpy nor
    the config loader) and a call sees any attribute patched on them since.
    The error classes mapped here live in `base`, which imports no subsystem.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as err:
        return _fail(f"config error: {err}", EXIT_USAGE)
    except LayoutParseError as err:
        return _fail(f"layout parse error: {err}", EXIT_USAGE)
    except IndexFileError as err:
        return _fail(f"cannot load index: {err}", EXIT_IO)
    except OSError as err:
        return _fail(f"i/o error: {err}", EXIT_IO)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
