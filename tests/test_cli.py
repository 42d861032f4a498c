import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from devmux.cli import _query_text_for, build_parser, cli_main
from devmux.configfile import MAX_RANGE_END, BandConfig, load_config
from devmux.routing import Complexity
from devmux.vindex import VectorIndex
from test_vindex import CORRUPTIONS, relabel_as_older, write_corrupt_index

GOOD_LAYOUT = """
<Layout>
  <TextView id="B"/>
  <Button id="A" layout_centeredBelow="B" onClick="onBuy"/>
</Layout>
"""

BAD_LAYOUT = '<Layout><Button id="A"/></Layout>'


def write_sources(root, count, prefix="f"):
    for i in range(count):
        (root / f"{prefix}{i:03d}.java").write_text(
            f"class C{i} {{ void run{i}() {{ helper{i % 7}(); }} void helper{i % 7}() {{ }} }}"
        )


# The argv of each subcommand that takes `--config`, without it. Every one
# reads its config before any other path, so a bad config writes nothing.
CONFIG_COMMANDS = {
    "index": ["index", ".", "--out", "index.bin"],
    "query": ["query", "text", "--index", "index.bin"],
    "route": ["route", "--complexity", "low", "--device", "cpu", "--network", "good", "--battery", "ok"],
    "simulate": ["simulate", "--out", "report.json"],
    "compare": ["compare", "--out", "comparison.json"],
}

# The rows of a valid `network.transition_matrix`, indented under it.
MATRIX_ROWS = "".join(
    f"    {src}:\n" + "".join(f"      {dst}: {p}\n" for dst, p in zip(("good", "degraded", "offline"), row))
    for src, row in zip(("good", "degraded", "offline"), ((0.9, 0.1, 0.0), (0.5, 0.5, 0.0), (0.5, 0.3, 0.2)))
)


def assert_config_error_exit_two(text, message, commands, tmp_path, capsys, monkeypatch):
    """Each of `commands` run with the config `text` exits 2, prints nothing
    on stdout and `message` on stderr, and writes no file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.yaml").write_text(text)
    for command in commands:
        assert cli_main([*CONFIG_COMMANDS[command], "--config", "c.yaml"]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {message}\n"), command
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


# Files that `route --policy` overwrites unread, each made from a valid
# export: malformed ones, and a well-formed one with a tampered action.
MALFORMED_POLICIES = {
    "not_json": lambda doc: "{not json",
    "not_a_map": lambda doc: [],
    "states_not_a_list": lambda doc: {**doc, "states": 5},
    "masked_action": lambda doc: {
        **doc,
        "states": [{**e, "action": "cloud"} if e["network"] == "offline" else e for e in doc["states"]],
    },
    "duplicate_state": lambda doc: {**doc, "states": [doc["states"][0], *doc["states"][:1], *doc["states"][2:]]},
    "tampered_action": lambda doc: {
        **doc,
        "states": [{**e, "action": "cloud"} if (e["complexity"], e["device"], e["network"], e["battery"])
                   == ("low", "cpu", "good", "ok") else e for e in doc["states"]],
    },
}


class TestRoute:
    def test_low_cpu_good_prints_edge(self, capsys):
        code = cli_main(
            ["route", "--complexity", "low", "--device", "cpu", "--network", "good", "--battery", "ok"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "edge"
        assert out[1].startswith("latency_ms=300.0")

    def test_high_cpu_good_prints_cloud(self, capsys):
        code = cli_main(
            ["route", "--complexity", "high", "--device", "cpu", "--network", "good", "--battery", "ok"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "cloud"
        assert "latency_ms=3000.0" in out[1]

    def test_offline_prints_edge(self, capsys):
        code = cli_main(
            ["route", "--complexity", "high", "--device", "gpu", "--network", "offline", "--battery", "ok"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "edge"

    def test_bad_enum_is_usage_error(self, capsys):
        code = cli_main(
            ["route", "--complexity", "huge", "--device", "cpu", "--network", "good", "--battery", "ok"]
        )
        capsys.readouterr()
        assert code == 2

    def test_policy_file_round_trip(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        args = ["route", "--complexity", "low", "--device", "cpu", "--network", "good",
                "--battery", "ok", "--policy", str(policy_path)]
        assert cli_main(args) == 0
        first, written = capsys.readouterr().out, policy_path.read_bytes()
        assert cli_main(args) == 0  # second run solves again and rewrites the file
        assert capsys.readouterr().out == first
        assert policy_path.read_bytes() == written

    @pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES))
    def test_existing_policy_file_is_overwritten(self, case, tmp_path, capsys):
        route = ["route", "--complexity", "low", "--device", "cpu", "--network", "good", "--battery", "ok"]
        policy_path = tmp_path / "policy.json"
        assert cli_main([*route, "--policy", str(policy_path)]) == 0
        fresh = policy_path.read_bytes()
        doc = MALFORMED_POLICIES[case](json.loads(fresh))
        policy_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        capsys.readouterr()
        assert cli_main(route) == 0
        solved = capsys.readouterr().out
        assert cli_main([*route, "--policy", str(policy_path)]) == 0
        assert capsys.readouterr() == (solved, "")
        assert policy_path.read_bytes() == fresh


class TestDescribeLayout:
    def test_clean_layout_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "layout.xml"
        path.write_text(GOOD_LAYOUT)
        code = cli_main(["describe-layout", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["statements"] == ["Button A is centered below TextView B"]
        assert payload["findings"] == []

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "layout.xml"
        path.write_text(BAD_LAYOUT)
        code = cli_main(["describe-layout", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["findings"][0]["kind"] == "missing_click_handler"

    def test_two_runs_print_the_same_bytes(self, tmp_path, capsys):
        """The report holds no wall-clock time: the same layout, with a
        statement and a finding, prints the same bytes every run."""
        path = tmp_path / "layout.xml"
        path.write_text(GOOD_LAYOUT.replace(' onClick="onBuy"', ""))
        runs = []
        for _ in range(2):
            code = cli_main(["describe-layout", str(path)])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        payload = json.loads(runs[0][1])
        assert (runs[0][0], sorted(payload)) == (1, ["findings", "statements"])
        assert payload["statements"] and payload["findings"]

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "layout.xml"
        path.write_text("<Layout><oops</Layout>")
        code = cli_main(["describe-layout", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_exit_three(self, capsys):
        code = cli_main(["describe-layout", "no-such-file.xml"])
        capsys.readouterr()
        assert code == 3


class TestIndexAndQuery:
    def test_index_under_cap(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 20)
        out = tmp_path / "index.bin"
        code = cli_main(["index", str(src), "--out", str(out)])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["indexed"] == 20
        assert payload["skipped_over_cap"] == 0
        assert out.exists()

    def test_index_default_cap_500_warns_and_lists(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 600)
        out = tmp_path / "index.bin"
        code = cli_main(["index", str(src), "--out", str(out)])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 1  # degraded: files were skipped
        assert payload["indexed"] == 500
        assert payload["skipped_over_cap"] == 100
        assert "file cap 500 reached; skipped 100 files" in captured.err
        assert "f599.java" in captured.err

    def test_index_walk_skips_links_to_directories_and_sorts_by_path_parts(self, tmp_path, capsys):
        """The walk keeps a symlinked file and dot files with a suffix, skips
        a symlinked directory, a broken link and a bare `.mini`, and lists
        the files in path-part order: `a/x.mini` before `a-b/z.mini`, where
        a plain string sort would put `a-b` first."""
        src = tmp_path / "src"
        for rel in ("a/x.mini", "a-b/z.mini", "A/y.mini", ".dot.mini", ".mini", "notes.txt"):
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text("class K { }")
        (src / "link_dir").symlink_to(src / "a", target_is_directory=True)
        (src / "linked.mini").symlink_to(src / "a" / "x.mini")
        (src / "broken.mini").symlink_to(src / "missing.mini")
        listed = ".dot.mini, A/y.mini, a/x.mini, a-b/z.mini, linked.mini"
        out = tmp_path / "index.bin"
        assert cli_main(["index", str(src), "--out", str(out), "--max-files", "0"]) == 1
        assert capsys.readouterr().err == f"warning: file cap 0 reached; skipped 5 files: {listed}\n"
        assert cli_main(["index", str(src), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["indexed"] == 5
        assert VectorIndex.load(out).ids() == tuple(sorted(listed.split(", ")))

    def test_index_parse_failure_warns(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 3)
        (src / "broken.java").write_text("class { {")
        out = tmp_path / "index.bin"
        code = cli_main(["index", str(src), "--out", str(out)])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 1
        assert payload["parse_failures"] == 1
        assert payload["indexed"] == 3
        assert "broken.java" in captured.err

    def test_query_returns_fused_bundle(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 12)
        (src / "special.java").write_text(
            "class PaymentGateway { void charge() { validate(); } void validate() { } }"
        )
        out = tmp_path / "index.bin"
        assert cli_main(["index", str(src), "--out", str(out)]) == 0
        capsys.readouterr()

        code = cli_main(
            ["query", "PaymentGateway charge validate", "--index", str(out),
             "--top-k", "5", "--budget", "2048", "--source-root", str(src)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["entries"]
        assert payload["entries"][0]["text"].startswith("special.java")
        assert payload["total_tokens"] <= 2048
        weights = [e["weight"] for e in payload["entries"]]
        assert weights == sorted(weights, reverse=True)
        assert all(e["source"] == "code_context" for e in payload["entries"])

    @pytest.mark.parametrize("weight", [1e154, 1e300, sys.float_info.max])
    def test_huge_identifier_weight_indexes_and_queries(self, weight, tmp_path, capsys):
        """Identifier weights whose squares overflow still give nonzero
        unit vectors, finite weights and no numpy warning."""
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 5)
        config = tmp_path / "c.yaml"
        config.write_text(f"embed:\n  identifier_weight: {weight!r}\n")
        out = tmp_path / "index.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index_code = cli_main(["index", str(src), "--out", str(out), "--config", str(config)])
            index_err = capsys.readouterr().err
            query_code = cli_main(["query", "class C1 { void run1() { helper1(); } }", "--index", str(out),
                                   "--config", str(config), "--source-root", str(src)])
            captured = capsys.readouterr()
        assert (index_code, index_err, query_code, captured.err) == (0, "", 0, "")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        index = VectorIndex.load(out)
        assert all(np.linalg.norm(index.vector(rid)) > 0.5 for rid in index.ids())
        weights = [entry["weight"] for entry in json.loads(captured.out)["entries"]]
        assert weights and all(map(math.isfinite, weights))

    def test_query_missing_index_exit_three(self, capsys):
        code = cli_main(["query", "anything", "--index", "missing.bin"])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS) + ["v1_dim_4", "v2_dim_4", "v3_dim_4", "v4_dim_4",
                                                            "v5_dim_4", "v6_dim_4"])
    def test_query_on_bad_index_exit_three(self, name, tmp_path, capsys):
        path = tmp_path / "index.bin"
        if name.endswith("_dim_4"):
            index = VectorIndex("h", dim=4)
            index.insert("a.java", np.ones(4))
            index.save(path)
            if name != "v6_dim_4":
                relabel_as_older(path, int(name[1]))
        else:
            write_corrupt_index(path, name)
        code = cli_main(["query", "class A { }", "--index", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        # A row that is not UTF-8 is found when the search reads it, after
        # the band check has warned about the test file's hash.
        *warnings, last = captured.err.splitlines()
        assert last.startswith(f"cannot load index: {path}: ")
        assert warnings == (["warning: index was built with a different embedding config"]
                            if name == "v4_row_not_utf8" else [])

    def test_query_warns_on_an_index_hashed_without_the_wl_scheme(self, tmp_path, capsys):
        """The default bands' hash without the WL scheme tag, as indexes
        labelled from signature strings hold it, or under the packed-key
        schemes, whose labels were unkeyed or keyed digests of packed keys,
        names another embedding: `query` answers and warns. Today's hash
        gets no warning."""
        old_hash = hashlib.sha256(json.dumps(vars(BandConfig()), sort_keys=True).encode("utf-8")).hexdigest()[:16]
        scheme_hashes = [hashlib.sha256(json.dumps([scheme, vars(BandConfig())], sort_keys=True).encode("utf-8"))
                         .hexdigest()[:16] for scheme in ("wl-packed-keys", "keyed-feature-digests")]
        warning = "warning: index was built with a different embedding config\n"
        for band_config_hash, err in [(old_hash, warning), *((h, warning) for h in scheme_hashes),
                                      (BandConfig().fingerprint(), "")]:
            index = VectorIndex(band_config_hash)
            index.insert("a.java", np.ones(768))
            index.save(tmp_path / "index.bin")
            assert VectorIndex.load(tmp_path / "index.bin").band_config_hash == band_config_hash
            code = cli_main(["query", "class A { }", "--index", str(tmp_path / "index.bin")])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, err)
            assert [e["text"] for e in json.loads(captured.out)["entries"]] == ["a.java"]

    def test_query_never_reads_a_path_outside_the_source_root(self, tmp_path, capsys):
        """A crafted index whose ids are absolute paths or climb out with
        `..` gets the bare id in the bundle; an id below the root still gets
        the file's text."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "inside.java").write_text("inside text")
        secret = tmp_path / "secret.txt"
        secret.write_text("secret text")
        paths = ["inside.java", str(secret), "../secret.txt", "sub/../../secret.txt"]
        index = VectorIndex(load_config(None).bands.fingerprint())
        for path in paths:
            index.insert(path, np.ones(768))
        index.save(tmp_path / "index.bin")
        code = cli_main(["query", "class A { }", "--index", str(tmp_path / "index.bin"),
                         "--source-root", str(root)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        texts = sorted(e["text"] for e in json.loads(captured.out)["entries"])
        assert texts == sorted(["inside.java: inside text", *paths[1:]])

    @pytest.mark.parametrize("fill", range(155, 160))
    def test_query_text_reads_the_head_as_the_whole_file_sliced(self, fill, tmp_path):
        """A hit's text reads only the first 400 characters of its file,
        and they are those of the whole file decoded and sliced, over
        `\\r\\n` line ends, an invalid byte and 2-, 3- and 4-byte
        characters. As `fill` grows, the 400th character is the one after a
        line end, a translated `\\r\\n`, a 2-byte, a 4-byte and a 3-byte
        character followed by a 4-byte one."""
        raw = ("line\u00e9\r\n" * 40).encode() + b"\xff" + ("\u20ac" * fill + "\U0001d11e\u00e9\r\n").encode()
        (tmp_path / "long.java").write_bytes(raw + "tail \u00e9\r\n".encode() * 1000)
        whole = (tmp_path / "long.java").read_text(encoding="utf-8", errors="replace")
        text = _query_text_for(tmp_path, "long.java")
        assert text == f"long.java: {whole[:400]}"
        assert "\ufffd" in text and "\r" not in text and len(whole) > 4000

    def test_index_of_the_benchmark_tree_median_gate(self, tmp_path, capsys, monkeypatch):
        """In-process `index` over the benchmark's 150-file tree at seed 4242
        (five files unparseable, so exit 1): the median of 7 runs after a
        warm-up is within the gate, 5x the median measured on a 2-vCPU VM
        whose speed drifts up to 2x."""
        path = Path(__file__).parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look their module up
        spec.loader.exec_module(gen)
        src = tmp_path / "src"
        for rel, text in gen.mini_tree(4242).files.items():
            (src / rel).parent.mkdir(parents=True, exist_ok=True)
            (src / rel).write_text(text)
        argv = ["index", str(src), "--out", str(tmp_path / "index.bin")]
        assert cli_main(argv) == 1
        timings = []
        for _ in range(7):
            start = time.perf_counter()
            cli_main(argv)
            timings.append(time.perf_counter() - start)
        capsys.readouterr()
        median_ms = 1000 * sorted(timings)[len(timings) // 2]
        # Medians of 53-57 ms were measured; the gate is 300 ms.
        assert median_ms <= 300.0, f"index median {median_ms:.1f} ms"

    def test_index_out_a_directory_exit_three_and_leaves_no_file(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_sources(src, 3)
        sources = sorted(src.iterdir())
        code = cli_main(["index", str(src), "--out", str(src)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]
        assert sorted(src.iterdir()) == sources


class TestSimulateAndCompare:
    def test_simulate_byte_identical_reports(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli_main(["simulate", "--seed", "42", "--n-tasks", "300", "--out", str(out_a)]) == 0
        assert cli_main(["simulate", "--seed", "42", "--n-tasks", "300", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["policy"] == "mdp"
        assert payload["metrics"]["n_tasks"] == 300

    def test_simulate_events_log(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        events = tmp_path / "events.jsonl"
        code = cli_main(
            ["simulate", "--seed", "7", "--n-tasks", "50", "--out", str(out), "--events", str(events)]
        )
        capsys.readouterr()
        assert code == 0
        lines = events.read_text().strip().splitlines()
        assert len(lines) == 50
        assert json.loads(lines[0])["task_id"] == 0

    def test_simulate_zero_tasks_writes_empty_event_log(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = cli_main(["simulate", "--n-tasks", "0", "--out", str(tmp_path / "report.json"),
                         "--events", str(events)])
        capsys.readouterr()
        assert code == 0
        assert events.read_bytes() == b""

    def test_compare_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "comparison.json"
        csv_path = tmp_path / "comparison.csv"
        code = cli_main(
            ["compare", "--seed", "42", "--out", str(out), "--csv", str(csv_path)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["reports"]) == {"all_cloud", "all_edge", "threshold", "mdp"}
        assert payload["baseline"] == "all_cloud"
        assert payload["deltas"]["all_cloud"]["cloud_call_fraction"] == 0.0
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 5  # header + one row per policy

    def test_config_file_drives_simulation(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("simulate:\n  n_tasks: 25\n  seed: 3\n  policy: all_edge\n")
        out = tmp_path / "report.json"
        code = cli_main(["simulate", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["policy"] == "all_edge"
        assert payload["n_tasks"] == 25
        assert payload["metrics"]["cloud_call_fraction"] == 0.0

    def test_bad_config_exit_two(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("router:\n  w_latencee: 1\n")
        code = cli_main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("router:\n  p_drain: 3\n", "router: p_drain must be in [0, 1]"),
            ("router:\n  p_drain: -0.5\n", "router: p_drain must be in [0, 1]"),
            ("router:\n  complexity_mix:\n    low: 0.9\n", "router: complexity_mix must sum to 1"),
        ],
        ids=["p_drain_high", "p_drain_negative", "mix_sum"],
    )
    def test_bad_router_odds_exit_two(self, command, text, message, tmp_path, capsys, monkeypatch):
        assert_config_error_exit_two(text, message, [command], tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize(
        "section, key, entry, message",
        [
            ("router", "edge_energy_units", "huge: 1", "router.edge_energy_units: unknown complexity 'huge'"),
            ("router", "edge_energy_units", "low: abc",
             "router.edge_energy_units.low must be a number, got 'abc'"),
            ("workload", "mix", "chat: 1", "workload.mix: unknown task kind 'chat'"),
            ("workload", "mix", "refactor: abc", "workload.mix.refactor must be a number, got 'abc'"),
            ("fusion", "priors", "web: 1", "fusion.priors: unknown source 'web'"),
            ("fusion", "priors", "code_context: abc",
             "fusion.priors.code_context must be a number, got 'abc'"),
        ],
        ids=["router_key", "router_value", "workload_key", "workload_value", "fusion_key", "fusion_value"],
    )
    def test_bad_number_map_exit_two(self, section, key, entry, message, tmp_path, capsys, monkeypatch):
        text = f"{section}:\n  {key}:\n    {entry}\n"
        assert_config_error_exit_two(text, message, CONFIG_COMMANDS, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("router:\n  w_latency:\n", "router.w_latency must be a number, got None"),
            ("router:\n  w_latency: abc\n", "router.w_latency must be a number, got 'abc'"),
            ("router:\n  p_drain: true\n", "router.p_drain must be a number, got True"),
            ("router:\n  discount_gamma: nan\n", "router.discount_gamma must be a number, got 'nan'"),
            ("simulate:\n  n_tasks: 2.5\n", "simulate.n_tasks must be an integer, got 2.5"),
            ("embed:\n  hash_seed: abc\n", "embed.hash_seed must be an integer, got 'abc'"),
            ("network:\n  transition_matrix:\n    good:\n      good: x\n",
             "network.transition_matrix.good.good must be a number, got 'x'"),
            ("embed:\n  hash_seed: -1\n", "embed: hash_seed must be in [0, 2**64), got -1"),
            ("embed:\n  hash_seed: 18446744073709551616\n",
             "embed: hash_seed must be in [0, 2**64), got 18446744073709551616"),
            ("network:\n  initial_state: bogus\n",
             "network.initial_state must be one of good, degraded, offline, got 'bogus'"),
            ("simulate:\n  policy: best\n",
             "simulate.policy must be one of all_cloud, all_edge, threshold, mdp, got 'best'"),
            ("simulate:\n  device: tpu\n", "simulate.device must be one of cpu, gpu, got 'tpu'"),
            ("simulate:\n  battery: 3\n", "simulate.battery must be one of low, ok, got 3"),
            ("workload:\n  ranges:\n    refactor:\n      files_min: 5\n      files_max: 1\n",
             "workload.ranges.refactor: ranges must satisfy 0 <= lo <= hi"),
            ("router:\n  discount_gamma: 1.5\n", "router: discount_gamma must be in [0, 1)"),
            ("compare:\n  policies:\n", "compare.policies must be a non-empty list"),
            ("compare:\n  policies:\n    - mdp\n    - mdp\n    - all_edge\n",
             "compare.policies: duplicate policy 'mdp'"),
            ("network:\n  transition_matrix:\n" + MATRIX_ROWS + "    sideways: 3\n",
             "unknown keys in section 'network.transition_matrix': sideways"),
            ("network:\n  transition_matrix:\n" + MATRIX_ROWS.replace("offline: 0.0\n", "offline: 0.0\n      bogus: 7\n", 1),
             "unknown keys in section 'network.transition_matrix.good': bogus"),
            ("router:\n  tolerance: 1.0e-8\n", "unknown keys in section 'router': tolerance"),
            ("simulate:\n  offline_timeout_ms: -5000\n", "simulate: offline_timeout_ms must be > 0, got -5000.0"),
            ("simulate:\n  sub_second_ms: 0\n", "simulate: sub_second_ms must be > 0, got 0.0"),
            ("router:\n  w_latency: 1.0e308\n",
             "router: worst weighted cost / (1 - discount_gamma) must be finite, got inf"),
            ("router:\n  w_latency: 1.0e304\n",
             "router: worst weighted cost / (1 - discount_gamma) must be finite, got inf"),
            ("router:\n  good_rtt_ms: 1.0e308\n",
             "router: worst weighted cost / (1 - discount_gamma) must be finite, got inf"),
            ("router:\n  edge_base_latency_ms:\n    high: 1.0e308\n",
             "router: worst weighted cost / (1 - discount_gamma) must be finite, got inf"),
            ("router:\n  good_rtt_ms: -5\n", "router: good_rtt_ms must be > 0, got -5.0"),
            ("router:\n  degraded_rtt_factor: 0\n", "router: degraded_rtt_factor must be > 0, got 0.0"),
            ("router:\n  cloud_compute_ms:\n    low: -1\n", "router: cloud_compute_ms.low must be >= 0, got -1.0"),
            ("router:\n  cloud_energy_ratio: -1\n", "router: cloud_energy_ratio must be >= 0, got -1.0"),
            ("router:\n  cloud_energy_units:\n    high: -1\n",
             "router: cloud_energy_units.high must be >= 0, got -1.0"),
            ("simulate:\n  n_tasks: 10000001\n", "simulate: n_tasks must be <= 10000000"),
            ("simulate:\n  n_tasks: 1e300\n", "simulate: n_tasks must be <= 10000000"),
            ("embed:\n  wl_iterations: 11\n", "embed: wl_iterations must be in [0, 10], got 11"),
            ("embed:\n  wl_iterations: 1e15\n", "embed: wl_iterations must be in [0, 10], got 1000000000000000"),
            ("workload:\n  ranges:\n    refactor:\n      tokens_max: 1e300\n",
             "workload.ranges.refactor: tokens_max must be <= 922337203685"),
            ("workload:\n  ranges:\n    completion:\n      tokens_max: 1.7976931348623157e308\n",
             "workload.ranges.completion: tokens_max must be <= 922337203685"),
            ("workload:\n  ranges:\n    syntax_fix:\n      files_max: 922337203686\n",
             "workload.ranges.syntax_fix: files_max must be <= 922337203685"),
            ("workload:\n  ranges:\n    crash_analysis:\n      deps_max: 1e19\n",
             "workload.ranges.crash_analysis: deps_max must be <= 922337203685"),
        ],
        ids=["empty", "text", "boolean", "nan", "fraction", "int_text", "matrix_entry", "seed_negative",
             "seed_2_64", "initial_state", "policy", "device", "battery", "kind_ranges", "discount_gamma",
             "policies_empty", "policies_duplicate", "matrix_row", "matrix_row_entry", "tolerance_key",
             "offline_timeout", "sub_second", "w_latency_overflow", "discounted_overflow", "rtt_overflow",
             "edge_latency_overflow", "good_rtt", "rtt_factor", "cloud_compute", "cloud_energy_ratio",
             "cloud_energy_units", "n_tasks_over_bound", "n_tasks_1e300", "wl_iterations_11",
             "wl_iterations_1e15", "tokens_max_1e300", "tokens_max_largest_float", "files_max_over_bound",
             "deps_max_1e19"],
    )
    def test_bad_scalar_exit_two(self, text, message, tmp_path, capsys, monkeypatch):
        assert_config_error_exit_two(text, message, CONFIG_COMMANDS, tmp_path, capsys, monkeypatch)

    def test_range_ends_at_their_bound_run(self, tmp_path, capsys, monkeypatch):
        """Every files, deps and tokens range end at `MAX_RANGE_END` loads,
        and `simulate` and `compare` run on it to a finite report."""
        monkeypatch.chdir(tmp_path)
        ends = "".join(f"      {key}_max: {MAX_RANGE_END}\n" for key in ("files", "deps", "tokens"))
        kinds = ("syntax_fix", "completion", "refactor", "crash_analysis")
        text = "workload:\n  ranges:\n" + "".join(f"    {kind}:\n{ends}" for kind in kinds)
        (tmp_path / "c.yaml").write_text(text + "simulate:\n  n_tasks: 500\n")
        for command in ("simulate", "compare"):
            assert cli_main([*CONFIG_COMMANDS[command], "--config", "c.yaml"]) == 0, command
            out = capsys.readouterr().out
            assert json.loads(out) and "NaN" not in out and "Infinity" not in out, command

    def test_energy_overflow_exit_two(self, tmp_path, capsys, monkeypatch):
        run = "simulate:\n  n_tasks: 100\n  policy: all_edge\n"
        tiny_weight = "router:\n  w_energy: 1.0e-300\n  edge_energy_units:\n"
        huge = tiny_weight + "    low: 1.0e307\n    medium: 1.0e307\n    high: 1.0e307\n"
        message = ("the total energy of 100 tasks overflows a float; lower simulate.n_tasks or the router energy "
                   "settings (edge_energy_units, cloud_energy_units, cloud_energy_ratio)")
        assert_config_error_exit_two(huge + run, message, ("simulate", "compare"), tmp_path, capsys, monkeypatch)
        # The check is the sum itself, not a bound: a total just inside the float range is reported.
        (tmp_path / "c.yaml").write_text(tiny_weight + "    low: 1.0e306\n" + run)
        assert cli_main(["simulate", "--config", "c.yaml", "--out", "r.json"]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"]["total_energy_units"] == 4.9e307

    def test_zero_code_context_prior_exit_two(self, tmp_path, capsys, monkeypatch):
        text = "fusion:\n  priors:\n    code_context: 0\n    ide_interaction: 0.9\n    runtime_log: 0.1\n"
        message = "fusion.priors.code_context must be > 0 for query, which scores only code context"
        assert_config_error_exit_two(text, message, ("query",), tmp_path, capsys, monkeypatch)

    def test_missing_config_exit_three(self, tmp_path, capsys):
        code = cli_main(["simulate", "--config", str(tmp_path / "nope.yaml")])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--n-tasks", "-5", "--out", "out.json"], "must be >= 0"),
            (["simulate", "--seed", "-3", "--out", "out.json"], "must be >= 0"),
            (["compare", "--seed", "-3", "--out", "out.json"], "must be >= 0"),
            (["query", "text", "--top-k", "-1"], "must be >= 0"),
            (["query", "text", "--budget", "-1"], "must be >= 0"),
            (["index", ".", "--max-files", "-1", "--out", "index.bin"], "must be >= 0"),
            (["index", ".", "--parser", "foo", "--out", "index.bin"], "unrecognized arguments: --parser foo"),
            (["simulate", "--n-tasks", "10000001", "--out", "out.json"],
             "argument --n-tasks: n_tasks must be <= 10000000"),
            (["simulate", "--n-tasks", "100000000000000000000", "--out", "out.json"], "argument --n-tasks"),
            (["index", ".", "--ext", "mini", "--out", "index.bin"], "argument --ext: must be a suffix starting with"),
            (["index", ".", "--ext", ".", "--out", "index.bin"], "argument --ext: must be a suffix starting with"),
        ],
        ids=[f"argv{i}" for i in range(11)],
    )
    def test_negative_count_exit_two(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exit_two_as_module(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "devmux", "compare", "--seed", "-3", "--out", str(tmp_path / "c.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_usage_error_exit_two(capsys):
    assert cli_main(["route"]) == 2
    capsys.readouterr()


def test_unknown_command_exit_two(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_choice_lists_the_enum_values(capsys):
    argv = ["route", "--complexity", "bogus", "--device", "cpu", "--network", "good", "--battery", "ok"]
    assert cli_main(argv) == 2
    choices = ", ".join(repr(c.value) for c in Complexity)
    assert f"invalid choice: 'bogus' (choose from {choices})" in capsys.readouterr().err


def test_help_and_usage_errors_repeat_byte_for_byte(capsys):
    """The parser is built once per process and reused; a second call prints
    the same help and the same usage error as the first."""
    outputs = []
    for _ in range(3):
        assert cli_main(["--help"]) == 0
        assert cli_main(["query", "--help"]) == 0
        assert cli_main(["route", "--complexity", "bogus"]) == 2
        assert cli_main(["simulate", "--seed", "-1"]) == 2
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("usage: devmux") and "invalid choice: 'bogus'" in outputs[0].err
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert build_parser() is build_parser()


def test_help_as_module_exit_zero():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "devmux", "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: devmux")


class TestErrorBoundary:
    """Inputs that once escaped `cli_main` as a traceback with exit 1."""

    @pytest.fixture(autouse=True)
    def _workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        write_sources(tmp_path / "somedir", 2)
        (tmp_path / "latin1.yaml").write_bytes(b"simulate:\n  policy: caf\xe9\n")
        (tmp_path / "latin1.xml").write_bytes(b'<Layout><TextView id="caf\xe9"/></Layout>')
        (tmp_path / "seed.yaml").write_text("embed:\n  hash_seed: -1\n")

    ROUTE = ["--complexity", "low", "--device", "cpu", "--network", "good", "--battery", "ok"]

    @pytest.mark.parametrize(
        "argv, code, named",
        [
            (["query", "x", "--index", "somedir"], 3, "somedir"),
            (["route", "--config", "somedir", *ROUTE], 3, "somedir"),
            (["route", "--config", "latin1.yaml", *ROUTE], 2, "latin1.yaml"),
            (["describe-layout", "latin1.xml"], 2, "latin1.xml"),
            (["index", "somedir", "--config", "seed.yaml", "--out", "i.bin"], 2, "embed: hash_seed"),
        ],
        ids=["index_is_dir", "config_is_dir", "config_not_utf8", "layout_not_utf8", "hash_seed_negative"],
    )
    def test_exit_code_and_message(self, argv, code, named, capsys):
        assert cli_main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert len(captured.err.splitlines()) == 1


# Exit codes the README lists for each command.
DOCUMENTED_EXITS = {
    "index": {0, 1, 2, 3},
    "query": {0, 1, 2, 3},
    "describe-layout": {0, 1, 2, 3},
    "route": {0, 2, 3},
    "simulate": {0, 2, 3},
    "compare": {0, 2, 3},
}

# Argument values: small counts, bad numbers, and one path of each kind
# (file, directory, missing, not UTF-8). No count drawn here is large.
VALUE_POOL = ["0", "2", "50", "-1", "abc", "1.5", "ok.yaml", "layout.xml", "dir", "missing.txt", "latin1.txt"]


def _write_workdir(work, index_bytes):
    shutil.rmtree(work, ignore_errors=True)
    (work / "dir").mkdir(parents=True)
    write_sources(work / "dir", 2)
    (work / "ok.yaml").write_text("simulate:\n  n_tasks: 20\n")
    (work / "layout.xml").write_text(BAD_LAYOUT)
    (work / "latin1.txt").write_bytes(b"caf\xe9\n")
    (work / "index.bin").write_bytes(index_bytes)


def _argv_strategy(command):
    """argv for `command` built from its own parser options: positionals and
    required options always, up to three optional ones, values from the pool."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command]._actions if not isinstance(a, argparse._HelpAction)]

    def value(action):
        pool = st.sampled_from(VALUE_POOL)
        return st.one_of(st.sampled_from(action.choices), pool) if action.choices else pool

    def option(action):
        return st.tuples(st.just(action.option_strings[0]), value(action))

    positional = st.tuples(*(value(a) for a in actions if not a.option_strings))
    required = st.tuples(*(option(a) for a in actions if a.option_strings and a.required))
    optional = [option(a) for a in actions if a.option_strings and not a.required]
    optional = st.lists(st.one_of(*optional), max_size=3) if optional else st.just([])
    return st.tuples(positional, required, optional).map(
        lambda parts: [command, *parts[0], *(x for pair in (*parts[1], *parts[2]) for x in pair)]
    )


@pytest.mark.parametrize("command", sorted(DOCUMENTED_EXITS))
def test_any_argv_exits_with_a_documented_code(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_sources(tmp_path, 2)
    assert cli_main(["index", ".", "--out", "index.bin"]) == 0
    index_bytes = (tmp_path / "index.bin").read_bytes()
    work = tmp_path / "work"

    @settings(max_examples=20, deadline=None)
    @given(argv=_argv_strategy(command))
    def run(argv):
        _write_workdir(work, index_bytes)
        os.chdir(work)
        assert cli_main(argv) in DOCUMENTED_EXITS[command], argv

    run()
