import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import devmux.routing
from devmux.cli import build_parser, cli_main
from devmux.routing import Complexity, value_iteration
from devmux.vindex import RecordMetadata, VectorIndex
from test_vindex import CORRUPTIONS, write_corrupt_index, write_v1

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


# Policy documents `route --policy` must refuse, each made from a valid export.
MALFORMED_POLICIES = {
    "not_a_map": lambda doc: [],
    "states_not_a_list": lambda doc: {**doc, "states": 5},
    "masked_action": lambda doc: {
        **doc,
        "states": [{**e, "action": "cloud"} if e["network"] == "offline" else e for e in doc["states"]],
    },
    "duplicate_state": lambda doc: {**doc, "states": [doc["states"][0], *doc["states"][:1], *doc["states"][2:]]},
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
        assert policy_path.exists()
        first = capsys.readouterr().out
        assert cli_main(args) == 0  # second run loads the saved policy
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES))
    def test_malformed_policy_file_exit_three(self, case, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        args = ["route", "--complexity", "low", "--device", "cpu", "--network", "good",
                "--battery", "ok", "--policy", str(policy_path)]
        assert cli_main(args) == 0
        doc = MALFORMED_POLICIES[case](json.loads(policy_path.read_text()))
        policy_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot load policy" in captured.err


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

    def test_query_missing_index_exit_three(self, capsys):
        code = cli_main(["query", "anything", "--index", "missing.bin"])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS) + ["v1_dim_4", "v2_dim_4"])
    def test_query_on_bad_index_exit_three(self, name, tmp_path, capsys):
        path = tmp_path / "index.bin"
        if name.endswith("_dim_4"):
            index = VectorIndex("h", dim=4)
            index.insert("a.java", np.ones(4), RecordMetadata(path="a.java"))
            (write_v1 if name.startswith("v1") else VectorIndex.save)(index, path)
        else:
            write_corrupt_index(path, name)
        code = cli_main(["query", "class A { }", "--index", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"cannot load index: {path}: ")


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
            ("router:\n  tolerance: nan\n", "router.tolerance must be a number, got 'nan'"),
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
            ("router:\n  tolerance: 0\n", "router: tolerance must be > 0, got 0.0"),
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
            ("router:\n  discount_gamma: 0.999999999\n",
             "router: discount_gamma 0.999999999 may need more than 1000000 value-iteration sweeps to reach "
             "tolerance 1e-08"),
            ("router:\n  good_rtt_ms: -5\n", "router: good_rtt_ms must be > 0, got -5.0"),
            ("router:\n  degraded_rtt_factor: 0\n", "router: degraded_rtt_factor must be > 0, got 0.0"),
            ("router:\n  cloud_compute_ms:\n    low: -1\n", "router: cloud_compute_ms.low must be >= 0, got -1.0"),
            ("router:\n  cloud_energy_ratio: -1\n", "router: cloud_energy_ratio must be >= 0, got -1.0"),
            ("router:\n  cloud_energy_units:\n    high: -1\n",
             "router: cloud_energy_units.high must be >= 0, got -1.0"),
        ],
        ids=["empty", "text", "boolean", "nan", "fraction", "int_text", "matrix_entry", "seed_negative",
             "seed_2_64", "initial_state", "policy", "device", "battery", "kind_ranges", "discount_gamma",
             "policies_empty", "policies_duplicate", "matrix_row", "matrix_row_entry", "tolerance_zero",
             "offline_timeout", "sub_second", "w_latency_overflow", "discounted_overflow", "rtt_overflow",
             "edge_latency_overflow", "gamma_sweeps", "good_rtt", "rtt_factor", "cloud_compute", "cloud_energy_ratio",
             "cloud_energy_units"],
    )
    def test_bad_scalar_exit_two(self, text, message, tmp_path, capsys, monkeypatch):
        assert_config_error_exit_two(text, message, CONFIG_COMMANDS, tmp_path, capsys, monkeypatch)

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


    def test_router_tolerance_honoured_by_every_solver(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text("router:\n  tolerance: 1.0e-2\nsimulate:\n  n_tasks: 20\n")
        sweeps = []

        def counted(mdp, *args, **kwargs):
            policy = value_iteration(mdp, *args, **kwargs)
            sweeps.append(len(policy.delta_history))
            return policy

        monkeypatch.setattr(devmux.routing, "value_iteration", counted)
        out = str(tmp_path / "out.json")
        route = ["route", "--complexity", "low", "--device", "cpu", "--network", "good", "--battery", "ok"]
        assert cli_main(route) == 0  # default tolerance
        assert cli_main([*route, "--config", str(config)]) == 0
        assert cli_main(["simulate", "--config", str(config), "--out", out]) == 0
        assert cli_main(["compare", "--config", str(config), "--out", out]) == 0
        capsys.readouterr()
        default_sweeps, route_sweeps, *sim_sweeps = sweeps
        assert route_sweeps < default_sweeps
        assert sim_sweeps == [route_sweeps, route_sweeps]

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
        ],
        ids=[f"argv{i}" for i in range(7)],
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
