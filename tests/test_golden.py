"""Stored SHA-256 goldens of the route, simulate and compare output bytes.

Event logs, simulate reports and compare reports for seeds 42-51 under four
configs (default, GPU device, an often-offline network, a low battery) and
all four policies must hash to the stored values: "same inputs, same bytes"
has to hold across refactors, not only between two runs of one build. The
route golden pins the solved policy itself: for the default config,
`test_config.py`'s `SAMPLE` and the often-offline network, the
`route --policy` file (actions and values of all 36 states), the `route`
stdout over every state and the `router_fingerprint()`.

After a deliberate, documented byte change, rewrite both goldens with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from devmux.cli import cli_main
from devmux.configfile import load_config
from devmux.routing import all_states
from test_config import SAMPLE

GOLDEN = Path(__file__).with_name("golden") / "sim_sha256.json"
ROUTE_GOLDEN = GOLDEN.with_name("route_sha256.json")
N_TASKS = 1_000
SEEDS = range(42, 52)
POLICIES = ("all_cloud", "all_edge", "threshold", "mdp")
FLAKY_NETWORK = (
    "network:\n  transition_matrix:\n"
    "    good:\n      good: 0.55\n      degraded: 0.15\n      offline: 0.30\n"
    "    degraded:\n      good: 0.30\n      degraded: 0.35\n      offline: 0.35\n"
    "    offline:\n      good: 0.25\n      degraded: 0.15\n      offline: 0.60\n"
)
# name -> (extra `simulate:` keys, extra top-level config text)
CONFIGS = {
    "default": ({}, ""),
    "gpu": ({"device": "gpu"}, ""),
    "flaky": ({}, FLAKY_NETWORK),
    "battery_low": ({"battery": "low"}, ""),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, name: str, **sim) -> None:
    sim_keys, extra = CONFIGS[name]
    lines = ["simulate:", *(f"  {k}: {v}" for k, v in {**sim_keys, **sim}.items())]
    path.write_text("\n".join(lines) + "\n" + extra, encoding="utf-8")


def collect_hashes(directory: Path, n_tasks: int = N_TASKS) -> dict:
    """Run the CLI over the whole matrix and hash every output file."""
    out = {"n_tasks": n_tasks, "events": {}, "reports": {}, "compare": {}}
    config, report, events = directory / "c.yaml", directory / "report.json", directory / "events.jsonl"
    for name in CONFIGS:
        for policy in POLICIES:
            _write_config(config, name, policy=policy)
            for seed in SEEDS:
                key = f"{name}/{policy}/{seed}"
                code = cli_main(["simulate", "--config", str(config), "--seed", str(seed),
                                 "--n-tasks", str(n_tasks), "--out", str(report),
                                 "--events", str(events)])
                assert code == 0, key
                out["events"][key] = _sha256(events)
                out["reports"][key] = _sha256(report)
        _write_config(config, name, n_tasks=n_tasks)
        for seed in SEEDS:
            code = cli_main(["compare", "--config", str(config), "--seed", str(seed), "--out", str(report)])
            assert code == 0, f"{name}/{seed}"
            out["compare"][f"{name}/{seed}"] = _sha256(report)
    return out


# name -> config file text for the route golden
ROUTE_CONFIGS = {"default": "", "sample": SAMPLE, "flaky": FLAKY_NETWORK}


def collect_route_hashes(directory: Path) -> dict:
    """Solve each route config, hash its policy file and the route lines of
    every state, and record its router fingerprint."""
    out = {}
    config, policy = directory / "route.yaml", directory / "policy.json"
    for name, text in ROUTE_CONFIGS.items():
        config.write_text(text, encoding="utf-8")
        policy.unlink(missing_ok=True)
        stdout = hashlib.sha256()
        for state in all_states():
            argv = ["route", "--config", str(config), "--policy", str(policy),
                    "--complexity", state.complexity.value, "--device", state.device_class.value,
                    "--network", state.network.value, "--battery", state.battery.value]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert cli_main(argv) == 0, f"{name}/{state}"
            stdout.update(buffer.getvalue().encode("utf-8"))
        out[name] = {
            "fingerprint": load_config(str(config)).router_fingerprint(),
            "policy": _sha256(policy),
            "stdout": stdout.hexdigest(),
        }
    return out


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return collect_hashes(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", ["events", "reports", "compare"])
def test_outputs_match_golden(hashes, golden, section):
    assert hashes["n_tasks"] == golden["n_tasks"]
    mismatched = sorted(k for k in golden[section] if hashes[section].get(k) != golden[section][k])
    assert set(hashes[section]) == set(golden[section])
    assert not mismatched, f"{len(mismatched)} {section} differ, first: {mismatched[:5]}"


def test_route_matches_golden(tmp_path):
    golden = json.loads(ROUTE_GOLDEN.read_text(encoding="utf-8"))
    assert collect_route_hashes(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for path, collect in ((GOLDEN, collect_hashes), (ROUTE_GOLDEN, collect_route_hashes)):
            path.write_text(json.dumps(collect(Path(tmp)), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path}")
