import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from devmux.routing import (
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    NETWORK_STATES,
    TASK_KINDS,
    Action,
    NetworkState,
)
from devmux.simulate import (
    EVENT_BLOCK_ROWS,
    ComparisonReport,
    MetricsReport,
    PolicyKind,
    SimConfig,
    SimTrace,
    compare_policies,
    metrics_from_events,
    run_simulation,
    solve_policy,
    workload_from_config,
)
from devmux.workload import generate_workload


def never_offline_config(**kwargs):
    matrix = np.array([[0.95, 0.05, 0.0], [0.50, 0.50, 0.0], [0.50, 0.50, 0.0]])
    from devmux.configfile import RouterConfig, default_network_model

    network = default_network_model(transition_matrix=matrix)
    return SimConfig(router=RouterConfig(network=network), **kwargs)


def read_event_log(trace):
    """The writer's event log parsed back into one dict per task."""
    return [json.loads(line) for line in "".join(trace.event_log()).splitlines()]


def run_events(config):
    report, trace = run_simulation(workload_from_config(config), config)
    return report, read_event_log(trace)


def oracle_metrics(events, sub_second_ms=1000.0):
    """Independent aggregation pass over the raw event log."""
    n = len(events)
    latencies = sorted(e["latency_ms"] for e in events)
    p95 = latencies[max(math.ceil(0.95 * n) - 1, 0)]
    return {
        "n_tasks": n,
        "median_latency_ms": statistics.median(latencies),
        "p95_latency_ms": p95,
        "sub_second_fraction": len([e for e in events if e["latency_ms"] < sub_second_ms]) / n,
        "cloud_call_fraction": len([e for e in events if e["action"] == Action.CLOUD.value]) / n,
        "total_energy_units": math.fsum(e["energy_units"] for e in events),
        "mean_accuracy_loss": math.fsum(e["accuracy_loss"] for e in events) / n,
        "failed_count": len([e for e in events if e["failed"]]),
    }


def test_all_edge_makes_no_cloud_calls():
    config = SimConfig(n_tasks=400, seed=5, policy=PolicyKind.ALL_EDGE)
    report, events = run_events(config)
    assert report.cloud_call_fraction == 0.0
    assert all(e["action"] == Action.EDGE.value for e in events)


def test_all_cloud_without_offline_is_all_cloud():
    config = never_offline_config(n_tasks=400, seed=5, policy=PolicyKind.ALL_CLOUD)
    report, events = run_events(config)
    assert report.cloud_call_fraction == 1.0
    assert report.failed_count == 0
    assert all(e["network"] != NetworkState.OFFLINE.value for e in events)


def test_all_cloud_offline_tasks_fail_with_timeout():
    config = SimConfig(n_tasks=2_000, seed=9, policy=PolicyKind.ALL_CLOUD)
    report, events = run_events(config)
    offline_events = [e for e in events if e["network"] == NetworkState.OFFLINE.value]
    assert offline_events, "expected some offline arrivals under the default chain"
    assert all(e["failed"] and e["latency_ms"] == config.offline_timeout_ms for e in offline_events)
    assert report.failed_count == len(offline_events)


def test_mdp_never_uses_cloud_while_offline():
    config = SimConfig(n_tasks=3_000, seed=13, policy=PolicyKind.MDP)
    _, events = run_events(config)
    for event in events:
        if event["network"] == NetworkState.OFFLINE.value:
            assert event["action"] == Action.EDGE.value
    assert not any(e["failed"] for e in events)


def test_metrics_match_independent_aggregation():
    config = SimConfig(n_tasks=1_500, seed=21, policy=PolicyKind.MDP)
    report, events = run_events(config)
    expected = oracle_metrics(events, config.sub_second_ms)
    actual = report.to_dict()
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, abs=0.0), key


def test_simulation_deterministic():
    config_a = SimConfig(n_tasks=800, seed=42)
    config_b = SimConfig(n_tasks=800, seed=42)
    report_a, events_a = run_events(config_a)
    report_b, events_b = run_events(config_b)
    assert report_a == report_b
    assert events_a == events_b


def test_empty_workload_report_is_zeroed():
    config = SimConfig(n_tasks=0, seed=1, policy=PolicyKind.ALL_EDGE)
    report, events = run_events(config)
    assert events == []
    assert report == MetricsReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)


def test_mdp_seed42_beats_targets():
    workload = generate_workload(10_000, seed=42)
    mdp_config = SimConfig(n_tasks=10_000, seed=42, policy=PolicyKind.MDP)
    cloud_config = SimConfig(n_tasks=10_000, seed=42, policy=PolicyKind.ALL_CLOUD)
    mdp_report, _ = run_simulation(workload, mdp_config)
    cloud_report, _ = run_simulation(workload, cloud_config)
    assert mdp_report.cloud_call_fraction <= 0.5 * cloud_report.cloud_call_fraction
    assert mdp_report.sub_second_fraction >= 0.85


class TestCompare:
    POLICIES = [PolicyKind.ALL_CLOUD, PolicyKind.ALL_EDGE, PolicyKind.THRESHOLD, PolicyKind.MDP]

    def test_self_comparison_zero_deltas(self):
        report = compare_policies(SimConfig(n_tasks=300, seed=8), [PolicyKind.MDP, PolicyKind.ALL_EDGE])
        assert report.baseline == "mdp"
        assert all(v == 0.0 for v in report.deltas["mdp"].values())

    def test_accuracy_loss_split(self):
        report = compare_policies(SimConfig(n_tasks=500, seed=42), self.POLICIES)
        assert report.reports["all_cloud"].mean_accuracy_loss == 0.0
        assert report.reports["all_edge"].mean_accuracy_loss > 0.0

    def test_mdp_reduces_cloud_calls(self):
        report = compare_policies(SimConfig(n_tasks=500, seed=42), self.POLICIES)
        assert (
            report.reports["mdp"].cloud_call_fraction
            < report.reports["all_cloud"].cloud_call_fraction
        )
        assert report.deltas["mdp"]["cloud_call_fraction"] < 0.0  # baseline is all_cloud

    @pytest.mark.parametrize("policies, message", [
        ([], "need at least one policy"),
        (["mdp", "all_edge", "mdp"], "duplicate policy 'mdp'"),
    ], ids=["empty", "duplicate"])
    def test_bad_policy_list_rejected(self, policies, message):
        with pytest.raises(ValueError, match=message):
            compare_policies(SimConfig(n_tasks=100, seed=42), policies)

    def test_csv_rows_one_per_policy(self):
        report = compare_policies(SimConfig(n_tasks=120, seed=42), self.POLICIES)
        rows = report.csv_rows()
        assert rows[0][0] == "policy"
        assert [r[0] for r in rows[1:]] == ["all_cloud", "all_edge", "threshold", "mdp"]


def reference_event_log(trace):
    """The event log as one dict per task through `json.JSONEncoder`, the
    writer `SimTrace.event_log` replaced; its bytes are the oracle."""
    encode = json.JSONEncoder(sort_keys=True).encode
    kinds, complexities, networks, batteries, actions = (
        [member.value for member in members]
        for members in (TASK_KINDS, COMPLEXITIES, NETWORK_STATES, BATTERY_LEVELS, ACTIONS)
    )
    columns = (
        trace.arrival_s, trace.kind, trace.complexity, trace.network, trace.battery, trace.action,
        trace.latency_ms, trace.energy_units, trace.accuracy_loss, trace.failed,
    )
    return "".join(
        encode({
            "task_id": task_id, "arrival_s": arrival, "kind": kinds[k], "complexity": complexities[c],
            "network": networks[net], "battery": batteries[b], "action": actions[a],
            "latency_ms": latency, "energy_units": energy, "accuracy_loss": loss, "failed": failed,
        }) + "\n"
        for task_id, (arrival, k, c, net, b, a, latency, energy, loss, failed) in enumerate(
            zip(*(column.tolist() for column in columns))
        )
    )


# -0.0 and 0.0, two subnormals, values that float repr writes in exponent
# notation (1e16, 1e-7), non-finite values and a NaN with the sign bit set;
# Hypothesis adds arbitrary floats.
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e-310, 1e16, 1e-7, 0.1, math.inf, -math.inf, math.nan, -math.nan)
float_palettes = st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=6)


# An example holds up to thousands of rows, so shrinking one takes minutes; a
# failure is reported as drawn.
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    n=st.sampled_from([0, 1, EVENT_BLOCK_ROWS - 1, EVENT_BLOCK_ROWS, EVENT_BLOCK_ROWS + 1,
                       2 * EVENT_BLOCK_ROWS + 3]),
    seed=st.integers(0, 2**32 - 1),
    arrival_palette=st.one_of(st.none(), float_palettes),
    cost_palettes=st.lists(float_palettes, min_size=3, max_size=3),
    p_failed=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(n=2 * EVENT_BLOCK_ROWS + 3, seed=1, arrival_palette=list(SPECIAL_FLOATS),
         cost_palettes=[list(SPECIAL_FLOATS)] * 3, p_failed=0.3)
def test_event_log_matches_json_encoder(n, seed, arrival_palette, cost_palettes, p_failed):
    """Hand-built columns, each float column drawn from a small palette so
    blocks repeat values; with no palette the arrivals are increasing, as a
    workload's are. The writer's bytes equal the encoder's."""
    rng = np.random.default_rng(seed)

    def column(palette):
        return np.array(palette, dtype=np.float64)[rng.integers(0, len(palette), n)]

    if arrival_palette is None:
        arrival = np.cumsum(rng.exponential(0.5, n))
    else:
        arrival = column(arrival_palette)
    costs = np.stack([column(palette) for palette in cost_palettes], axis=1)
    trace = SimTrace(
        arrival_s=arrival,
        **{name: rng.integers(0, len(members), n) for name, members in (
            ("kind", TASK_KINDS), ("complexity", COMPLEXITIES), ("network", NETWORK_STATES),
            ("battery", BATTERY_LEVELS), ("action", ACTIONS))},
        latency_ms=costs[:, 0],
        energy_units=costs[:, 1],
        accuracy_loss=costs[:, 2],
        failed=rng.random(n) < p_failed,
    )
    assert "".join(trace.event_log()) == reference_event_log(trace)


def test_solved_policy_reused():
    config = SimConfig(n_tasks=200, seed=3, policy=PolicyKind.MDP)
    workload = workload_from_config(config)
    policy = solve_policy(config.router)
    report_a, _ = run_simulation(workload, config, policy=policy)
    report_b, _ = run_simulation(workload, config)
    assert report_a == report_b
