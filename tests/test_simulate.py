import json
import math
import re
import statistics
import struct
import sys

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from devmux.base import ConfigError
from devmux.configfile import RouterConfig, default_network_model
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
    _network_trace,
    compare_policies,
    metrics_from_events,
    run_simulation,
    solve_policy,
    workload_from_config,
)
from devmux.workload import generate_workload


def never_offline_config(**kwargs):
    matrix = np.array([[0.95, 0.05, 0.0], [0.50, 0.50, 0.0], [0.50, 0.50, 0.0]])
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


def event_log_cases(test):
    """The hand-built traces the event-log tests draw (see `hand_built_trace`).

    The explicit examples: every float palette special; every cost
    continuous, so every row of a block is its own shape; and increasing
    arrivals with one NaN, so only the second block holds a non-finite one.
    An example holds up to thousands of rows, so shrinking one takes minutes;
    a failure is reported as drawn."""
    test = example(n=2 * EVENT_BLOCK_ROWS + 3, seed=1, arrival_palette=list(SPECIAL_FLOATS),
                   cost_palettes=[list(SPECIAL_FLOATS)] * 3, p_failed=0.3, nan_arrival_row=None)(test)
    test = example(n=2 * EVENT_BLOCK_ROWS + 3, seed=2, arrival_palette=None,
                   cost_palettes=[None] * 3, p_failed=0.3, nan_arrival_row=None)(test)
    test = example(n=2 * EVENT_BLOCK_ROWS + 3, seed=3, arrival_palette=None,
                   cost_palettes=[[1.5, 2.5]] * 3, p_failed=0.3, nan_arrival_row=EVENT_BLOCK_ROWS + 7)(test)
    test = given(
        n=st.sampled_from([0, 1, EVENT_BLOCK_ROWS - 1, EVENT_BLOCK_ROWS, EVENT_BLOCK_ROWS + 1,
                           2 * EVENT_BLOCK_ROWS + 3]),
        seed=st.integers(0, 2**32 - 1),
        arrival_palette=st.one_of(st.none(), float_palettes),
        cost_palettes=st.lists(st.one_of(float_palettes, st.none()), min_size=3, max_size=3),
        p_failed=st.sampled_from([0.0, 0.3, 1.0]),
        nan_arrival_row=st.one_of(st.none(), st.integers(0, 2 * EVENT_BLOCK_ROWS + 2)),
    )(test)
    return settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])(test)


def hand_built_trace(n, seed, arrival_palette, cost_palettes, p_failed, nan_arrival_row):
    """Hand-built columns. A float column with a palette is drawn from it, so
    blocks repeat values; with no palette the arrivals are increasing, as a
    workload's are, and a cost is continuous. `nan_arrival_row`, when inside
    the trace, makes that row's arrival NaN."""
    rng = np.random.default_rng(seed)

    def column(palette):
        if palette is None:
            return rng.random(n) * 1e4
        return np.array(palette, dtype=np.float64)[rng.integers(0, len(palette), n)]

    if arrival_palette is None:
        arrival = np.cumsum(rng.exponential(0.5, n))
    else:
        arrival = column(arrival_palette)
    if nan_arrival_row is not None and nan_arrival_row < n:
        arrival[nan_arrival_row] = math.nan
    costs = np.stack([column(palette) for palette in cost_palettes], axis=1)
    return SimTrace(
        arrival_s=arrival,
        **{name: rng.integers(0, len(members), n) for name, members in (
            ("kind", TASK_KINDS), ("complexity", COMPLEXITIES), ("network", NETWORK_STATES),
            ("battery", BATTERY_LEVELS), ("action", ACTIONS))},
        latency_ms=costs[:, 0],
        energy_units=costs[:, 1],
        accuracy_loss=costs[:, 2],
        failed=rng.random(n) < p_failed,
    )


@event_log_cases
def test_event_log_matches_json_encoder(n, seed, arrival_palette, cost_palettes, p_failed, nan_arrival_row):
    """The writer's bytes equal the encoder's."""
    trace = hand_built_trace(n, seed, arrival_palette, cost_palettes, p_failed, nan_arrival_row)
    assert "".join(trace.event_log()) == reference_event_log(trace)


@event_log_cases
def test_event_log_yields_whole_lines_per_block(n, seed, arrival_palette, cost_palettes, p_failed,
                                                nan_arrival_row):
    """One chunk per block of `EVENT_BLOCK_ROWS` tasks, each of whole lines;
    an empty trace yields nothing."""
    trace = hand_built_trace(n, seed, arrival_palette, cost_palettes, p_failed, nan_arrival_row)
    chunks = list(trace.event_log())
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert [chunk.count("\n") for chunk in chunks] == [
        min(EVENT_BLOCK_ROWS, n - start) for start in range(0, n, EVENT_BLOCK_ROWS)]


def test_solved_policy_reused():
    config = SimConfig(n_tasks=200, seed=3, policy=PolicyKind.MDP)
    workload = workload_from_config(config)
    policy = solve_policy(config.router)
    report_a, _ = run_simulation(workload, config, policy=policy)
    report_b, _ = run_simulation(workload, config)
    assert report_a == report_b


def walked_network_trace(config, u_network):
    """The chain walked one arrival at a time, as `_network_trace` did before
    its scan: the oracle for the scan."""
    cumulative = np.cumsum(np.asarray(config.router.network.transition_matrix), axis=1)
    last = len(NETWORK_STATES) - 1
    successors = zip(*(np.searchsorted(row, u_network, side="right").clip(0, last).tolist()
                       for row in cumulative))
    state = NETWORK_STATES.index(config.initial_network)
    trace = []
    for step in successors:
        trace.append(state)
        state = step[state]
    return np.array(trace, dtype=np.intp)


# Around every power of two to 2**14 (the scan's rounds), the smallest
# traces and the benchmark's size.
SCAN_LENGTHS = sorted({0, 1, 2, 3, 10_000} | {2**k + d for k in range(1, 15) for d in (-1, 0, 1)})


@pytest.mark.parametrize("matrix", [
    ((0.7, 0.2, 0.1), (0.3, 0.5, 0.2), (0.2, 0.3, 0.5)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, 1.0), (0.1, 0.2, 0.7), (0.0, 1.0, 0.0)),
], ids=["mixing", "absorbing", "deterministic_cycle", "zero_one_rows"])
@pytest.mark.parametrize("on_steps", [False, True], ids=["uniform", "on_steps"])
def test_network_scan_matches_walk(matrix, on_steps):
    """The scan gives the walk's states for every length, initial state and
    chain, including draws that fall exactly on a cumulative step, which
    `searchsorted(side="right")` counts as past it."""
    rng = np.random.default_rng(22)
    u_network = rng.random(SCAN_LENGTHS[-1])
    if on_steps:
        steps = np.unique(np.concatenate(([0.0], np.cumsum(matrix, axis=1).ravel())))
        u_network = np.where(rng.random(len(u_network)) < 0.5, rng.choice(steps, len(u_network)), u_network)
    router = RouterConfig(network=default_network_model(transition_matrix=matrix))
    for initial in NETWORK_STATES:
        config = SimConfig(router=router, initial_network=initial)
        for n in SCAN_LENGTHS:
            expected = walked_network_trace(config, u_network[:n])
            actual = _network_trace(config, u_network[:n])
            assert actual.dtype == expected.dtype and np.array_equal(actual, expected), (initial, n)


def float_bits(value):
    return struct.pack("<d", value)


# Signed zeros, subnormals, the smallest normal, values near the top of the
# float range (2**1023, the largest float and the one below it), infinities
# and NaN; Hypothesis adds arbitrary floats and arbitrary non-negative ones.
SUM_FLOATS = (-0.0, 0.0, 5e-324, 1e-310, sys.float_info.min, 0.1, 1.0, 1e308, 2.0**1023, sys.float_info.max,
              math.nextafter(sys.float_info.max, 0.0), -1e308, math.inf, -math.inf, math.nan)
sum_palettes = st.lists(st.one_of(st.sampled_from(SUM_FLOATS), st.floats(min_value=0.0), st.floats()),
                        min_size=1, max_size=6)


def fsum_outcome(values):
    """`math.fsum` of a column, or the type of the error it raises."""
    try:
        return math.fsum(values.tolist())
    except (OverflowError, ValueError) as err:
        return type(err)


def assert_sums_match_fsum(trace):
    """The report's energy total and mean accuracy loss are bitwise what
    `math.fsum` over the columns gives; where fsum overflows on the energy
    the report is the overflow ConfigError, and where it fails otherwise
    the report fails with the same error."""
    n = len(trace)
    energy = fsum_outcome(trace.energy_units)
    loss = fsum_outcome(trace.accuracy_loss)
    if energy is OverflowError:
        message = (f"the total energy of {n} tasks overflows a float; lower simulate.n_tasks or the router energy "
                   "settings (edge_energy_units, cloud_energy_units, cloud_energy_ratio)")
        with pytest.raises(ConfigError, match=re.escape(message)):
            metrics_from_events(trace)
    elif isinstance(energy, type) or isinstance(loss, type):
        with pytest.raises(energy if isinstance(energy, type) else loss):
            metrics_from_events(trace)
    else:
        report = metrics_from_events(trace)
        assert float_bits(report.total_energy_units) == float_bits(energy)
        assert float_bits(report.mean_accuracy_loss) == float_bits(loss / n)


@settings(max_examples=200, deadline=None)
@example(n=10_000, seed=1, energy_palette=[1e308, 0.0], loss_palette=[0.5])
@example(n=10_000, seed=2, energy_palette=[5e-324, 1e-310, -0.0], loss_palette=[-0.0])
@example(n=10_000, seed=3, energy_palette=[-1e-310, -0.5, -3.0], loss_palette=[0.1, 0.2, 0.3])
@example(n=10_000, seed=4, energy_palette=[1.0, math.inf, math.nan], loss_palette=[math.inf, -math.inf])
@given(
    n=st.one_of(st.sampled_from([1, 2, 10_000]), st.integers(1, 10_000)),
    seed=st.integers(0, 2**32 - 1),
    energy_palette=sum_palettes,
    loss_palette=sum_palettes,
)
def test_report_sums_are_fsum_bitwise(n, seed, energy_palette, loss_palette):
    """Columns of up to 10k values drawn from a palette of at most six."""
    assert_sums_match_fsum(hand_built_trace(n, seed, None, [None, energy_palette, loss_palette], 0.3, None))


@pytest.mark.parametrize("energy", [
    (sys.float_info.max, 2.0**969, math.nextafter(2.0**969, 0.0)),
    (1e308, 1e308, -1e308, -1e308),
    (1e308, math.inf, 1e308),
    (1e308, 1e308, math.inf),
], ids=["rounds_to_max", "mixed_signs", "inf_between", "inf_after"])
def test_report_sums_keep_fsum_overflow(energy):
    """Columns where fsum's overflow depends on the order of the values:
    its running sum overflows although the exact sum rounds to the largest
    float or to 0, and an infinity restarts its running sum."""
    trace = hand_built_trace(len(energy), 5, None, [None, None, [0.25]], 0.0, None)
    trace.energy_units = np.array(energy)
    assert_sums_match_fsum(trace)
