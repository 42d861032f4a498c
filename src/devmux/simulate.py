"""Deterministic routing simulation and paired policy comparison.

Each arriving task observes the current network state (a Markov chain
stepped once per arrival), forms a routing state, and is charged the cost
model's latency/energy/accuracy for the action its policy picks. Random
draws are pre-generated from the seed in a fixed order.

A run is columnar. The network trace depends only on the seed, the chain
and the initial state, never on an action, so it is drawn once: one
inverse-CDF `searchsorted` per chain row, then one walk of the chain. Two
policies run against the same workload therefore see the identical trace
and the paired comparison is exact by construction. Each policy is an
action per dense routing state. Costs, drain odds and the offline mask come
from the same per-state tables the MDP is built from (`routing.cost_table`,
`routing.drain_odds`, `routing.ACTION_MASK`). Battery LOW is absorbing, so
the battery takes two passes: energy is computed as if the battery stayed
ok, the first drain is found, and every later task is recomputed as LOW.
Report sums use `math.fsum`, so report bytes do not depend on the Python
version. `SimTrace.event_log()` writes the event log from the columns in
fixed row blocks: each column of a block is encoded once (enum columns and
repeated costs through tables of pre-encoded values) and the rows fill one
sorted-key template, so the bytes are those of `json.JSONEncoder(sort_keys=True)`
over one dict per task without building the dicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Mapping

import numpy as np

from .base import PolicyKind
from .configfile import SimConfig
from .routing import (
    ACTION_MASK,
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    NETWORK_STATES,
    TASK_KINDS,
    Action,
    Battery,
    Complexity,
    RoutingPolicy,
    all_states,
    build_mdp,
    complexity_indices,
    cost_table,
    drain_odds,
    value_iteration,
)
from .workload import Workload, generate_workload


@dataclass(frozen=True)
class MetricsReport:
    n_tasks: int
    median_latency_ms: float
    p95_latency_ms: float
    sub_second_fraction: float
    cloud_call_fraction: float
    total_energy_units: float
    mean_accuracy_loss: float
    failed_count: int

    def to_dict(self) -> dict:
        return asdict(self)


# Every report field but the task count, in declaration order (the CSV columns).
MetricsReport.NUMERIC_FIELDS = tuple(f.name for f in fields(MetricsReport))[1:]


# Rows the event-log writer formats at a time. A block costs a few numpy
# calls, and its strings are all held at once: at 2,048 rows a 10k-task
# `simulate --events` peaked about 1.5 MB higher than at 1,024.
EVENT_BLOCK_ROWS = 1024
# One event as `json.JSONEncoder(sort_keys=True)` writes it, keys sorted.
_EVENT_ROW = (
    '{"accuracy_loss": %s, "action": %s, "arrival_s": %s, "battery": %s, "complexity": %s, '
    '"energy_units": %s, "failed": %s, "kind": %s, "latency_ms": %s, "network": %s, '
    '"task_id": %s}\n'
)
_encode = json.JSONEncoder().encode
_KINDS, _COMPLEXITIES, _NETWORKS, _BATTERIES, _ACTIONS = (
    np.array([_encode(member.value) for member in members], dtype=object)
    for members in (TASK_KINDS, COMPLEXITIES, NETWORK_STATES, BATTERY_LEVELS, ACTIONS)
)
_BOOLS = np.array(["false", "true"], dtype=object)


def _encode_distinct(values: np.ndarray) -> list[str]:
    """Encode a float64 block once per distinct bit pattern, so -0.0 and 0.0
    (and NaN payloads) are never merged. The patterns are the run starts of
    the sorted int64 view; `np.unique` would import `numpy.ma` to find them."""
    order = np.argsort(values.view(np.int64), kind="stable")
    bits = values.view(np.int64)[order]
    starts = np.concatenate(([True], bits[1:] != bits[:-1]))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    table = np.array([_encode(v) for v in bits[starts].view(np.float64).tolist()], dtype=object)
    return table[inverse].tolist()


@dataclass(eq=False)
class SimTrace:
    """One run's per-task columns, in task order. The enum columns hold
    indices into TASK_KINDS, COMPLEXITIES, NETWORK_STATES, BATTERY_LEVELS
    and ACTIONS; `arrival_s` and the cost columns are float64 and `failed`
    is bool."""

    arrival_s: np.ndarray
    kind: np.ndarray
    complexity: np.ndarray
    network: np.ndarray
    battery: np.ndarray
    action: np.ndarray
    latency_ms: np.ndarray
    energy_units: np.ndarray
    accuracy_loss: np.ndarray
    failed: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)

    def event_log(self) -> Iterator[str]:
        """Yield the JSON Lines event log, one string per block of up to
        `EVENT_BLOCK_ROWS` tasks in task order. Each line is what
        `json.JSONEncoder(sort_keys=True)` writes for the task's dict of
        `task_id` and the columns, enum columns as their values."""
        for start in range(0, len(self), EVENT_BLOCK_ROWS):
            rows = slice(start, start + EVENT_BLOCK_ROWS)
            arrival = self.arrival_s[rows]
            # `float.__repr__` is what json writes for a finite float.
            arrival_text = map(float.__repr__ if np.isfinite(arrival).all() else _encode, arrival.tolist())
            yield "".join(map(_EVENT_ROW.__mod__, zip(
                _encode_distinct(self.accuracy_loss[rows]),
                _ACTIONS[self.action[rows]].tolist(),
                arrival_text,
                _BATTERIES[self.battery[rows]].tolist(),
                _COMPLEXITIES[self.complexity[rows]].tolist(),
                _encode_distinct(self.energy_units[rows]),
                _BOOLS[self.failed[rows].astype(np.intp)].tolist(),
                _KINDS[self.kind[rows]].tolist(),
                _encode_distinct(self.latency_ms[rows]),
                _NETWORKS[self.network[rows]].tolist(),
                map(str, range(start, start + len(arrival))),
            )))


def metrics_from_events(trace: SimTrace, sub_second_ms: float = SimConfig.sub_second_ms) -> MetricsReport:
    """Aggregate a run. Median averages the two middle samples; p95 is the
    smallest latency covering 95% of the mass; sub-second means strictly
    below the threshold; sums are correctly rounded (`math.fsum`)."""
    n = len(trace)
    if n == 0:
        return MetricsReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    latencies = np.sort(trace.latency_ms)
    p95_rank = max(math.ceil(0.95 * n) - 1, 0)
    # What `np.median` gives (NaN sorts last), without its `numpy.ma` import.
    median = latencies[-1] if np.isnan(latencies[-1]) else latencies[(n - 1) // 2:n // 2 + 1].mean()
    return MetricsReport(
        n_tasks=n,
        median_latency_ms=float(median),
        p95_latency_ms=float(latencies[p95_rank]),
        sub_second_fraction=int(np.count_nonzero(trace.latency_ms < sub_second_ms)) / n,
        cloud_call_fraction=int(np.count_nonzero(trace.action == ACTIONS.index(Action.CLOUD))) / n,
        total_energy_units=math.fsum(trace.energy_units.tolist()),
        mean_accuracy_loss=math.fsum(trace.accuracy_loss.tolist()) / n,
        failed_count=int(np.count_nonzero(trace.failed)),
    )


def solve_policy(config: SimConfig) -> RoutingPolicy:
    mdp = build_mdp(config.device, config.network, config.cost, config.complexity_mix, config.p_drain)
    return value_iteration(mdp, config.tolerance)


def workload_from_config(config: SimConfig) -> Workload:
    return generate_workload(config.n_tasks, config.seed, config.workload_spec)


def _network_trace(config: SimConfig, u_network: np.ndarray) -> np.ndarray:
    """Network state index seen by each arrival; the chain steps once per
    arrival by inverse-CDF lookup of that arrival's uniform draw."""
    cumulative = np.cumsum(np.asarray(config.network.transition_matrix), axis=1)
    last = len(NETWORK_STATES) - 1
    # successors[i][r]: the state after arrival i if arrival i saw state r
    successors = zip(*(np.searchsorted(row, u_network, side="right").clip(0, last).tolist()
                       for row in cumulative))
    state = NETWORK_STATES.index(config.initial_network)
    trace = []
    for step in successors:
        trace.append(state)
        state = step[state]
    return np.array(trace, dtype=np.intp)


def _action_table(policy_kind: PolicyKind, policy: RoutingPolicy | None) -> np.ndarray:
    """The policy's action index for every dense routing state."""
    if policy_kind is PolicyKind.MDP:
        return np.asarray(policy.actions, dtype=np.intp)
    if policy_kind is PolicyKind.THRESHOLD:  # cloud for high complexity wherever cloud is legal
        high = np.array([s.complexity is Complexity.HIGH for s in all_states()])
        cloud = high & ACTION_MASK[:, ACTIONS.index(Action.CLOUD)]
    else:
        cloud = np.full(len(ACTION_MASK), policy_kind is PolicyKind.ALL_CLOUD)
    return np.where(cloud, ACTIONS.index(Action.CLOUD), ACTIONS.index(Action.EDGE))


def run_simulation(
    workload: Workload,
    config: SimConfig,
    policy: RoutingPolicy | None = None,
) -> tuple[MetricsReport, SimTrace]:
    """Play a workload through one routing policy.

    The MDP policy is solved from the config when not supplied. A cloud
    decision while offline (reachable only for the all-cloud baseline) is
    recorded as a failed task charged the configured timeout, not a crash.
    """
    if config.policy is PolicyKind.MDP and policy is None:
        policy = solve_policy(config)

    n = len(workload)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
    u_battery = rng.random(n)
    u_network = rng.random(n)

    complexity = complexity_indices(workload.kind, workload.files, workload.deps, workload.tokens)
    network = _network_trace(config, u_network)
    # Dense state index by (complexity, network, battery) on this device.
    state_of = np.array(
        [s.index for s in all_states() if s.device_class is config.device.device_class]
    ).reshape(len(COMPLEXITIES), len(NETWORK_STATES), len(BATTERY_LEVELS))
    actions = _action_table(config.policy, policy)
    costs = cost_table(config.device, config.network)
    costs[~ACTION_MASK, 0] = config.offline_timeout_ms
    to_low = drain_odds(costs, config.p_drain)

    def play(battery: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        state = state_of[complexity, network, battery]
        action = actions[state]
        return state, action, costs[state, action]

    battery = np.full(n, BATTERY_LEVELS.index(config.device.battery), dtype=np.intp)
    state, action, cost = play(battery)
    if config.device.battery is Battery.OK:
        # The battery drains after the first task whose draw falls under its
        # odds; from the next task on it stays low.
        drained = np.flatnonzero(u_battery < to_low[state, action])
        if drained.size:
            battery[drained[0] + 1:] = BATTERY_LEVELS.index(Battery.LOW)
            state, action, cost = play(battery)

    trace = SimTrace(
        arrival_s=workload.arrival_s,
        kind=workload.kind,
        complexity=complexity,
        network=network,
        battery=battery,
        action=action,
        latency_ms=cost[:, 0],
        energy_units=cost[:, 1],
        accuracy_loss=cost[:, 2],
        failed=~ACTION_MASK[state, action],
    )
    return metrics_from_events(trace, config.sub_second_ms), trace


@dataclass(eq=False)
class ComparisonReport:
    baseline: str
    reports: dict[str, MetricsReport]
    deltas: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "reports": {name: r.to_dict() for name, r in self.reports.items()},
            "deltas": self.deltas,
        }

    def csv_rows(self) -> list[list]:
        header = ["policy", "n_tasks", *MetricsReport.NUMERIC_FIELDS]
        rows = [header]
        for name, report in self.reports.items():
            d = report.to_dict()
            rows.append([name, d["n_tasks"], *[d[f] for f in MetricsReport.NUMERIC_FIELDS]])
        return rows


def compare_policies(workload: Workload, configs: Mapping[str, SimConfig]) -> ComparisonReport:
    """Run several policies against one workload and report paired deltas.

    Every config must carry the workload's seed, so every policy replays the
    same network and battery draws; the first entry is the delta baseline.
    """
    if not configs:
        raise ValueError("need at least one policy config")
    for name, config in configs.items():
        if config.seed != workload.seed:
            raise ValueError(f"config {name!r} seed {config.seed} != workload seed {workload.seed}")

    reports = {name: run_simulation(workload, config)[0] for name, config in configs.items()}
    baseline_name = next(iter(configs))
    baseline = reports[baseline_name].to_dict()
    deltas = {}
    for name, report in reports.items():
        d = report.to_dict()
        deltas[name] = {f: d[f] - baseline[f] for f in MetricsReport.NUMERIC_FIELDS}
    return ComparisonReport(baseline=baseline_name, reports=reports, deltas=deltas)
