"""Deterministic routing simulation and paired policy comparison.

Each arriving task observes the current network state (a Markov chain
stepped once per arrival), forms a routing state, and is charged the cost
model's latency/energy/accuracy for the action its policy picks. Random
draws are pre-generated from the seed in a fixed order.

A run is columnar, with no Python loop over tasks, and takes two steps. The
replay computes everything that depends on the workload and config alone,
never on an action: the seeded draws, task complexities, the network trace,
each task's dense routing state at the starting battery, the cost table
with the offline timeout and the drain odds. For the network trace, each
arrival's inverse-CDF lookups in the chain's rows code its successor map
(one of 27 for 3 states); a Hillis-Steele scan composes the maps into
prefixes in log2(n) rounds of lookups in a composition table, and arrival i
sees the initial state moved by the maps of the arrivals before it. The
play step runs one policy, an action per dense routing state, through it:
each task gets one flat `state * n_actions + action` cell, and its drain
odds, costs and `failed` flag are one `take` each from the raveled tables.
The routing tables come from `routing`, the module the MDP is built and
solved in: the dense state layout (`routing.state_index`),
`routing.cost_table`, `routing.drain_odds`, `routing.ACTION_MASK` and the
solve itself (`routing.solve_policy`). `compare_policies` replays the
workload once and plays each of its distinct policies through that replay,
so the paired comparison shares its random numbers by construction. Battery
LOW is absorbing, so the battery takes two passes: the drain odds are read
as if the battery stayed ok, the first drain is found, and every later task
moves to its low state (its ok state minus one, as battery is the innermost
digit of the dense state) and takes its action and cell again. The report
sums energy and accuracy loss exactly from their distinct values and counts
and rounds once, so the sums are bitwise `math.fsum`'s and do not depend on
the Python version.
`SimTrace.event_log()` writes the event log from the columns in fixed row
blocks. In sorted-key order a row is a head fragment, its arrival time, a
middle fragment and its task id; the fragments hold every other field, so
the writer gives each row of a block a shape code (its enum columns and the
bit patterns of its costs), fills the two fragments once per distinct shape
of the block and joins the rows from them. The bytes are those of
`json.JSONEncoder(sort_keys=True)` over one dict per task without building
the dicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .base import ConfigError, PolicyKind
from .configfile import SimConfig
from .routing import (
    ACTION_MASK,
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    DEVICE_CLASSES,
    NETWORK_STATES,
    TASK_KINDS,
    Action,
    Battery,
    Complexity,
    RoutingPolicy,
    all_states,
    complexity_indices,
    cost_table,
    drain_odds,
    solve_policy,
    state_index,
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
# One event as `json.JSONEncoder(sort_keys=True)` writes it, keys sorted, is
# `head + arrival_s + middle + task_id + "}\n"`: every field but the two
# per-task ones is in a fragment filled once per row shape.
_EVENT_HEAD = '{"accuracy_loss": %s, "action": %s, "arrival_s": '
_EVENT_MIDDLE = (', "battery": %s, "complexity": %s, "energy_units": %s, "failed": %s, "kind": %s, '
                 '"latency_ms": %s, "network": %s, "task_id": ')
_encode = json.JSONEncoder().encode
_KINDS, _COMPLEXITIES, _NETWORKS, _BATTERIES, _ACTIONS = (
    np.array([_encode(member.value) for member in members], dtype=object)
    for members in (TASK_KINDS, COMPLEXITIES, NETWORK_STATES, BATTERY_LEVELS, ACTIONS)
)
_BOOLS = np.array(["false", "true"], dtype=object)

# A successor map of the network chain (the state after an arrival, for each
# state it saw) is coded as the base-3 number whose digit r is the image of
# state r, so 3 states have 27 maps. _MAP_IMAGE[code, r] is that digit and
# _MAP_THEN[a * 27 + b] the code of map a followed by map b.
_MAP_WEIGHTS = len(NETWORK_STATES) ** np.arange(len(NETWORK_STATES))
_MAP_IMAGE = np.arange(len(NETWORK_STATES) ** len(NETWORK_STATES))[:, None] // _MAP_WEIGHTS % len(NETWORK_STATES)
_MAP_THEN = (_MAP_IMAGE[np.arange(len(_MAP_IMAGE))[:, None], _MAP_IMAGE[:, None, :]] @ _MAP_WEIGHTS).ravel()


def _float_text(values: np.ndarray) -> Iterator[str]:
    """A float64 block as json writes it: `float.__repr__` when every value
    is finite, else the encoder (NaN, Infinity)."""
    return map(float.__repr__ if np.isfinite(values).all() else _encode, values.tolist())


def _classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number an int64 block by distinct value: each row's class id (the
    rank of its value) and the distinct values, ascending. They are the run
    starts of the sorted block; `np.unique` would import `numpy.ma` to find
    them."""
    ordered = np.sort(values)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return np.searchsorted(distinct, values), distinct


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
            kind, complexity, network, battery, action, failed, latency, energy, loss = (
                column[rows] for column in (self.kind, self.complexity, self.network, self.battery, self.action,
                                            self.failed, self.latency_ms, self.energy_units, self.accuracy_loss))
            # A row's shape: the enum columns, `failed` and the bit-pattern
            # class of each cost, so -0.0/0.0 and NaN payloads stay apart.
            # Coded per block: enums < 288 and ids < 1,024 keep a code < 288 * 1024**3; a whole-run one can overflow.
            code = kind.astype(np.int64)
            for column, size in ((complexity, len(COMPLEXITIES)), (network, len(NETWORK_STATES)),
                                 (battery, len(BATTERY_LEVELS)), (action, len(ACTIONS)), (failed, 2)):
                code = code * size + column
            for cost in (latency, energy, loss):
                ids, distinct = _classes(cost.view(np.int64))
                code = code * len(distinct) + ids
            shape, distinct = _classes(code)
            # A row of each shape; any will do, as its fields are the shape's.
            samples = np.empty(len(distinct), dtype=np.intp)
            samples[shape] = np.arange(len(shape))
            heads = np.array(list(map(_EVENT_HEAD.__mod__, zip(
                _float_text(loss[samples]),
                _ACTIONS[action[samples]].tolist(),
            ))), dtype=object)
            middles = np.array(list(map(_EVENT_MIDDLE.__mod__, zip(
                _BATTERIES[battery[samples]].tolist(),
                _COMPLEXITIES[complexity[samples]].tolist(),
                _float_text(energy[samples]),
                _BOOLS[failed[samples].astype(np.intp)].tolist(),
                _KINDS[kind[samples]].tolist(),
                _float_text(latency[samples]),
                _NETWORKS[network[samples]].tolist(),
            ))), dtype=object)
            out = ["}\n"] * (5 * len(arrival))
            out[0::5] = heads[shape].tolist()
            out[1::5] = _float_text(arrival)
            out[2::5] = middles[shape].tolist()
            out[3::5] = map(str, range(start, start + len(arrival)))
            yield "".join(out)


def _exact_sum(values: np.ndarray) -> float:
    """`math.fsum(values.tolist())`, bitwise, from the distinct values and
    their counts: the exact sum over their common power-of-two denominator,
    rounded once by int division. A column with a non-finite value or with
    values of both signs, or whose sum reaches 2**1023 in size, goes through
    `math.fsum` itself: there its overflow, inf and NaN handling depend on the
    order of the values. No run gives such a column short of overflowing."""
    ordered = np.sort(values)
    low, high = ordered[0], ordered[-1]
    if np.isfinite(low) and np.isfinite(high) and (low >= 0 or high <= 0):
        # The runs of equal values: run k is ordered[bounds[k]:bounds[k + 1]].
        bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(ordered)]
        ratios = [value.as_integer_ratio() for value in ordered[bounds[:-1]].tolist()]
        scale = max(denominator for _, denominator in ratios)
        total = sum((end - start) * numerator * (scale // denominator)
                    for start, end, (numerator, denominator) in zip(bounds, bounds[1:], ratios))
        if abs(total) < scale << 1023:
            return total / scale
    return math.fsum(values.tolist())


def metrics_from_events(trace: SimTrace, sub_second_ms: float = SimConfig.sub_second_ms) -> MetricsReport:
    """Aggregate a run. Median averages the two middle samples; p95 is the
    smallest latency covering 95% of the mass; sub-second means strictly
    below the threshold. Energy and accuracy loss are summed exactly from
    their distinct values and counts and rounded once, bitwise what
    `math.fsum` gives. A total energy past the float range is a ConfigError."""
    n = len(trace)
    if n == 0:
        return MetricsReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    try:
        total_energy = _exact_sum(trace.energy_units)
    except OverflowError:
        raise ConfigError(f"the total energy of {n} tasks overflows a float; lower simulate.n_tasks or the router "
                          "energy settings (edge_energy_units, cloud_energy_units, cloud_energy_ratio)") from None
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
        total_energy_units=total_energy,
        mean_accuracy_loss=_exact_sum(trace.accuracy_loss) / n,
        failed_count=int(np.count_nonzero(trace.failed)),
    )


def workload_from_config(config: SimConfig) -> Workload:
    return generate_workload(config.n_tasks, config.seed, config.workload_spec)


def _network_trace(config: SimConfig, u_network: np.ndarray) -> np.ndarray:
    """Network state index seen by each arrival; the chain steps once per
    arrival by inverse-CDF lookup of that arrival's uniform draw.

    Each arrival's lookups in every row code its successor map; a
    Hillis-Steele scan composes the maps into prefixes in log2(n) rounds,
    and arrival i sees the state that the maps of arrivals 0 to i-1 take
    the initial state to."""
    cumulative = np.cumsum(np.asarray(config.router.network.transition_matrix), axis=1)
    # Digit r of maps[i] is `searchsorted(cumulative[r], u, side="right")`
    # clipped to the last state: how many of the row's cumulative entries but
    # the last are at or below the draw (a row's cumsum never falls).
    maps = np.zeros(len(u_network), dtype=np.intp)
    for weight, row in zip(_MAP_WEIGHTS.tolist(), cumulative):
        for step in row[:-1]:
            maps += (u_network >= step) * weight
    shift = 1
    while shift < len(maps):  # maps[i] becomes the maps of arrivals max(i - 2 * shift + 1, 0) to i composed
        maps[shift:] = _MAP_THEN.take(maps[:-shift] * len(_MAP_IMAGE) + maps[shift:])
        shift *= 2
    start = NETWORK_STATES.index(config.initial_network)
    trace = np.full(len(maps), start, dtype=np.intp)
    trace[1:] = _MAP_IMAGE[:, start].take(maps[:-1])
    return trace


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


def _replay(workload: Workload, config: SimConfig) -> Callable[[np.ndarray], tuple[MetricsReport, SimTrace]]:
    """Compute what a run takes from the workload and config alone; return
    `play`, which runs one action table through it (see the module docstring)."""
    n = len(workload)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
    u_battery = rng.random(n)
    u_network = rng.random(n)

    complexity = complexity_indices(workload.kind, workload.files, workload.deps, workload.tokens)
    network = _network_trace(config, u_network)
    state = state_index(complexity, DEVICE_CLASSES.index(config.device_class), network,
                        BATTERY_LEVELS.index(config.battery))
    costs = cost_table(config.router.device, config.router.network)
    costs[~ACTION_MASK, 0] = config.offline_timeout_ms
    # Flat tables over the cells `state * n_actions + action`.
    to_low = drain_odds(costs, config.router.p_drain).ravel()
    latency_ms, energy_units, accuracy_loss = costs.reshape(-1, 3).T.copy()
    illegal = ~ACTION_MASK.ravel()
    # A drained task's state is its ok state minus this (battery is the innermost digit of the dense state).
    low_offset = BATTERY_LEVELS.index(Battery.OK) - BATTERY_LEVELS.index(Battery.LOW)

    def play(actions: np.ndarray) -> tuple[MetricsReport, SimTrace]:
        action = actions.take(state)
        cell = state * len(ACTIONS) + action
        battery = np.full(n, BATTERY_LEVELS.index(config.battery), dtype=np.intp)
        if config.battery is Battery.OK:
            # The battery drains after the first task whose draw falls under
            # its odds; from the next task on it stays low.
            drained = np.flatnonzero(u_battery < to_low.take(cell))
            if drained.size:
                tail = slice(drained[0] + 1, None)
                low = state[tail] - low_offset
                action[tail] = actions.take(low)
                cell[tail] = low * len(ACTIONS) + action[tail]
                battery[tail] = BATTERY_LEVELS.index(Battery.LOW)

        trace = SimTrace(
            arrival_s=workload.arrival_s,
            kind=workload.kind,
            complexity=complexity,
            network=network,
            battery=battery,
            action=action,
            latency_ms=latency_ms.take(cell),
            energy_units=energy_units.take(cell),
            accuracy_loss=accuracy_loss.take(cell),
            failed=illegal.take(cell),
        )
        return metrics_from_events(trace, config.sub_second_ms), trace

    return play


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
        policy = solve_policy(config.router)
    return _replay(workload, config)(_action_table(config.policy, policy))


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


def compare_policies(config: SimConfig, policies: Sequence[str]) -> ComparisonReport:
    """Play several policies through one replay of the config's workload and
    report paired deltas; `config.policy` is ignored.

    Every policy sees the same draws, network trace and costs, so the deltas
    come from the policies alone. Report keys are the policy values and the
    first policy is the delta baseline.
    """
    kinds = [PolicyKind(p) for p in policies]
    if not kinds:
        raise ValueError("need at least one policy")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"duplicate policy {kind.value!r}")

    play = _replay(workload_from_config(config), config)
    mdp = solve_policy(config.router) if PolicyKind.MDP in kinds else None
    reports = {kind.value: play(_action_table(kind, mdp))[0] for kind in kinds}
    baseline = reports[kinds[0].value]
    deltas = {name: {f: getattr(report, f) - getattr(baseline, f) for f in MetricsReport.NUMERIC_FIELDS}
              for name, report in reports.items()}
    return ComparisonReport(baseline=kinds[0].value, reports=reports, deltas=deltas)
