"""The columnar simulator against the per-task loop it replaced.

`reference_run` steps one task at a time through the workload columns: it
rates the task with `complexity_indices`, steps the network chain with a
scalar `searchsorted`, checks the battery after every task and aggregates a
list of event-log dicts. Hypothesis drives both over
random chains (zero entries included), drain odds, batteries, device
classes and all-zero energy tables; the reports must be equal, and so must
the events, read back from the event-log writer's lines with `json.loads`.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devmux.routing import (
    COMPLEXITIES,
    NETWORK_STATES,
    TASK_KINDS,
    Action,
    Battery,
    Complexity,
    DeviceClass,
    DeviceProfile,
    NetworkModel,
    NetworkState,
    RouterConfig,
    RoutingState,
    complexity_indices,
    cost_breakdown,
    default_network_model,
)
from devmux.simulate import (
    MetricsReport,
    PolicyKind,
    SimConfig,
    run_simulation,
    solve_policy,
    workload_from_config,
)
from test_simulate import read_event_log


def reference_metrics(events, sub_second_ms):
    n = len(events)
    if n == 0:
        return MetricsReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    latencies = sorted(e["latency_ms"] for e in events)
    return MetricsReport(
        n_tasks=n,
        median_latency_ms=float(np.median(latencies)),
        p95_latency_ms=latencies[max(math.ceil(0.95 * n) - 1, 0)],
        sub_second_fraction=sum(1 for e in events if e["latency_ms"] < sub_second_ms) / n,
        cloud_call_fraction=sum(1 for e in events if e["action"] == Action.CLOUD.value) / n,
        total_energy_units=math.fsum(e["energy_units"] for e in events),
        mean_accuracy_loss=math.fsum(e["accuracy_loss"] for e in events) / n,
        failed_count=sum(1 for e in events if e["failed"]),
    )


def reference_run(workload, config, policy):
    n = len(workload)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
    u_battery = rng.random(n)
    u_network = rng.random(n)

    router = config.router
    transition_cumulative = np.cumsum(router.network.transition_matrix, axis=1)
    network_state = config.initial_network
    battery = config.battery
    max_energy = max(
        max(router.device.edge_energy_units.values()),
        max(router.network.cloud_energy_units.values()),
    )

    events = []
    columns = (workload.arrival_s, workload.kind, workload.files, workload.deps, workload.tokens)
    for i, (arrival_s, kind, files, deps, tokens) in enumerate(zip(*(c.tolist() for c in columns))):
        complexity = COMPLEXITIES[int(complexity_indices(kind, files, deps, tokens))]
        state = RoutingState(complexity, config.device_class, network_state, battery)
        if config.policy is PolicyKind.ALL_EDGE:
            action = Action.EDGE
        elif config.policy is PolicyKind.ALL_CLOUD:
            action = Action.CLOUD
        elif config.policy is PolicyKind.THRESHOLD:
            action = (
                Action.CLOUD
                if complexity is Complexity.HIGH and network_state is not NetworkState.OFFLINE
                else Action.EDGE
            )
        else:
            action = policy.action_for(state)

        failed = action is Action.CLOUD and network_state is NetworkState.OFFLINE
        if failed:
            latency = config.offline_timeout_ms
            energy = router.network.cloud_energy_units[complexity]
            accuracy_loss = 0.0
        else:
            parts = cost_breakdown(router.device, router.network, state, action)
            latency, energy, accuracy_loss = parts.latency_ms, parts.energy_units, parts.accuracy_loss
        events.append({
            "task_id": i, "arrival_s": arrival_s, "kind": TASK_KINDS[kind].value,
            "complexity": complexity.value, "network": network_state.value, "battery": battery.value,
            "action": action.value, "latency_ms": latency, "energy_units": energy,
            "accuracy_loss": accuracy_loss, "failed": failed,
        })

        if battery is Battery.OK and max_energy > 0:
            if u_battery[i] < router.p_drain * (energy / max_energy):
                battery = Battery.LOW
        row = NETWORK_STATES.index(network_state)
        network_state = NETWORK_STATES[
            int(np.searchsorted(transition_cumulative[row], u_network[i], side="right").clip(0, 2))
        ]
    return reference_metrics(events, config.sub_second_ms), events


chain_rows = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(chain_rows, min_size=3, max_size=3),
    p_drain=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
    battery=st.sampled_from(Battery),
    device_class=st.sampled_from(DeviceClass),
    initial=st.sampled_from(NetworkState),
    zero_energy=st.booleans(),
)
@example(n=0, seed=1, rows=[[1, 1, 1]] * 3, p_drain=1.0, battery=Battery.OK,
         device_class=DeviceClass.CPU_ONLY, initial=NetworkState.GOOD, zero_energy=False)
@example(n=1, seed=1, rows=[[1, 1, 1]] * 3, p_drain=1.0, battery=Battery.OK,
         device_class=DeviceClass.CPU_ONLY, initial=NetworkState.GOOD, zero_energy=False)
def test_columnar_run_matches_reference(n, seed, rows, p_drain, battery, device_class, initial,
                                        zero_energy):
    zeros = {c: 0.0 for c in COMPLEXITIES}
    device = DeviceProfile()
    if zero_energy:
        device = replace(device, edge_energy_units=zeros)
    base = default_network_model(device)
    matrix = np.array(rows, dtype=np.float64)
    network = NetworkModel(
        transition_matrix=matrix / matrix.sum(axis=1, keepdims=True),
        rtt_ms=base.rtt_ms,
        cloud_compute_ms=base.cloud_compute_ms,
        cloud_energy_units=zeros if zero_energy else base.cloud_energy_units,
    )
    router = RouterConfig(device=device, network=network, p_drain=p_drain)
    configs = {
        kind: SimConfig(n_tasks=n, seed=seed, policy=kind, router=router, device_class=device_class,
                        battery=battery, initial_network=initial)
        for kind in PolicyKind
    }
    policy = solve_policy(router)
    workload = workload_from_config(configs[PolicyKind.MDP])
    for kind, config in configs.items():
        expected_report, expected_events = reference_run(workload, config, policy)
        report, trace = run_simulation(workload, config, policy)
        assert read_event_log(trace) == expected_events, kind
        assert report == expected_report, kind
