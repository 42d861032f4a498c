"""The broadcast `cost_table` and `build_mdp` against per-state loops.

`reference_cost` prices one state and action from the device and network
records, with the rule for a masked cell; `test_sim_reference` prices its
tasks with it too. `reference_mdp` walks every state and action: it prices
the action with `reference_cost`, skips cloud while offline, scales the
battery drain odds by the largest energy of either side, and adds one
transition term per next complexity, network and battery, skipping terms
that are zero. Hypothesis draws device, network and cost tables (zeros
included), chains and mixes with zero entries, and drain odds; the cost
table, the legal rewards, the transitions and the mask must be the same
bits, over both device classes.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.routing import (
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    DEVICE_CLASSES,
    NETWORK_STATES,
    Action,
    Battery,
    CostModel,
    DeviceClass,
    DeviceProfile,
    NetworkModel,
    NetworkState,
    build_mdp,
    cost_table,
)
from devmux.configfile import RouterConfig

# Every (complexity, device, network, battery) in dense state order.
STATES = tuple(itertools.product(COMPLEXITIES, DEVICE_CLASSES, NETWORK_STATES, BATTERY_LEVELS))


def reference_cost(device, network, complexity, device_class, network_state, action):
    """(latency, energy, accuracy loss) of running a task of `complexity`
    on `device_class` under `network_state` by `action`. Cloud cannot run
    offline: that cell holds NaN latency, the cloud energy and no loss."""
    if action is Action.EDGE:
        latency = device.edge_base_latency_ms[complexity]
        if device_class is DeviceClass.CPU_ONLY:
            latency = latency * device.cpu_latency_multiplier
        return latency, device.edge_energy_units[complexity], device.edge_accuracy_loss[complexity]
    if network_state is NetworkState.OFFLINE:
        return float("nan"), network.cloud_energy_units[complexity], 0.0
    latency = network.rtt_ms[network_state] + network.cloud_compute_ms[complexity]
    return latency, network.cloud_energy_units[complexity], 0.0


def reference_cost_table(device, network):
    return np.array([[reference_cost(device, network, c, d, n, action) for action in ACTIONS]
                     for c, d, n, _ in STATES])


def reference_mdp(device, network, cost, mix, p_drain):
    mix_values = np.array([mix[c] for c in COMPLEXITIES], dtype=np.float64)
    mix_values = mix_values / mix_values.sum()
    index = {state: s for s, state in enumerate(STATES)}
    n = len(STATES)
    rewards = np.zeros((n, len(ACTIONS)))
    transitions = np.zeros((len(ACTIONS), n, n))
    mask = np.ones((n, len(ACTIONS)), dtype=bool)
    max_energy = max(
        max(device.edge_energy_units[c] for c in COMPLEXITIES),
        max(network.cloud_energy_units[c] for c in COMPLEXITIES),
    )
    for s, (complexity, device_class, network_state, battery) in enumerate(STATES):
        ni = NETWORK_STATES.index(network_state)
        for ai, action in enumerate(ACTIONS):
            if action is Action.CLOUD and network_state is NetworkState.OFFLINE:
                mask[s, ai] = False
                continue
            latency, energy, loss = reference_cost(device, network, complexity, device_class, network_state, action)
            rewards[s, ai] = -(cost.w_latency * latency + cost.w_energy * energy + cost.w_accuracy * loss)
            if battery is Battery.OK and max_energy > 0:
                p_to_low = p_drain * (energy / max_energy)
            else:
                p_to_low = 1.0 if battery is Battery.LOW else 0.0
            for ci, c_next in enumerate(COMPLEXITIES):
                for nj in range(len(NETWORK_STATES)):
                    p_base = mix_values[ci] * network.transition_matrix[ni][nj]
                    if p_base == 0.0:
                        continue
                    for b_next, p_batt in ((Battery.LOW, p_to_low), (Battery.OK, 1.0 - p_to_low)):
                        if battery is Battery.LOW and b_next is Battery.OK:
                            continue
                        if p_batt == 0.0:
                            continue
                        nxt = index[c_next, device_class, NETWORK_STATES[nj], b_next]
                        transitions[ai, s, nxt] += p_base * p_batt
    return rewards, transitions, mask


# Small integer weights, so zero entries come up often.
weights = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any)


def table(low, high, zeros=True):
    value = st.floats(low, high, allow_nan=False, allow_infinity=False)
    if zeros:
        value = st.one_of(st.just(0.0), value)
    return st.lists(value, min_size=3, max_size=3).map(lambda v: dict(zip(COMPLEXITIES, v)))


def network_model(rows, rtt, cloud_compute, cloud_energy):
    matrix = np.array(rows, dtype=np.float64)
    return NetworkModel(
        transition_matrix=matrix / matrix.sum(axis=1, keepdims=True),
        rtt_ms={NetworkState.GOOD: rtt[0], NetworkState.DEGRADED: rtt[1]},
        cloud_compute_ms=cloud_compute,
        cloud_energy_units=cloud_energy,
    )


devices = st.builds(
    DeviceProfile,
    edge_base_latency_ms=table(1.0, 5000.0, zeros=False),
    edge_energy_units=table(0.0, 50.0),
    edge_accuracy_loss=table(0.0, 1.0),
    cpu_latency_multiplier=st.floats(0.5, 4.0),
)
networks = st.builds(
    network_model,
    rows=st.lists(weights, min_size=3, max_size=3),
    rtt=st.lists(st.floats(1.0, 9000.0), min_size=2, max_size=2),
    cloud_compute=table(0.0, 2000.0),
    cloud_energy=table(0.0, 50.0),
)


@settings(max_examples=60, deadline=None)
@given(device=devices, network=networks)
def test_cost_table_matches_reference(device, network):
    # NaN cells included: tobytes compares the bits.
    assert cost_table(device, network).tobytes() == reference_cost_table(device, network).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    device=devices,
    network=networks,
    mix=weights,
    cost_weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), min_size=3, max_size=3),
    gamma=st.floats(0.0, 0.99),
    p_drain=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
)
def test_build_mdp_matches_reference(device, network, mix, cost_weights, gamma, p_drain):
    cost = CostModel(*cost_weights, discount_gamma=gamma)
    mix = dict(zip(COMPLEXITIES, np.array(mix) / sum(mix)))

    rewards, transitions, mask = reference_mdp(device, network, cost, mix, p_drain)
    mdp = build_mdp(RouterConfig(cost, device, network, complexity_mix=mix, p_drain=p_drain))
    assert mdp.action_mask.tobytes() == mask.tobytes()
    assert mdp.rewards[mask].tobytes() == rewards[mask].tobytes()
    assert mdp.transitions.tobytes() == transitions.tobytes()
    assert mdp.gamma == gamma
