"""The broadcast `build_mdp` against the per-state loop it replaced.

`reference_mdp` walks every state and action: it prices the action with
`cost_breakdown`, skips cloud while offline, scales the battery drain odds
by the largest energy of either side, and adds one transition term per
next complexity, network and battery, skipping terms that are zero.
Hypothesis draws device, network and cost tables (zeros included), chains
and mixes with zero entries, and drain odds; the legal rewards, the
transitions and the mask must be the same bits, over both device classes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.routing import (
    ACTIONS,
    COMPLEXITIES,
    NETWORK_STATES,
    Action,
    Battery,
    CostModel,
    DeviceProfile,
    NetworkModel,
    NetworkState,
    RoutingState,
    all_states,
    build_mdp,
    cost_breakdown,
)


def reference_mdp(device, network, cost, mix, p_drain):
    mix_values = np.array([mix[c] for c in COMPLEXITIES], dtype=np.float64)
    mix_values = mix_values / mix_values.sum()
    states = all_states()
    n = len(states)
    rewards = np.zeros((n, len(ACTIONS)))
    transitions = np.zeros((len(ACTIONS), n, n))
    mask = np.ones((n, len(ACTIONS)), dtype=bool)
    max_energy = max(
        max(device.edge_energy_units[c] for c in COMPLEXITIES),
        max(network.cloud_energy_units[c] for c in COMPLEXITIES),
    )
    for s, state in enumerate(states):
        ni = NETWORK_STATES.index(state.network)
        for ai, action in enumerate(ACTIONS):
            if action is Action.CLOUD and state.network is NetworkState.OFFLINE:
                mask[s, ai] = False
                continue
            parts = cost_breakdown(device, network, state, action)
            rewards[s, ai] = -(
                cost.w_latency * parts.latency_ms
                + cost.w_energy * parts.energy_units
                + cost.w_accuracy * parts.accuracy_loss
            )
            if state.battery is Battery.OK and max_energy > 0:
                p_to_low = p_drain * (parts.energy_units / max_energy)
            else:
                p_to_low = 1.0 if state.battery is Battery.LOW else 0.0
            for ci, c_next in enumerate(COMPLEXITIES):
                for nj in range(len(NETWORK_STATES)):
                    p_base = mix_values[ci] * network.transition_matrix[ni][nj]
                    if p_base == 0.0:
                        continue
                    for b_next, p_batt in ((Battery.LOW, p_to_low), (Battery.OK, 1.0 - p_to_low)):
                        if state.battery is Battery.LOW and b_next is Battery.OK:
                            continue
                        if p_batt == 0.0:
                            continue
                        nxt = RoutingState(c_next, state.device_class, NETWORK_STATES[nj], b_next)
                        transitions[ai, s, nxt.index] += p_base * p_batt
    return rewards, transitions, mask


# Small integer weights, so zero entries come up often.
weights = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any)


def table(low, high, zeros=True):
    value = st.floats(low, high, allow_nan=False, allow_infinity=False)
    if zeros:
        value = st.one_of(st.just(0.0), value)
    return st.lists(value, min_size=3, max_size=3).map(lambda v: dict(zip(COMPLEXITIES, v)))


@settings(max_examples=60, deadline=None)
@given(
    edge_latency=table(1.0, 5000.0, zeros=False),
    edge_energy=table(0.0, 50.0),
    edge_loss=table(0.0, 1.0),
    cpu_multiplier=st.floats(0.5, 4.0),
    rtt=st.lists(st.floats(1.0, 9000.0), min_size=2, max_size=2),
    cloud_compute=table(0.0, 2000.0),
    cloud_energy=table(0.0, 50.0),
    rows=st.lists(weights, min_size=3, max_size=3),
    mix=weights,
    cost_weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), min_size=3, max_size=3),
    gamma=st.floats(0.0, 0.99),
    p_drain=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
)
def test_build_mdp_matches_reference(edge_latency, edge_energy, edge_loss, cpu_multiplier, rtt,
                                     cloud_compute, cloud_energy, rows, mix, cost_weights, gamma,
                                     p_drain):
    device = DeviceProfile(edge_base_latency_ms=edge_latency, edge_energy_units=edge_energy,
                           edge_accuracy_loss=edge_loss, cpu_latency_multiplier=cpu_multiplier)
    matrix = np.array(rows, dtype=np.float64)
    network = NetworkModel(
        transition_matrix=matrix / matrix.sum(axis=1, keepdims=True),
        rtt_ms={NetworkState.GOOD: rtt[0], NetworkState.DEGRADED: rtt[1]},
        cloud_compute_ms=cloud_compute,
        cloud_energy_units=cloud_energy,
    )
    cost = CostModel(*cost_weights, discount_gamma=gamma)
    mix = dict(zip(COMPLEXITIES, np.array(mix) / sum(mix)))

    rewards, transitions, mask = reference_mdp(device, network, cost, mix, p_drain)
    mdp = build_mdp(device, network, cost, mix, p_drain)
    assert mdp.action_mask.tobytes() == mask.tobytes()
    assert mdp.rewards[mask].tobytes() == rewards[mask].tobytes()
    assert mdp.transitions.tobytes() == transitions.tobytes()
    assert mdp.gamma == gamma
