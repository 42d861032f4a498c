import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.routing import (
    ACTION_MASK,
    ACTIONS,
    COMPLEXITIES,
    N_STATES,
    Action,
    Battery,
    Complexity,
    CostModel,
    DeviceClass,
    DeviceProfile,
    IllegalActionError,
    MdpModel,
    NetworkModel,
    NetworkState,
    TASK_KINDS,
    RoutingState,
    TaskKind,
    all_states,
    build_mdp,
    cost_breakdown,
    cost_table,
    complexity_indices,
    default_network_model,
    policy_from_dict,
    policy_to_dict,
    value_iteration,
)
from devmux.configfile import RouterConfig
from devmux.simulate import solve_policy

DEVICE = DeviceProfile()
NETWORK = default_network_model(DEVICE)


def default_mdp(**cost_kwargs):
    return build_mdp(DEVICE, NETWORK, CostModel(**cost_kwargs))


def finite_horizon_values(mdp, horizon):
    """Oracle: exact finite-horizon expectimax by explicit backward recursion."""
    n = len(mdp.states)
    v = np.zeros(n)
    for _ in range(horizon):
        q_columns = []
        for ai in range(len(ACTIONS)):
            q_columns.append(mdp.rewards[:, ai] + mdp.gamma * mdp.transitions[ai].dot(v))
        q = np.stack(q_columns, axis=1)
        q[~mdp.action_mask] = -np.inf
        v = q.max(axis=1)
    return v


def oracle_horizon(gamma, r_max, target=1e-7):
    h = int(np.ceil(np.log(target * (1.0 - gamma) / r_max) / np.log(gamma)))
    return max(h, 1)


def random_mdp(rng, random_mask=False):
    n = N_STATES
    transitions = rng.random((len(ACTIONS), n, n))
    transitions /= transitions.sum(axis=2, keepdims=True)
    rewards = -10.0 * rng.random((n, len(ACTIONS)))
    if random_mask:
        mask = rng.random((n, len(ACTIONS))) < 0.8
        mask[~mask.any(axis=1), 0] = True
    else:
        mask = np.ones((n, len(ACTIONS)), dtype=bool)
    gamma = float(rng.uniform(0.80, 0.95))
    return MdpModel(
        states=all_states(),
        rewards=rewards,
        transitions=transitions,
        action_mask=mask,
        gamma=gamma,
    )


def complexity_of(kind, files_touched, cross_file_deps, token_length):
    """One task's complexity by the rule table of `complexity_indices`."""
    ci = complexity_indices(TASK_KINDS.index(kind), files_touched, cross_file_deps, token_length)
    return COMPLEXITIES[int(ci)]


class TestFeaturize:
    def test_syntax_fix_is_low(self):
        complexity = complexity_of(TaskKind.SYNTAX_FIX, files_touched=1, cross_file_deps=0, token_length=80)
        assert complexity is Complexity.LOW

    def test_crash_analysis_is_always_high(self):
        complexity = complexity_of(TaskKind.CRASH_ANALYSIS, files_touched=1, cross_file_deps=0,
                                   token_length=500)
        assert complexity is Complexity.HIGH

    def test_completion_with_deps_is_medium(self):
        complexity = complexity_of(TaskKind.COMPLETION, files_touched=2, cross_file_deps=3, token_length=2500)
        assert complexity is Complexity.MEDIUM

    @pytest.mark.parametrize(
        "deps,files,expected",
        [(5, 1, Complexity.HIGH), (0, 10, Complexity.HIGH), (1, 1, Complexity.MEDIUM), (0, 1, Complexity.LOW)],
    )
    def test_rule_table_thresholds(self, deps, files, expected):
        complexity = complexity_of(TaskKind.REFACTOR, files_touched=files, cross_file_deps=deps, token_length=100)
        assert complexity is expected

    def test_long_prompt_is_medium(self):
        complexity = complexity_of(TaskKind.COMPLETION, files_touched=1, cross_file_deps=0, token_length=2000)
        assert complexity is Complexity.MEDIUM


class TestBuildMdp:
    def test_offline_masks_cloud(self):
        mdp = default_mdp()
        for state in all_states():
            cloud_legal = mdp.action_mask[state.index, ACTIONS.index(Action.CLOUD)]
            assert cloud_legal == (state.network is not NetworkState.OFFLINE)
            assert mdp.action_mask[state.index, ACTIONS.index(Action.EDGE)]

    def test_cloud_latency_is_rtt_plus_compute(self):
        state = RoutingState(Complexity.HIGH, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        parts = cost_breakdown(DEVICE, NETWORK, state, Action.CLOUD)
        assert parts.latency_ms == 2400.0 + NETWORK.cloud_compute_ms[Complexity.HIGH]
        assert parts.latency_ms == 3000.0

    def test_cloud_energy_ratio(self):
        for c in COMPLEXITIES:
            assert NETWORK.cloud_energy_units[c] == pytest.approx(3.8 * DEVICE.edge_energy_units[c])

    def test_edge_high_accuracy_loss_default(self):
        state = RoutingState(Complexity.HIGH, DeviceClass.GPU, NetworkState.DEGRADED, Battery.LOW)
        assert cost_breakdown(DEVICE, NETWORK, state, Action.EDGE).accuracy_loss == 0.29

    def test_edge_latency_ignores_network(self):
        values = set()
        for network in NetworkState:
            state = RoutingState(Complexity.MEDIUM, DeviceClass.GPU, network, Battery.OK)
            values.add(cost_breakdown(DEVICE, NETWORK, state, Action.EDGE).latency_ms)
        assert values == {400.0}

    def test_reward_reconstructs_from_breakdown(self):
        mdp = default_mdp()
        cost = CostModel()
        for state in all_states():
            for ai, action in enumerate(ACTIONS):
                if not mdp.action_mask[state.index, ai]:
                    continue
                parts = cost_breakdown(DEVICE, NETWORK, state, action)
                expected = -(
                    cost.w_latency * parts.latency_ms
                    + cost.w_energy * parts.energy_units
                    + cost.w_accuracy * parts.accuracy_loss
                )
                assert mdp.rewards[state.index, ai] == expected

    def test_breakdown_rejects_masked_action(self):
        state = RoutingState(Complexity.LOW, DeviceClass.GPU, NetworkState.OFFLINE, Battery.OK)
        with pytest.raises(IllegalActionError):
            cost_breakdown(DEVICE, NETWORK, state, Action.CLOUD)

    def test_rejects_bad_workload_mix(self):
        device = DeviceProfile()
        network = default_network_model(device)
        with pytest.raises(ValueError):
            build_mdp(device, network, CostModel(), workload_mix={c: 0.5 for c in COMPLEXITIES})

    def test_rejects_non_stochastic_matrix(self):
        device = DeviceProfile()
        with pytest.raises(ValueError):
            NetworkModelBad = default_network_model(device)
            bad = np.array(NetworkModelBad.transition_matrix)
            bad[0, 0] += 0.5
            from devmux.routing import NetworkModel

            NetworkModel(
                transition_matrix=bad,
                rtt_ms=NetworkModelBad.rtt_ms,
                cloud_compute_ms=NetworkModelBad.cloud_compute_ms,
                cloud_energy_units=NetworkModelBad.cloud_energy_units,
            )

    def test_legal_transition_rows_sum_to_one(self):
        mdp = default_mdp()
        for ai in range(len(ACTIONS)):
            legal = mdp.action_mask[:, ai]
            rows = mdp.transitions[ai][legal]
            assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9


class TestValueIteration:
    def test_matches_finite_horizon_oracle_on_default(self):
        mdp = default_mdp()
        policy = value_iteration(mdp, tolerance=1e-8)
        h = oracle_horizon(mdp.gamma, float(np.abs(mdp.rewards[mdp.action_mask]).max()))
        oracle = finite_horizon_values(mdp, h)
        assert np.max(np.abs(policy.values - oracle)) < 1e-6

    def test_matches_oracle_on_random_mdps(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            mdp = random_mdp(rng, random_mask=(trial % 2 == 1))
            policy = value_iteration(mdp, tolerance=1e-8)
            oracle = finite_horizon_values(mdp, oracle_horizon(mdp.gamma, 10.0))
            assert np.max(np.abs(policy.values - oracle)) < 1e-6

    def test_gamma_zero_is_greedy(self):
        mdp = default_mdp(discount_gamma=0.0)
        policy = value_iteration(mdp)
        q = np.where(mdp.action_mask, mdp.rewards, -np.inf)
        assert np.array_equal(policy.values, q.max(axis=1))
        greedy_cloud = q[:, 1] > q[:, 0]
        assert np.array_equal(policy.actions.astype(bool), greedy_cloud)

    def test_equal_rewards_tie_break_to_edge(self):
        n = N_STATES
        transitions = np.tile(np.full((n, n), 1.0 / n), (len(ACTIONS), 1, 1))
        rewards = np.full((n, len(ACTIONS)), -1.0)
        mdp = MdpModel(
            states=all_states(),
            rewards=rewards,
            transitions=transitions,
            action_mask=np.ones((n, len(ACTIONS)), dtype=bool),
            gamma=0.9,
        )
        policy = value_iteration(mdp)
        assert (policy.actions == ACTIONS.index(Action.EDGE)).all()

    def test_delta_history_non_increasing(self):
        policy = value_iteration(default_mdp())
        deltas = policy.delta_history
        assert all(deltas[i + 1] <= deltas[i] for i in range(len(deltas) - 1))
        assert policy.residual == deltas[-1] <= 1e-8

    def test_deterministic_bit_identical(self):
        a = value_iteration(default_mdp())
        b = value_iteration(default_mdp())
        assert np.array_equal(a.actions, b.actions)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.residual == b.residual

    def test_scale_covariance_of_weights(self):
        base = value_iteration(default_mdp())
        for scale in (0.5, 2.0, 4.0, 1024.0, 3.0):
            scaled = value_iteration(
                default_mdp(w_latency=0.001 * scale, w_energy=0.1 * scale, w_accuracy=10.0 * scale)
            )
            assert np.array_equal(base.actions, scaled.actions)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            value_iteration(default_mdp(), tolerance=0.0)

    def test_rejects_nan_tolerance(self):
        # `delta <= nan` never holds, so a NaN tolerance would sweep forever.
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            value_iteration(default_mdp(), float("nan"))
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            RouterConfig(tolerance=float("nan"))

    def test_policy_legal_everywhere(self):
        mdp = default_mdp()
        policy = value_iteration(mdp)
        for state in all_states():
            assert mdp.action_mask[state.index, policy.actions[state.index]]


def per_complexity(low, high, zeros=True):
    value = st.floats(low, high)
    if zeros:
        value = st.one_of(st.just(0.0), value)
    return st.lists(value, min_size=3, max_size=3).map(lambda v: dict(zip(COMPLEXITIES, v)))


class TestRouterConfigBound:
    """`RouterConfig` refuses settings whose solve is unbounded; what it lets
    through must solve within the bound it rests on. `worst`, the documented
    bound on any weighted cost, must cover every legal cell of the cost
    table; no value may exceed worst / (1 - gamma); and since sweep k changes
    a value by at most gamma**(k-1) * worst, the solve ends by the first
    sweep where that reaches the tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), min_size=3, max_size=3),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.99), st.just(0.99)),
        edge_latency=per_complexity(1.0, 5000.0, zeros=False),
        edge_energy=per_complexity(0.0, 50.0),
        edge_loss=per_complexity(0.0, 1.0),
        cpu_multiplier=st.floats(0.5, 4.0),
        rtt=st.lists(st.floats(1.0, 9000.0), min_size=2, max_size=2),
        cloud_compute=per_complexity(0.0, 2000.0),
        cloud_energy=per_complexity(0.0, 50.0),
    )
    def test_solve_stays_within_the_bound(self, weights, gamma, edge_latency, edge_energy, edge_loss,
                                          cpu_multiplier, rtt, cloud_compute, cloud_energy):
        device = DeviceProfile(edge_base_latency_ms=edge_latency, edge_energy_units=edge_energy,
                               edge_accuracy_loss=edge_loss, cpu_latency_multiplier=cpu_multiplier)
        network = NetworkModel(NETWORK.transition_matrix, {NetworkState.GOOD: rtt[0], NetworkState.DEGRADED: rtt[1]},
                               cloud_compute, cloud_energy)
        try:
            router = RouterConfig(cost=CostModel(*weights, discount_gamma=gamma), device=device, network=network)
        except ValueError:
            return
        latency = max(max(edge_latency.values()) * max(cpu_multiplier, 1.0), max(rtt) + max(cloud_compute.values()))
        energy = max(*edge_energy.values(), *cloud_energy.values())
        worst = weights[0] * latency + weights[1] * energy + weights[2] * max(edge_loss.values())
        costs = cost_table(device, network)[ACTION_MASK]
        assert (costs @ np.array(weights)).max() <= worst * (1 + 1e-12)

        policy = solve_policy(router)
        if worst <= router.tolerance:
            contractions = 0
        elif gamma == 0:
            contractions = 1
        else:
            contractions = math.ceil(math.log(router.tolerance / worst) / math.log(gamma))
        assert len(policy.delta_history) <= 1 + contractions
        assert np.isfinite(policy.values).all()
        # Up to rounding: the sweeps' partial sums approach the bound from below.
        assert np.abs(policy.values).max() <= worst / (1 - gamma) * (1 + 1e-12)

    def test_unsolvable_gamma_refused_on_construction(self):
        # Refused by the bound, before any sweep: this gamma would need about 2e10 of them.
        with pytest.raises(ValueError, match="value-iteration sweeps"):
            RouterConfig(cost=CostModel(discount_gamma=0.999999999))


@pytest.fixture(scope="module")
def policy():
    return value_iteration(default_mdp())


class TestRoute:

    def test_low_cpu_good_routes_edge(self, policy):
        state = RoutingState(Complexity.LOW, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        assert policy.action_for(state) is Action.EDGE

    def test_high_cpu_good_routes_cloud(self, policy):
        state = RoutingState(Complexity.HIGH, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        assert policy.action_for(state) is Action.CLOUD

    def test_offline_always_routes_edge(self, policy):
        for c in Complexity:
            for d in DeviceClass:
                for b in Battery:
                    state = RoutingState(c, d, NetworkState.OFFLINE, b)
                    assert policy.action_for(state) is Action.EDGE

    def test_export_round_trip(self, policy):
        doc = policy_to_dict(policy, config_hash="abc123")
        assert len(doc["states"]) == N_STATES
        restored, config_hash = policy_from_dict(doc)
        assert config_hash == "abc123"
        assert np.array_equal(restored.actions, policy.actions)
        assert np.array_equal(restored.values, policy.values)


class TestStateIndexing:
    def test_indices_dense_and_unique(self):
        states = all_states()
        assert len(states) == N_STATES == 36
        assert sorted(s.index for s in states) == list(range(N_STATES))

    def test_breakdown_reconstruction_without_model(self):
        device = DeviceProfile()
        network = default_network_model(device)
        state = RoutingState(Complexity.LOW, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        parts = cost_breakdown(device, network, state, Action.EDGE)
        assert parts.latency_ms == 300.0  # 150 ms base doubled on cpu-only
        assert parts.energy_units == 1.0
        assert parts.accuracy_loss == 0.0
