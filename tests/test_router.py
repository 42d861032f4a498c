import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.routing import (
    ACTION_MASK,
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    DEFAULT_TOLERANCE,
    DEVICE_CLASSES,
    N_STATES,
    NETWORK_STATES,
    STATE_GRID,
    Action,
    Battery,
    Complexity,
    CostModel,
    DeviceClass,
    DeviceProfile,
    MdpModel,
    NetworkModel,
    NetworkState,
    TASK_KINDS,
    TaskKind,
    build_mdp,
    cost_table,
    complexity_indices,
    policy_iteration,
    policy_to_dict,
    state_index,
    value_iteration,
)
from devmux.cli import cli_main
from devmux.configfile import RouterConfig, default_network_model
from devmux.simulate import solve_policy

DEVICE = DeviceProfile()
NETWORK = default_network_model(DEVICE)
COSTS = cost_table(DEVICE, NETWORK)
EDGE, CLOUD = ACTIONS.index(Action.EDGE), ACTIONS.index(Action.CLOUD)
LATENCY, LOSS = 0, 2  # along the last axis of `cost_table`
# Every (complexity, device, network, battery) in dense state order.
STATES = tuple(itertools.product(COMPLEXITIES, DEVICE_CLASSES, NETWORK_STATES, BATTERY_LEVELS))


def index_of(complexity, device_class, network, battery):
    """Dense state index of the four enum members."""
    return state_index(COMPLEXITIES.index(complexity), DEVICE_CLASSES.index(device_class),
                       NETWORK_STATES.index(network), BATTERY_LEVELS.index(battery))


def default_mdp(**cost_kwargs):
    return build_mdp(RouterConfig(CostModel(**cost_kwargs), DEVICE, NETWORK))


def finite_horizon_values(mdp, horizon):
    """Oracle: exact finite-horizon expectimax by explicit backward recursion."""
    v = np.zeros(len(mdp.rewards))
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
        for state in STATES:
            cloud_legal = mdp.action_mask[index_of(*state), CLOUD]
            assert cloud_legal == (state[2] is not NetworkState.OFFLINE)
            assert mdp.action_mask[index_of(*state), EDGE]

    def test_cloud_latency_is_rtt_plus_compute(self):
        state = index_of(Complexity.HIGH, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        latency = COSTS[state, CLOUD, LATENCY]
        assert latency == 2400.0 + NETWORK.cloud_compute_ms[Complexity.HIGH]
        assert latency == 3000.0

    def test_cloud_energy_ratio(self):
        for c in COMPLEXITIES:
            assert NETWORK.cloud_energy_units[c] == pytest.approx(3.8 * DEVICE.edge_energy_units[c])

    def test_edge_high_accuracy_loss_default(self):
        state = index_of(Complexity.HIGH, DeviceClass.GPU, NetworkState.DEGRADED, Battery.LOW)
        assert COSTS[state, EDGE, LOSS] == 0.29

    def test_edge_latency_ignores_network(self):
        values = {COSTS[index_of(Complexity.MEDIUM, DeviceClass.GPU, network, Battery.OK), EDGE, LATENCY]
                  for network in NetworkState}
        assert values == {400.0}

    def test_reward_reconstructs_from_breakdown(self):
        mdp = default_mdp()
        cost = CostModel()
        for s in range(N_STATES):
            for ai in range(len(ACTIONS)):
                if not mdp.action_mask[s, ai]:
                    continue
                latency, energy, loss = COSTS[s, ai].tolist()
                expected = -(cost.w_latency * latency + cost.w_energy * energy + cost.w_accuracy * loss)
                assert mdp.rewards[s, ai] == expected

    def test_masked_cell_is_a_cloud_call_that_cannot_run(self):
        state = index_of(Complexity.HIGH, DeviceClass.GPU, NetworkState.OFFLINE, Battery.OK)
        latency, energy, loss = COSTS[state, CLOUD].tolist()
        assert math.isnan(latency)
        assert energy == NETWORK.cloud_energy_units[Complexity.HIGH]
        assert loss == 0.0

    def test_rejects_bad_workload_mix(self):
        with pytest.raises(ValueError):
            RouterConfig(complexity_mix={c: 0.5 for c in COMPLEXITIES})

    def test_rejects_non_stochastic_matrix(self):
        bad = np.array(NETWORK.transition_matrix)
        bad[0, 0] += 0.5
        with pytest.raises(ValueError, match="transition_matrix.good must sum to 1"):
            NetworkModel(
                transition_matrix=bad,
                rtt_ms=NETWORK.rtt_ms,
                cloud_compute_ms=NETWORK.cloud_compute_ms,
                cloud_energy_units=NETWORK.cloud_energy_units,
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

    def test_policy_legal_everywhere(self):
        mdp = default_mdp()
        policy = value_iteration(mdp)
        assert mdp.action_mask[np.arange(N_STATES), policy.actions].all()


def greedy_actions(mdp, values):
    """The greedy action of each state on `values`, ties to edge, by the
    same BLAS-free lookahead as the solver."""
    expected = (mdp.transitions * values).sum(axis=2)
    q = np.where(mdp.action_mask, mdp.rewards + mdp.gamma * expected.T, -np.inf)
    return (q[:, ACTIONS.index(Action.CLOUD)] > q[:, ACTIONS.index(Action.EDGE)]).astype(np.int8), q


class TestPolicyIteration:
    def test_matches_finite_horizon_oracle_on_default(self):
        mdp = default_mdp()
        policy = policy_iteration(mdp)
        h = oracle_horizon(mdp.gamma, float(np.abs(mdp.rewards[mdp.action_mask]).max()))
        oracle = finite_horizon_values(mdp, h)
        assert np.max(np.abs(policy.values - oracle)) < 1e-6

    def test_matches_oracle_on_random_mdps(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            mdp = random_mdp(rng, random_mask=(trial % 2 == 1))
            policy = policy_iteration(mdp)
            oracle = finite_horizon_values(mdp, oracle_horizon(mdp.gamma, 10.0))
            assert np.max(np.abs(policy.values - oracle)) < 1e-6
            assert np.array_equal(policy.actions, value_iteration(mdp, tolerance=1e-8).actions)

    def test_gamma_zero_is_greedy(self):
        mdp = default_mdp(discount_gamma=0.0)
        policy = policy_iteration(mdp)
        q = np.where(mdp.action_mask, mdp.rewards, -np.inf)
        assert np.array_equal(policy.values, q.max(axis=1))
        greedy_cloud = q[:, 1] > q[:, 0]
        assert np.array_equal(policy.actions.astype(bool), greedy_cloud)
        assert policy.residual == 0.0

    def test_equal_rewards_tie_break_to_edge(self):
        n = N_STATES
        transitions = np.tile(np.full((n, n), 1.0 / n), (len(ACTIONS), 1, 1))
        rewards = np.full((n, len(ACTIONS)), -1.0)
        mdp = MdpModel(
            rewards=rewards,
            transitions=transitions,
            action_mask=np.ones((n, len(ACTIONS)), dtype=bool),
            gamma=0.9,
        )
        policy = policy_iteration(mdp)
        assert (policy.actions == ACTIONS.index(Action.EDGE)).all()

    def test_cloud_that_comes_to_tie_goes_back_to_edge(self):
        # State 0 goes to state 1 by edge and to state 2 by cloud at equal
        # cost. Under all-edge, state 1 is worse than state 2, so state 0
        # takes cloud; once state 1 takes cloud into state 2, the two are
        # worth the same and state 0 ties, so it ends on edge.
        transitions = np.zeros((len(ACTIONS), 3, 3))
        transitions[:, 0] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        transitions[:, 1] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        transitions[ACTIONS.index(Action.EDGE), 2, 2] = 1.0
        rewards = np.array([[-1.0, -1.0], [-2.0, -1.0], [-1.0, 0.0]])
        mask = np.array([[True, True], [True, True], [True, False]])
        mdp = MdpModel(rewards=rewards, transitions=transitions, action_mask=mask, gamma=0.5)
        policy = policy_iteration(mdp)
        assert policy.actions.tolist() == [ACTIONS.index(Action.EDGE), ACTIONS.index(Action.CLOUD),
                                           ACTIONS.index(Action.EDGE)]
        assert policy.values.tolist() == [-2.0, -2.0, -2.0]
        assert policy.residual == 0.0

    def test_ties_up_to_rounding_do_not_cycle(self):
        # Only the accuracy loss is weighted and the battery changes no
        # reward, so some states tie exactly; on rounding, switching their
        # actions changes the values by an ulp and flips them back.
        per = lambda *v: dict(zip(COMPLEXITIES, v))
        device = DeviceProfile(edge_base_latency_ms=per(1.0, 1.0, 1.0), edge_energy_units=per(0.0, 0.0, 0.0),
                               edge_accuracy_loss=per(0.0, 1.0, 0.0), cpu_latency_multiplier=1.0)
        network = NetworkModel(NETWORK.transition_matrix, {NetworkState.GOOD: 1.0, NetworkState.DEGRADED: 1.0},
                               per(0.0, 0.0, 0.0), per(0.0, 0.0, 1.0))
        mdp = build_mdp(RouterConfig(CostModel(0.0, 0.0, 6.5, discount_gamma=0.5), device, network))
        policy = policy_iteration(mdp)
        assert np.array_equal(policy.actions, greedy_actions(mdp, policy.values)[0])
        assert policy.residual < 1e-14

    def test_policy_legal_everywhere(self):
        rng = np.random.default_rng(11)
        for mdp in (default_mdp(), *(random_mdp(rng, random_mask=True) for _ in range(5))):
            policy = policy_iteration(mdp)
            assert mdp.action_mask[np.arange(N_STATES), policy.actions].all()

    def test_deterministic_bit_identical(self):
        a = policy_iteration(default_mdp())
        b = policy_iteration(default_mdp())
        assert a.actions.tobytes() == b.actions.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.residual == b.residual

    def test_values_are_the_fixed_point(self):
        mdp = default_mdp()
        policy = policy_iteration(mdp)
        actions, q = greedy_actions(mdp, policy.values)
        assert np.array_equal(policy.actions, actions)
        assert policy.residual == np.max(np.abs(q.max(axis=1) - policy.values)) < 1e-12
        assert policy.delta_history == ()


def per_complexity(low, high, zeros=True):
    value = st.floats(low, high)
    if zeros:
        value = st.one_of(st.just(0.0), value)
    return st.lists(value, min_size=3, max_size=3).map(lambda v: dict(zip(COMPLEXITIES, v)))


class TestRouterConfigBound:
    """`RouterConfig` refuses settings whose values are unbounded; what it
    lets through must solve within the bound it rests on. `worst`, the
    documented bound on any weighted cost, must cover every legal cell of
    the cost table; no value may exceed worst / (1 - gamma); the solved
    actions are greedy on the solved values; and since sweep k of value
    iteration changes a value by at most gamma**(k-1) * worst, value
    iteration ends by the first sweep where that reaches its tolerance."""

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
        mdp = build_mdp(router)
        assert np.array_equal(policy.actions, greedy_actions(mdp, policy.values)[0])
        assert np.isfinite(policy.values).all()
        assert np.abs(policy.values).max() <= worst / (1 - gamma) * (1 + 1e-12)

        swept = value_iteration(mdp, DEFAULT_TOLERANCE)
        if worst <= DEFAULT_TOLERANCE:
            contractions = 0
        elif gamma == 0:
            contractions = 1
        else:
            contractions = math.ceil(math.log(DEFAULT_TOLERANCE / worst) / math.log(gamma))
        assert len(swept.delta_history) <= 1 + contractions
        # Up to rounding: the sweeps' partial sums approach the bound from below.
        assert np.abs(swept.values).max() <= worst / (1 - gamma) * (1 + 1e-12)

    def test_near_one_gamma_is_solved(self, tmp_path, capsys):
        # Value iteration would need about 2e10 sweeps here; the exact solve needs none.
        router = RouterConfig(cost=CostModel(discount_gamma=0.999999999))
        policy = solve_policy(router)
        assert np.isfinite(policy.values).all()
        worst = 0.001 * 7800.0 + 0.1 * 19.0 + 10.0 * 0.29  # the defaults' worst weighted cost
        assert np.abs(policy.values).max() <= worst / (1 - 0.999999999)
        config, out = tmp_path / "c.yaml", tmp_path / "policy.json"
        config.write_text("router:\n  discount_gamma: 0.999999999\n")
        route = ["route", "--config", str(config), "--policy", str(out), "--complexity", "high",
                 "--device", "cpu", "--network", "good", "--battery", "ok"]
        assert cli_main(route) == 0
        assert capsys.readouterr().out.startswith("cloud\n")
        doc = json.loads(out.read_text())
        assert all(math.isfinite(entry["value"]) for entry in doc["states"])
        assert math.isfinite(doc["residual"])


@pytest.fixture(scope="module")
def policy():
    return solve_policy(RouterConfig(CostModel(), DEVICE, NETWORK))


class TestRoute:

    def test_low_cpu_good_routes_edge(self, policy):
        state = index_of(Complexity.LOW, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        assert policy.actions[state] == EDGE

    def test_high_cpu_good_routes_cloud(self, policy):
        state = index_of(Complexity.HIGH, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        assert policy.actions[state] == CLOUD

    def test_offline_always_routes_edge(self, policy):
        for c, d, b in itertools.product(Complexity, DeviceClass, Battery):
            assert policy.actions[index_of(c, d, NetworkState.OFFLINE, b)] == EDGE

    def test_export_round_trip(self, policy):
        doc = json.loads(json.dumps(policy_to_dict(policy, config_hash="abc123")))
        assert (doc["config_hash"], doc["residual"]) == ("abc123", policy.residual)
        entries = doc["states"]
        assert [(e["complexity"], e["device"], e["network"], e["battery"]) for e in entries] == [
            tuple(member.value for member in state) for state in STATES
        ]
        assert [ACTIONS.index(Action(e["action"])) for e in entries] == policy.actions.tolist()
        assert [e["value"] for e in entries] == policy.values.tolist()


class TestStateIndexing:
    def test_indices_dense_and_unique(self):
        assert len(STATES) == N_STATES == 36
        assert [index_of(*state) for state in STATES] == list(range(N_STATES))

    def test_grid_columns_invert_state_index(self):
        assert STATE_GRID.shape == (4, N_STATES)
        assert state_index(*STATE_GRID).tolist() == list(range(N_STATES))
        levels = (COMPLEXITIES, DEVICE_CLASSES, NETWORK_STATES, BATTERY_LEVELS)
        assert [tuple(map(tuple.index, levels, state)) for state in STATES] == list(zip(*STATE_GRID.tolist()))
        assert not STATE_GRID.flags.writeable

    def test_breakdown_reconstruction_without_model(self):
        device = DeviceProfile()
        network = default_network_model(device)
        state = index_of(Complexity.LOW, DeviceClass.CPU_ONLY, NetworkState.GOOD, Battery.OK)
        latency, energy, loss = cost_table(device, network)[state, EDGE].tolist()
        assert latency == 300.0  # 150 ms base doubled on cpu-only
        assert energy == 1.0
        assert loss == 0.0
