"""Edge/cloud routing of developer-assistant tasks as a discounted MDP.

Where a task runs (on the local device or on a remote model endpoint) is
posed as a finite Markov decision process over task complexity, device
class, network quality, and battery level. The dense layout is stated once,
as `STATE_GRID`, the four enum indices of every state in dense order
(`state_index` is its inverse); the action mask, the cost table and the
drain odds are broadcast from its columns. Policy iteration solves the MDP
exactly, without BLAS, into a dense lookup policy that the simulator and
the CLI consult per task; `value_iteration` is the iterative solver it is
checked against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .base import Action, Battery, Complexity, DeviceClass, NetworkState, TaskKind
from .configfile import STOCHASTIC_TOL, CostModel, DeviceProfile, NetworkModel, RouterConfig, check_positive

TASK_KINDS = (TaskKind.SYNTAX_FIX, TaskKind.COMPLETION, TaskKind.REFACTOR, TaskKind.CRASH_ANALYSIS)
COMPLEXITIES = (Complexity.LOW, Complexity.MEDIUM, Complexity.HIGH)
DEVICE_CLASSES = (DeviceClass.CPU_ONLY, DeviceClass.GPU)
NETWORK_STATES = (NetworkState.GOOD, NetworkState.DEGRADED, NetworkState.OFFLINE)
BATTERY_LEVELS = (Battery.LOW, Battery.OK)
ACTIONS = (Action.EDGE, Action.CLOUD)

STATE_SHAPE = (len(COMPLEXITIES), len(DEVICE_CLASSES), len(NETWORK_STATES), len(BATTERY_LEVELS))
N_STATES = int(np.prod(STATE_SHAPE))


def complexity_indices(kind, files_touched, cross_file_deps, token_length) -> np.ndarray:
    """Map task columns to indices into COMPLEXITIES by a fixed rule table.

    `kind` holds indices into TASK_KINDS; all four arguments broadcast.
    Crash analysis is always high complexity; otherwise heavy cross-file
    coupling or wide file footprints are high, any cross-file dependency or
    a long prompt is medium, and the remainder is low.
    """
    kind, files, deps, tokens = map(np.asarray, (kind, files_touched, cross_file_deps, token_length))
    high = (kind == TASK_KINDS.index(TaskKind.CRASH_ANALYSIS)) | (deps >= 5) | (files >= 10)
    medium = (deps >= 1) | (tokens >= 2000)
    return np.where(high, COMPLEXITIES.index(Complexity.HIGH),
                    np.where(medium, COMPLEXITIES.index(Complexity.MEDIUM), COMPLEXITIES.index(Complexity.LOW)))


def state_index(c, d, n, b):
    """Dense state index of the indices into COMPLEXITIES, DEVICE_CLASSES,
    NETWORK_STATES and BATTERY_LEVELS; ints or index arrays that broadcast."""
    return ((c * len(DEVICE_CLASSES) + d) * len(NETWORK_STATES) + n) * len(BATTERY_LEVELS) + b


# (4, N_STATES) read-only: the indices into COMPLEXITIES, DEVICE_CLASSES,
# NETWORK_STATES and BATTERY_LEVELS of every dense state, in dense order.
STATE_GRID = np.indices(STATE_SHAPE).reshape(len(STATE_SHAPE), N_STATES)
STATE_GRID.flags.writeable = False

# (N_STATES, n_actions) legal actions, read-only: cloud execution is masked
# out while offline. The only statement of that rule.
ACTION_MASK = ((STATE_GRID[2, :, None] != NETWORK_STATES.index(NetworkState.OFFLINE))
               | (np.arange(len(ACTIONS)) != ACTIONS.index(Action.CLOUD)))
ACTION_MASK.flags.writeable = False


def cost_table(device: DeviceProfile, network: NetworkModel) -> np.ndarray:
    """(N_STATES, n_actions, 3) latency, energy and accuracy loss of every
    state and action.

    Edge runs at the device's base latency for the complexity, times
    `cpu_latency_multiplier` on a CPU-only device, with the device's energy
    and accuracy loss. Cloud takes the network's round trip plus the cloud
    compute time and the cloud energy, and loses no accuracy. A masked cell
    holds NaN latency, the cloud energy and no loss: what a cloud call that
    cannot run spends. Offline, the one network state where cloud is masked,
    has no round-trip time, so its NaN gives the masked cells theirs.
    """
    c, d, n, _ = STATE_GRID

    def column(table: dict, keys: tuple, index: np.ndarray) -> np.ndarray:
        """`table`'s value for each state's key, NaN where it has none."""
        return np.array([table.get(key, np.nan) for key in keys], dtype=np.float64)[index]

    base = column(device.edge_base_latency_ms, COMPLEXITIES, c)
    cpu = d == DEVICE_CLASSES.index(DeviceClass.CPU_ONLY)
    table = np.empty((N_STATES, len(ACTIONS), 3))
    table[:, ACTIONS.index(Action.EDGE)] = np.column_stack([
        np.where(cpu, base * device.cpu_latency_multiplier, base),
        column(device.edge_energy_units, COMPLEXITIES, c),
        column(device.edge_accuracy_loss, COMPLEXITIES, c),
    ])
    table[:, ACTIONS.index(Action.CLOUD)] = np.column_stack([
        column(network.rtt_ms, NETWORK_STATES, n) + column(network.cloud_compute_ms, COMPLEXITIES, c),
        column(network.cloud_energy_units, COMPLEXITIES, c),
        np.zeros(N_STATES),
    ])
    return table


def drain_odds(costs: np.ndarray, p_drain: float) -> np.ndarray:
    """(N_STATES, n_actions) chance that the battery is low after each action.

    From ok it is `p_drain` times the action's energy over the largest
    energy in `costs` (0 when every energy is 0); from low it is 1, since
    low is absorbing.
    """
    energy = costs[..., 1]
    max_energy = energy.max()
    odds = p_drain * (energy / max_energy) if max_energy > 0 else np.zeros_like(energy)
    odds[STATE_GRID[3] == BATTERY_LEVELS.index(Battery.LOW)] = 1.0
    return odds


@dataclass(eq=False)
class MdpModel:
    """Dense tabular MDP over n states and the two routing actions; the
    routing MDP of `build_mdp` has the 36 dense states.

    `rewards` is (n_states, n_actions), `transitions` is
    (n_actions, n_states, n_states), `action_mask` is (n_states, n_actions)
    bool. Immutable by convention after construction.
    """

    rewards: np.ndarray
    transitions: np.ndarray
    action_mask: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.action_mask = np.asarray(self.action_mask, dtype=bool)
        if self.rewards.ndim != 2 or self.rewards.shape[1] != len(ACTIONS):
            raise ValueError("rewards must be (n_states, n_actions)")
        n = len(self.rewards)
        if self.transitions.shape != (len(ACTIONS), n, n):
            raise ValueError("transitions must be (n_actions, n_states, n_states)")
        if self.action_mask.shape != (n, len(ACTIONS)):
            raise ValueError("action_mask must be (n_states, n_actions)")
        if not self.action_mask.any(axis=1).all():
            raise ValueError("every state needs at least one legal action")
        if not np.isfinite(self.rewards[self.action_mask]).all():
            raise ValueError("rewards must be finite for legal actions")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        for ai in range(len(ACTIONS)):
            legal = self.action_mask[:, ai]
            rows = self.transitions[ai][legal]
            if rows.size and np.abs(rows.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
                raise ValueError("legal transition rows must each sum to 1")


def build_mdp(router: RouterConfig) -> MdpModel:
    """Assemble the routing MDP that `router` describes; the record has
    checked its odds and its solvability on construction.

    Rewards are negated weighted costs. Between decisions the network
    evolves by its Markov chain, the next task's complexity is redrawn
    i.i.d. from `router.complexity_mix`, the battery may drop from ok to low
    in proportion to the energy just spent (by `drain_odds` at
    `router.p_drain`; low is absorbing), and the device class stays fixed.
    """
    cost, network = router.cost, router.network
    mix_values = np.array([router.complexity_mix[c] for c in COMPLEXITIES], dtype=np.float64)
    mix_values /= mix_values.sum()
    costs = cost_table(router.device, network)
    weighted = cost.w_latency * costs[..., 0] + cost.w_energy * costs[..., 1] + cost.w_accuracy * costs[..., 2]
    to_low = drain_odds(costs, router.p_drain)

    # Axes (action, c, d, n, b, c', d', n', b') of state (c, d, n, b) to
    # state (c', d', n', b'): c' from the mix, n' by the chain from n, the
    # device kept, b' by the drain odds; a masked action has no row.
    arrival = mix_values[None, :, None] * np.asarray(network.transition_matrix)[:, None, :]  # (n, c', n')
    battery = np.stack([to_low, 1.0 - to_low], axis=-1)  # (state, action, b'), BATTERY_LEVELS order
    battery = np.moveaxis(battery.reshape(*STATE_SHAPE, len(ACTIONS), len(BATTERY_LEVELS)), 4, 0)
    legal = ACTION_MASK.T.reshape(len(ACTIONS), *STATE_SHAPE)
    transitions = (
        arrival[None, None, None, :, None, :, None, :, None]
        * battery[:, :, :, :, :, None, None, None, :]
        * np.eye(len(DEVICE_CLASSES))[None, None, :, None, None, None, :, None, None]
        * legal[..., None, None, None, None]
    )

    return MdpModel(
        rewards=np.where(ACTION_MASK, -weighted, 0.0),
        transitions=transitions.reshape(len(ACTIONS), N_STATES, N_STATES),
        action_mask=ACTION_MASK,
        gamma=cost.discount_gamma,
    )


@dataclass(eq=False)
class RoutingPolicy:
    """Solved policy: per-state action and value plus solver diagnostics."""

    actions: np.ndarray  # int, index into ACTIONS
    values: np.ndarray
    residual: float
    delta_history: tuple[float, ...] = ()


DEFAULT_TOLERANCE = 1e-8  # value-iteration stopping threshold


def value_iteration(mdp: MdpModel, tolerance: float = DEFAULT_TOLERANCE) -> RoutingPolicy:
    """Solve the MDP by synchronous Bellman backups from V = 0.

    Iterates until the sup-norm change drops to `tolerance`; the greedy
    action ties break toward edge execution (the privacy-preserving side).
    """
    check_positive(tolerance=tolerance)
    rewards = mdp.rewards
    mask = mdp.action_mask
    gamma = mdp.gamma
    n = rewards.shape[0]

    values = np.zeros(n)
    deltas: list[float] = []
    while True:
        expected = mdp.transitions @ values  # (n_actions, n_states)
        q = rewards + gamma * expected.T
        q = np.where(mask, q, -np.inf)
        new_values = q.max(axis=1)
        delta = float(np.max(np.abs(new_values - values)))
        deltas.append(delta)
        values = new_values
        if delta <= tolerance:
            break

    expected = mdp.transitions @ values
    q = np.where(mask, rewards + gamma * expected.T, -np.inf)
    edge_i, cloud_i = ACTIONS.index(Action.EDGE), ACTIONS.index(Action.CLOUD)
    actions = (q[:, cloud_i] > q[:, edge_i]).astype(np.int8)
    return RoutingPolicy(
        actions=actions, values=values, residual=deltas[-1], delta_history=tuple(deltas)
    )


def _solve_dominant(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with `matrix` x = `rhs`, by Gauss-Jordan elimination without
    pivoting: every pivot is nonzero when `matrix` is strictly diagonally
    dominant by rows, as elimination keeps it."""
    n = len(rhs)
    m = np.concatenate([matrix, rhs[:, None]], axis=1)
    for k in range(n):
        pivot = m[k] / m[k, k]
        m -= m[:, k, None] * pivot
        m[k] = pivot
    return m[:, n]


def policy_iteration(mdp: MdpModel) -> RoutingPolicy:
    """Solve the MDP exactly by Howard's policy iteration.

    Starts from edge wherever edge is legal, evaluates each policy by
    solving (I - gamma P) v = r (strictly diagonally dominant, with margin
    1 - gamma), and moves every state to its greedy action, ties breaking
    toward edge execution (the privacy-preserving side), until the policy
    stops changing. The actions returned are greedy on the values returned;
    `residual` is their sup-norm Bellman residual, max |max_a q - v|. Only
    elementwise ufuncs and `np.add.reduce` compute, not BLAS or LAPACK, whose
    summation order depends on the CPU kernel, so the bytes are the same on
    every machine.
    """
    edge_i, cloud_i = ACTIONS.index(Action.EDGE), ACTIONS.index(Action.CLOUD)
    n = len(mdp.rewards)
    rows = np.arange(n)
    actions = np.where(mdp.action_mask[:, edge_i], edge_i, cloud_i).astype(np.int8)
    total = -np.inf
    while True:
        system = np.eye(n) - mdp.gamma * mdp.transitions[actions, rows]
        values = _solve_dominant(system, mdp.rewards[rows, actions])
        expected = np.add.reduce(mdp.transitions * values, axis=2)  # (n_actions, n_states)
        q = np.where(mdp.action_mask, mdp.rewards + mdp.gamma * expected.T, -np.inf)
        greedy = (q[:, cloud_i] > q[:, edge_i]).astype(np.int8)
        # An improving policy raises the sum of the values. One that does
        # not only switched actions that tie up to rounding, and such
        # switches can cycle, so the solve stops there too.
        previous, total = total, float(np.add.reduce(values))
        if np.array_equal(greedy, actions) or total <= previous:
            break
        actions = greedy
    residual = float(np.max(np.abs(q.max(axis=1) - values)))
    return RoutingPolicy(actions=greedy, values=values, residual=residual)


def solve_policy(router: RouterConfig) -> RoutingPolicy:
    """The routing policy `router` describes."""
    return policy_iteration(build_mdp(router))


def policy_fingerprint(router: RouterConfig) -> str:
    """Hash of every field of `router`, what `solve_policy(router)` depends
    on; the cost, device and network records' fields stand in their place.
    Enum keys are written as their values."""
    settings = {}
    for name, value in vars(router).items():
        settings.update(vars(value) if isinstance(value, (CostModel, DeviceProfile, NetworkModel)) else {name: value})
    payload = {k: {e.value: x for e, x in v.items()} if isinstance(v, dict) else v for k, v in settings.items()}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def policy_to_dict(policy: RoutingPolicy, config_hash: str) -> dict:
    """Exportable form of a solved policy, one entry per dense state index."""
    entries = [
        {"complexity": COMPLEXITIES[c].value, "device": DEVICE_CLASSES[d].value, "network": NETWORK_STATES[n].value,
         "battery": BATTERY_LEVELS[b].value, "action": ACTIONS[a].value, "value": value}
        for c, d, n, b, a, value in zip(*STATE_GRID.tolist(), policy.actions.tolist(), policy.values.tolist())
    ]
    return {"config_hash": config_hash, "states": entries, "residual": policy.residual}


def save_policy(policy: RoutingPolicy, config_hash: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(policy_to_dict(policy, config_hash), fh, sort_keys=True, indent=2)
        fh.write("\n")

