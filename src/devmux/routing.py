"""Edge/cloud routing of developer-assistant tasks as a discounted MDP.

Where a task runs (on the local device or on a remote model endpoint) is
posed as a finite Markov decision process over task complexity, device
class, network quality, and battery level. Value iteration produces a
dense lookup policy that the simulator and the CLI consult per task.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .base import Action, Battery, Complexity, DeviceClass, NetworkState, TaskKind
# The setting records and defaults live in `configfile`; the names not used
# below are re-exported from their old home.
from .configfile import (
    DEFAULT_CLOUD_ENERGY_RATIO,
    DEFAULT_DEGRADED_RTT_FACTOR,
    DEFAULT_GOOD_RTT_MS,
    DEFAULT_P_DRAIN,
    DEFAULT_TOLERANCE,
    STOCHASTIC_TOL,
    CostModel,
    DeviceProfile,
    NetworkModel,
    RouterConfig,
    check_odds,
    check_positive,
    default_complexity_mix,
    default_network_model,
)

TASK_KINDS = (TaskKind.SYNTAX_FIX, TaskKind.COMPLETION, TaskKind.REFACTOR, TaskKind.CRASH_ANALYSIS)
COMPLEXITIES = (Complexity.LOW, Complexity.MEDIUM, Complexity.HIGH)
DEVICE_CLASSES = (DeviceClass.CPU_ONLY, DeviceClass.GPU)
NETWORK_STATES = (NetworkState.GOOD, NetworkState.DEGRADED, NetworkState.OFFLINE)
BATTERY_LEVELS = (Battery.LOW, Battery.OK)
ACTIONS = (Action.EDGE, Action.CLOUD)

N_STATES = len(COMPLEXITIES) * len(DEVICE_CLASSES) * len(NETWORK_STATES) * len(BATTERY_LEVELS)


class IllegalActionError(ValueError):
    """Raised when an action is queried for a state where it is masked out."""


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
    return np.where(high, 2, np.where(medium, 1, 0))


def state_index(c, d, n, b):
    """Dense state index of the indices into COMPLEXITIES, DEVICE_CLASSES,
    NETWORK_STATES and BATTERY_LEVELS; ints or index arrays that broadcast."""
    return ((c * len(DEVICE_CLASSES) + d) * len(NETWORK_STATES) + n) * len(BATTERY_LEVELS) + b


@dataclass(frozen=True)
class RoutingState:
    complexity: Complexity
    device_class: DeviceClass
    network: NetworkState
    battery: Battery

    @property
    def index(self) -> int:
        return state_index(COMPLEXITIES.index(self.complexity), DEVICE_CLASSES.index(self.device_class),
                           NETWORK_STATES.index(self.network), BATTERY_LEVELS.index(self.battery))


def all_states() -> tuple[RoutingState, ...]:
    """All routing states in dense index order."""
    return tuple(itertools.starmap(
        RoutingState, itertools.product(COMPLEXITIES, DEVICE_CLASSES, NETWORK_STATES, BATTERY_LEVELS)
    ))


# (N_STATES, n_actions) legal actions, read-only: cloud execution is masked
# out while offline. The only statement of that rule.
ACTION_MASK = np.array([[not (a is Action.CLOUD and s.network is NetworkState.OFFLINE) for a in ACTIONS]
                        for s in all_states()])
ACTION_MASK.flags.writeable = False


@dataclass(frozen=True)
class CostBreakdown:
    latency_ms: float
    energy_units: float
    accuracy_loss: float


def cost_breakdown(
    device: DeviceProfile, network: NetworkModel, state: RoutingState, action: Action
) -> CostBreakdown:
    """Unweighted cost components of executing a task in `state` via `action`."""
    if not ACTION_MASK[state.index, ACTIONS.index(action)]:
        raise IllegalActionError("cloud execution is masked out while offline")
    if action is Action.EDGE:
        return CostBreakdown(
            latency_ms=device.edge_latency_ms(state.complexity, state.device_class),
            energy_units=device.edge_energy_units[state.complexity],
            accuracy_loss=device.edge_accuracy_loss[state.complexity],
        )
    return CostBreakdown(
        latency_ms=network.rtt_ms[state.network] + network.cloud_compute_ms[state.complexity],
        energy_units=network.cloud_energy_units[state.complexity],
        accuracy_loss=0.0,
    )


def cost_table(device: DeviceProfile, network: NetworkModel) -> np.ndarray:
    """(N_STATES, n_actions, 3) latency, energy and accuracy loss of every
    state and action, by `cost_breakdown`. A masked cell holds NaN latency,
    the cloud energy and no loss: what a cloud call that cannot run spends."""
    table = np.empty((N_STATES, len(ACTIONS), 3))
    for state in all_states():
        for ai, action in enumerate(ACTIONS):
            if ACTION_MASK[state.index, ai]:
                parts = cost_breakdown(device, network, state, action)
                table[state.index, ai] = (parts.latency_ms, parts.energy_units, parts.accuracy_loss)
            else:
                table[state.index, ai] = (np.nan, network.cloud_energy_units[state.complexity], 0.0)
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
    odds[[s.index for s in all_states() if s.battery is Battery.LOW]] = 1.0
    return odds


@dataclass(eq=False)
class MdpModel:
    """Dense tabular MDP over the 36 routing states and two actions.

    `rewards` is (n_states, n_actions), `transitions` is
    (n_actions, n_states, n_states), `action_mask` is (n_states, n_actions)
    bool. Immutable by convention after construction.
    """

    states: tuple[RoutingState, ...]
    rewards: np.ndarray
    transitions: np.ndarray
    action_mask: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        n = len(self.states)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.action_mask = np.asarray(self.action_mask, dtype=bool)
        if self.rewards.shape != (n, len(ACTIONS)):
            raise ValueError("rewards must be (n_states, n_actions)")
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


def build_mdp(
    device: DeviceProfile,
    network: NetworkModel,
    cost: CostModel,
    workload_mix: dict[Complexity, float] | None = None,
    p_drain: float = DEFAULT_P_DRAIN,
) -> MdpModel:
    """Assemble the routing MDP.

    Rewards are negated weighted costs. Between decisions the network
    evolves by its Markov chain, the next task's complexity is redrawn
    i.i.d. from `workload_mix`, the battery may drop from ok to low in
    proportion to the energy just spent (low is absorbing), and the device
    class stays fixed.
    """
    workload_mix = default_complexity_mix() if workload_mix is None else workload_mix
    check_odds(workload_mix, p_drain)
    mix_values = np.array([workload_mix[c] for c in COMPLEXITIES], dtype=np.float64)
    mix_values /= mix_values.sum()
    costs = cost_table(device, network)
    weighted = cost.w_latency * costs[..., 0] + cost.w_energy * costs[..., 1] + cost.w_accuracy * costs[..., 2]
    to_low = drain_odds(costs, p_drain)

    # Axes (action, c, d, n, b, c', d', n', b') of state (c, d, n, b) to
    # state (c', d', n', b'): c' from the mix, n' by the chain from n, the
    # device kept, b' by the drain odds; a masked action has no row.
    shape = (len(COMPLEXITIES), len(DEVICE_CLASSES), len(NETWORK_STATES), len(BATTERY_LEVELS))
    arrival = mix_values[None, :, None] * np.asarray(network.transition_matrix)[:, None, :]  # (n, c', n')
    battery = np.stack([to_low, 1.0 - to_low], axis=-1)  # (state, action, b'), BATTERY_LEVELS order
    battery = np.moveaxis(battery.reshape(*shape, len(ACTIONS), len(BATTERY_LEVELS)), 4, 0)
    legal = ACTION_MASK.T.reshape(len(ACTIONS), *shape)
    transitions = (
        arrival[None, None, None, :, None, :, None, :, None]
        * battery[:, :, :, :, :, None, None, None, :]
        * np.eye(len(DEVICE_CLASSES))[None, None, :, None, None, None, :, None, None]
        * legal[..., None, None, None, None]
    )

    return MdpModel(
        states=all_states(),
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

    def action_for(self, state: RoutingState) -> Action:
        return ACTIONS[int(self.actions[state.index])]


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


def solve_policy(router: RouterConfig) -> RoutingPolicy:
    """The routing policy `router` describes."""
    mdp = build_mdp(router.device, router.network, router.cost, router.complexity_mix, router.p_drain)
    return value_iteration(mdp, router.tolerance)


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
    entries = []
    for state in all_states():
        entries.append(
            {
                "complexity": state.complexity.value,
                "device": state.device_class.value,
                "network": state.network.value,
                "battery": state.battery.value,
                "action": policy.action_for(state).value,
                "value": float(policy.values[state.index]),
            }
        )
    return {"config_hash": config_hash, "states": entries, "residual": policy.residual}


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def policy_from_dict(doc) -> tuple[RoutingPolicy, str]:
    """Inverse of policy_to_dict. Returns the policy and its config hash.

    Raises ValueError for any document policy_to_dict cannot write: not a
    map, a missing or mistyped key, a state missing or listed twice, or a
    masked action (IllegalActionError).
    """
    if not isinstance(doc, dict):
        raise ValueError("policy document must be a map")
    entries, config_hash = doc.get("states"), doc.get("config_hash")
    if not isinstance(entries, list) or len(entries) != N_STATES:
        raise ValueError(f"policy document must carry a list of {N_STATES} states")
    if not isinstance(config_hash, str):
        raise ValueError("policy document must carry a config_hash string")
    residual = _number(doc.get("residual"), "residual")
    actions = np.zeros(N_STATES, dtype=np.int8)
    values = np.zeros(N_STATES)
    seen: set[int] = set()
    for entry in entries:
        try:
            state = RoutingState(
                Complexity(entry["complexity"]),
                DeviceClass(entry["device"]),
                NetworkState(entry["network"]),
                Battery(entry["battery"]),
            )
            action = Action(entry["action"])
            value = _number(entry["value"], "value")
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"malformed policy entry {entry!r}") from None
        if state.index in seen:
            raise ValueError(f"policy document lists state {state} twice")
        if not ACTION_MASK[state.index, ACTIONS.index(action)]:
            raise IllegalActionError(f"cloud execution is masked out in state {state}")
        seen.add(state.index)
        actions[state.index] = ACTIONS.index(action)
        values[state.index] = value
    return RoutingPolicy(actions=actions, values=values, residual=residual), config_hash


def save_policy(policy: RoutingPolicy, config_hash: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(policy_to_dict(policy, config_hash), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_policy(path) -> tuple[RoutingPolicy, str]:
    with open(path, encoding="utf-8") as fh:
        return policy_from_dict(json.load(fh))
