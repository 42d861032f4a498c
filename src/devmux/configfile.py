"""Every setting of every subsystem: its record, default and range checks,
and the restricted YAML file that overrides them.

The setting records (`CostModel`, `DeviceProfile`, `NetworkModel`,
`RouterConfig`, `SimConfig`, `KindRanges`, `WorkloadSpec`, `BandConfig`,
`FusionWeights`) check their own ranges on construction and raise
ValueError; each default and each check is written here once. A
`RouterConfig` holds what the routing policy is solved from, a `SimConfig`
one run: its router and the state the run starts in (device class, battery,
network), which the policy ranges over. This module imports only `base` and
the stdlib, so reading a config loads neither numpy nor a subsystem.
`routing`, `simulate`, `workload`, `embedding` and `fusion` import these
names back, so `devmux.routing.CostModel is devmux.configfile.CostModel` and
so on. The network's transition matrix is a tuple of row tuples; the code
that needs an array calls `np.asarray` on it.

The accepted grammar is scalars, nested maps, and lists of scalars,
selected by indentation, with `#` comments. YAML anchors, aliases, tags,
flow collections, directives, and multi-document markers are rejected so
that a config file means the same thing everywhere. Every setting has a
default; a file only overrides what it names. Unknown keys are errors.

The records declare the keys: a field is read from its section under its
name, as its default's type (`_read_fields`), except that `simulate.device`,
`fusion.priors` and `network.initial_state` name `SimConfig.device_class`,
`FusionWeights.prior` and `SimConfig.initial_network`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Mapping

from .base import Battery, Complexity, ConfigError, ContextSource, DeviceClass, NetworkState, PolicyKind, TaskKind

VECTOR_DIM = 768
STOCHASTIC_TOL = 1e-9
MAX_TASKS = 10_000_000  # simulate.n_tasks bound: 1,000 times the 10k-task protocol size
# workload.ranges bound on every files, deps and tokens end: MAX_TASKS draws sum within an int64.
MAX_RANGE_END = (2**63 - 1) // MAX_TASKS
# embed.wl_iterations bound: the top of the range WL kernels search (Shervashidze et al., JMLR 2011).
MAX_WL_ITERATIONS = 10
# Names how `embedding` turns a band config into vector bytes; a change of scheme
# changes `BandConfig.fingerprint()`, so `query` warns on an index built by another.
WL_SCHEME = "splitmix64-slot-sums"
DEFAULT_P_DRAIN = 0.05
DEFAULT_GOOD_RTT_MS = 2400.0  # median round trip observed for cloud-hosted assistants
DEFAULT_DEGRADED_RTT_FACTOR = 3.0
DEFAULT_CLOUD_ENERGY_RATIO = 3.8  # cloud-bound work costs this multiple of on-device energy
# Rows and columns in `NetworkState` order: mostly good, occasionally degraded, rarely offline.
DEFAULT_TRANSITIONS = ((0.92, 0.06, 0.02), (0.25, 0.70, 0.05), (0.30, 0.30, 0.40))
DEFAULT_PRIORS: dict[ContextSource, float] = {
    ContextSource.IDE_INTERACTION: 0.63,
    ContextSource.CODE_CONTEXT: 0.27,
    ContextSource.RUNTIME_LOG: 0.10,
}


def _per_complexity(low: float, medium: float, high: float) -> dict[Complexity, float]:
    return {Complexity.LOW: low, Complexity.MEDIUM: medium, Complexity.HIGH: high}


def default_complexity_mix() -> dict[Complexity, float]:
    return _per_complexity(0.5, 0.4, 0.1)


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first of `values` that is not > 0 (NaN is not)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def check_non_negative(**values: float) -> None:
    """Raise ValueError naming the first of `values` that is not >= 0."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def check_shares(name: str, shares: Mapping, members) -> None:
    """Raise ValueError unless `shares` maps exactly the enum `members` to
    numbers >= 0 whose correctly rounded sum is 1 within STOCHASTIC_TOL."""
    if set(shares) != set(members):
        raise ValueError(f"{name} must cover {'/'.join(m.value for m in members)}")
    if not min(shares.values()) >= 0:
        raise ValueError(f"{name} entries must be >= 0")
    if not abs(math.fsum(shares.values()) - 1.0) <= STOCHASTIC_TOL:
        raise ValueError(f"{name} must sum to 1")


def check_odds(complexity_mix: Mapping[Complexity, float], p_drain: float) -> None:
    """Check the complexity mix and the drain odds `p_drain`. Raises ValueError."""
    check_shares("complexity_mix", complexity_mix, Complexity)
    if not 0.0 <= p_drain <= 1.0:
        raise ValueError("p_drain must be in [0, 1]")


@dataclass(frozen=True)
class CostModel:
    """Linear weights turning (latency, energy, accuracy loss) into scalar cost."""

    w_latency: float = 0.001
    w_energy: float = 0.1
    w_accuracy: float = 10.0
    discount_gamma: float = 0.95

    def __post_init__(self) -> None:
        if min(self.w_latency, self.w_energy, self.w_accuracy) < 0:
            raise ValueError("cost weights must be >= 0")
        if not 0.0 <= self.discount_gamma < 1.0:
            raise ValueError("discount_gamma must be in [0, 1)")


@dataclass(frozen=True)
class DeviceProfile:
    """Local execution characteristics of the developer's machine.

    Latency entries are the GPU baseline; CPU-only devices pay
    ``cpu_latency_multiplier`` on top. High-complexity accuracy loss mirrors
    the accuracy sacrifice observed for on-device handling of complex mobile
    tasks.
    """

    edge_base_latency_ms: dict[Complexity, float] = field(
        default_factory=lambda: _per_complexity(150.0, 400.0, 1200.0)
    )
    edge_energy_units: dict[Complexity, float] = field(default_factory=lambda: _per_complexity(1.0, 2.0, 5.0))
    edge_accuracy_loss: dict[Complexity, float] = field(default_factory=lambda: _per_complexity(0.0, 0.05, 0.29))
    cpu_latency_multiplier: float = 2.0

    def __post_init__(self) -> None:
        for c in Complexity:
            if self.edge_base_latency_ms[c] <= 0:
                raise ValueError("edge latencies must be > 0")
            if not 0.0 <= self.edge_accuracy_loss[c] <= 1.0:
                raise ValueError("accuracy loss must be in [0, 1]")
            if self.edge_energy_units[c] < 0:
                raise ValueError("edge energy must be >= 0")
        check_positive(cpu_latency_multiplier=self.cpu_latency_multiplier)


@dataclass(frozen=True)
class NetworkModel:
    """Markov chain over link quality plus the cloud-side cost tables.

    `transition_matrix` is stored as a tuple of row tuples of floats, rows
    and columns in `NetworkState` order; any 3x3 nested sequence is accepted.
    """

    transition_matrix: tuple[tuple[float, ...], ...]
    rtt_ms: dict[NetworkState, float]
    cloud_compute_ms: dict[Complexity, float]
    cloud_energy_units: dict[Complexity, float]

    def __post_init__(self) -> None:
        matrix = tuple(tuple(map(float, row)) for row in self.transition_matrix)
        if [len(row) for row in matrix] != [len(NetworkState)] * len(NetworkState):
            raise ValueError("transition_matrix must be 3x3")
        for src, row in zip(NetworkState, matrix):
            check_shares(f"transition_matrix.{src.value}", dict(zip(NetworkState, row)), NetworkState)
        object.__setattr__(self, "transition_matrix", matrix)
        if NetworkState.OFFLINE in self.rtt_ms:
            raise ValueError("offline state has no round-trip time")
        if min(self.rtt_ms[NetworkState.GOOD], self.rtt_ms[NetworkState.DEGRADED]) <= 0:
            raise ValueError("rtt_ms must be > 0")
        for c in Complexity:
            if self.cloud_compute_ms[c] < 0 or self.cloud_energy_units[c] < 0:
                raise ValueError("cloud cost tables must be >= 0")


def default_network_model(
    device: DeviceProfile | None = None,
    good_rtt_ms: float = DEFAULT_GOOD_RTT_MS,
    degraded_rtt_factor: float = DEFAULT_DEGRADED_RTT_FACTOR,
    cloud_energy_ratio: float = DEFAULT_CLOUD_ENERGY_RATIO,
    transition_matrix=DEFAULT_TRANSITIONS,
    cloud_compute_ms: Mapping[Complexity, float] | None = None,
    cloud_energy_units: Mapping[Complexity, float] | None = None,
) -> NetworkModel:
    """The network model for `device` (default `DeviceProfile()`). The
    degraded RTT is `degraded_rtt_factor` times `good_rtt_ms`, and the cloud
    spends `cloud_energy_ratio` times the device's edge energy; the entries
    of `cloud_compute_ms` and `cloud_energy_units` replace the defaults."""
    device = device or DeviceProfile()
    return NetworkModel(
        transition_matrix=transition_matrix,
        rtt_ms={NetworkState.GOOD: good_rtt_ms, NetworkState.DEGRADED: good_rtt_ms * degraded_rtt_factor},
        cloud_compute_ms={**_per_complexity(100.0, 250.0, 600.0), **(cloud_compute_ms or {})},
        cloud_energy_units={
            **{c: cloud_energy_ratio * device.edge_energy_units[c] for c in Complexity},
            **(cloud_energy_units or {}),
        },
    )


@dataclass(frozen=True)
class KindRanges:
    """Inclusive sampling ranges for one task kind, each within
    [0, `MAX_RANGE_END`]."""

    files: tuple[int, int]
    deps: tuple[int, int]
    tokens: tuple[int, int]

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("files", self.files), ("deps", self.deps), ("tokens", self.tokens)):
            if lo < 0 or hi < lo:
                raise ValueError("ranges must satisfy 0 <= lo <= hi")
            if hi > MAX_RANGE_END:
                raise ValueError(f"{name}_max must be <= {MAX_RANGE_END}")


def _default_mix() -> dict[TaskKind, float]:
    return {
        TaskKind.SYNTAX_FIX: 0.45,
        TaskKind.COMPLETION: 0.30,
        TaskKind.REFACTOR: 0.15,
        TaskKind.CRASH_ANALYSIS: 0.10,
    }


def _default_ranges() -> dict[TaskKind, KindRanges]:
    return {
        TaskKind.SYNTAX_FIX: KindRanges(files=(1, 1), deps=(0, 0), tokens=(40, 400)),
        TaskKind.COMPLETION: KindRanges(files=(1, 2), deps=(0, 2), tokens=(200, 3000)),
        TaskKind.REFACTOR: KindRanges(files=(2, 8), deps=(1, 4), tokens=(500, 4000)),
        TaskKind.CRASH_ANALYSIS: KindRanges(files=(1, 3), deps=(0, 3), tokens=(1000, 6000)),
    }


@dataclass(frozen=True)
class WorkloadSpec:
    mix: dict[TaskKind, float] = field(default_factory=_default_mix)
    ranges: dict[TaskKind, KindRanges] = field(default_factory=_default_ranges)
    inter_arrival_mean_s: float = 30.0

    def __post_init__(self) -> None:
        check_shares("mix", self.mix, TaskKind)
        if set(self.ranges) != set(TaskKind):
            raise ValueError("ranges must cover every task kind")
        check_positive(inter_arrival_mean_s=self.inter_arrival_mean_s)


@dataclass(frozen=True)
class RouterConfig:
    """What the routing policy is solved from; the network defaults from the
    device. Construction refuses settings whose values would not be finite:
    with `worst` from the largest latency (edge on either device class, or
    cloud), energy and accuracy loss, worst / (1 - discount_gamma) bounds
    every value and must be finite."""

    cost: CostModel = field(default_factory=CostModel)
    device: DeviceProfile = field(default_factory=DeviceProfile)
    network: NetworkModel | None = None
    complexity_mix: dict[Complexity, float] = field(default_factory=default_complexity_mix)
    p_drain: float = DEFAULT_P_DRAIN

    def __post_init__(self) -> None:
        if self.network is None:
            object.__setattr__(self, "network", default_network_model(self.device))
        check_odds(self.complexity_mix, self.p_drain)
        latency = max(max(self.device.edge_base_latency_ms.values()) * max(self.device.cpu_latency_multiplier, 1.0),
                      max(self.network.rtt_ms.values()) + max(self.network.cloud_compute_ms.values()))
        energy = max(*self.device.edge_energy_units.values(), *self.network.cloud_energy_units.values())
        loss = max(self.device.edge_accuracy_loss.values())
        worst = self.cost.w_latency * latency + self.cost.w_energy * energy + self.cost.w_accuracy * loss
        bound = worst / (1.0 - self.cost.discount_gamma)
        if not math.isfinite(bound):
            raise ValueError(f"worst weighted cost / (1 - discount_gamma) must be finite, got {bound}")


@dataclass(eq=False)
class SimConfig:
    n_tasks: int = 1000
    seed: int = 42
    policy: PolicyKind = PolicyKind.MDP
    router: RouterConfig = field(default_factory=RouterConfig)
    device_class: DeviceClass = DeviceClass.CPU_ONLY
    battery: Battery = Battery.OK
    initial_network: NetworkState = NetworkState.GOOD
    workload_spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    offline_timeout_ms: float = 10_000.0
    sub_second_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.n_tasks < 0 or self.seed < 0:
            raise ValueError("n_tasks and seed must be >= 0")
        if self.n_tasks > MAX_TASKS:
            raise ValueError(f"n_tasks must be <= {MAX_TASKS}")
        check_positive(offline_timeout_ms=self.offline_timeout_ms, sub_second_ms=self.sub_second_ms)


@dataclass(frozen=True)
class BandConfig:
    structural_dims: int = 512
    identifier_dims: int = 192
    literal_dims: int = 64
    identifier_weight: float = 0.5
    wl_iterations: int = 3
    hash_seed: int = 0x5EEDC0DE

    def __post_init__(self) -> None:
        if self.structural_dims + self.identifier_dims + self.literal_dims != VECTOR_DIM:
            raise ValueError(f"band dims must sum to {VECTOR_DIM}")
        if min(self.structural_dims, self.identifier_dims, self.literal_dims) <= 0:
            raise ValueError("band dims must be > 0")
        if self.identifier_weight < 0:
            raise ValueError("identifier_weight must be >= 0")
        if not 0 <= self.wl_iterations <= MAX_WL_ITERATIONS:
            raise ValueError(f"wl_iterations must be in [0, {MAX_WL_ITERATIONS}], got {self.wl_iterations}")
        if not 0 <= self.hash_seed < 2**64:
            raise ValueError(f"hash_seed must be in [0, 2**64), got {self.hash_seed}")

    def fingerprint(self) -> str:
        blob = json.dumps([WL_SCHEME, vars(self)], sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class FusionWeights:
    prior: Mapping[ContextSource, float] = field(default_factory=lambda: dict(DEFAULT_PRIORS))
    temperature: float = 0.1
    recency_half_life_s: float = 300.0
    breakpoint_boost: float = 2.0

    def __post_init__(self) -> None:
        check_shares("prior", self.prior, ContextSource)
        check_positive(temperature=self.temperature, recency_half_life_s=self.recency_half_life_s)
        if self.breakpoint_boost < 1:
            raise ValueError("breakpoint_boost must be >= 1")


class ConfigParseError(ConfigError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_FORBIDDEN_LEADS = "&*!{[|>%@`"


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigParseError("missing value", lineno)
    if text[0] in "\"'":
        quote = text[0]
        if len(text) < 2 or text[-1] != quote:
            raise ConfigParseError("unterminated quoted string", lineno)
        return text[1:-1]
    if text[0] in _FORBIDDEN_LEADS:
        raise ConfigParseError(
            f"value {text!r} uses an unsupported YAML feature (anchors, tags, and "
            "flow collections are not part of the accepted subset)",
            lineno,
        )
    if text in ("true", "false"):
        return text == "true"
    if text in ("null", "~"):
        return None
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _strip_comment(line: str) -> str:
    in_quote: str | None = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in "\"'":
            in_quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


def parse_config_text(text: str) -> dict:
    """Parse the restricted config grammar into plain dicts/lists/scalars."""
    entries: list[tuple[int, int, str]] = []  # (lineno, indent, content)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("---"):
            raise ConfigParseError("multi-document files are not supported", lineno)
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if "\t" in line[: indent + 1]:
            raise ConfigParseError("tabs are not allowed for indentation", lineno)
        if stripped.startswith("%"):
            raise ConfigParseError("YAML directives are not supported", lineno)
        entries.append((lineno, indent, stripped))

    if not entries:
        return {}

    value, next_index = _parse_block(entries, 0, entries[0][1])
    if next_index != len(entries):
        raise ConfigParseError("inconsistent indentation", entries[next_index][0])
    if not isinstance(value, dict):
        raise ConfigParseError("top level must be a map", entries[0][0])
    return value


def _parse_block(entries, start: int, indent: int):
    lineno, first_indent, content = entries[start]
    if first_indent != indent:
        raise ConfigParseError("inconsistent indentation", lineno)
    if content.startswith("- ") or content == "-":
        return _parse_list(entries, start, indent)
    return _parse_map(entries, start, indent)


def _parse_list(entries, start: int, indent: int):
    items = []
    i = start
    while i < len(entries):
        lineno, item_indent, content = entries[i]
        if item_indent < indent:
            break
        if item_indent > indent:
            raise ConfigParseError("unexpected indentation inside list", lineno)
        if content == "-":
            raise ConfigParseError("list items must carry a scalar value", lineno)
        if not content.startswith("- "):
            break
        items.append(_parse_scalar(content[2:], lineno))
        i += 1
    return items, i


def _parse_map(entries, start: int, indent: int):
    mapping: dict = {}
    i = start
    while i < len(entries):
        lineno, item_indent, content = entries[i]
        if item_indent < indent:
            break
        if item_indent > indent:
            raise ConfigParseError("unexpected indentation", lineno)
        if content.startswith("- "):
            break
        if ":" not in content:
            raise ConfigParseError("expected 'key: value' or 'key:'", lineno)
        key, _, rest = content.partition(":")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigParseError(f"invalid key {key!r}", lineno)
        if key in mapping:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest, lineno)
            i += 1
            continue
        # nested block: everything more indented than this line
        if i + 1 < len(entries) and entries[i + 1][1] > item_indent:
            value, i = _parse_block(entries, i + 1, entries[i + 1][1])
            mapping[key] = value
        else:
            mapping[key] = None
            i += 1
    return mapping, i


def _checked(factory, label: str):
    """Run a dataclass constructor, converting validation errors."""
    try:
        return factory()
    except ValueError as err:
        raise ConfigError(f"{label}: {err}") from None


class _Section:
    """Typed reads over one config section with unknown-key detection."""

    def __init__(self, data: dict | None, name: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"section {name!r} must be a map")
        self.data = dict(data)
        self.name = name

    def take(self, key, default):
        return self.data.pop(key, default)

    def number(self, key, default) -> float:
        return _to_number(self.data.pop(key, default), f"{self.name}.{key}")

    def integer(self, key, default) -> int:
        return _to_number(self.data.pop(key, default), f"{self.name}.{key}", integer=True)

    def member(self, key, default):
        """The member of `default`'s enum that `key` names."""
        value, enum = self.data.pop(key, default.value), type(default)
        choices = ", ".join(m.value for m in enum)
        return _to_member(enum, value, f"{self.name}.{key} must be one of {choices}, got {value!r}")

    def take_map(self, key) -> dict | None:
        value = self.data.pop(key, None)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{self.name}.{key} must be a map")
        return value

    def finish(self) -> None:
        if self.data:
            unknown = ", ".join(sorted(self.data))
            raise ConfigError(f"unknown keys in section {self.name!r}: {unknown}")


def _to_number(value, name: str, integer: bool = False):
    """`value` as a finite float, or as an int when `integer`; a missing
    value, a boolean, text or a fraction where an integer is due is a config
    error that names `name`."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (integer and not number.is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not integer:
        return number
    return value if isinstance(value, int) else int(number)


def _to_member(enum, value, error: str):
    """`enum(value)`, or a config error with the message `error`."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(error) from None


# The word a config error uses for a key of each enum that keys a number map.
_NOUNS = {Complexity: "complexity", TaskKind: "task kind", ContextSource: "source"}


def _number_map(section: _Section, key: str, defaults: dict, enum=Complexity) -> dict:
    """`defaults` with the numbers of the map `section.key` laid over them;
    its keys must be values of `enum`."""
    result = dict(defaults)
    name = f"{section.name}.{key}"
    for entry, value in (section.take_map(key) or {}).items():
        member = _to_member(enum, entry, f"{name}: unknown {_NOUNS[enum]} {entry!r}")
        result[member] = _to_number(value, f"{name}.{entry}")
    return result


def _config_key(record_field, keys: Mapping[str, str | None]) -> str | None:
    """A record field's config key: its name unless `keys` renames it; None
    for a nested record or a field `keys` maps to None (read elsewhere)."""
    if record_field.default is None or is_dataclass(record_field.default_factory):
        return None
    return keys.get(record_field.name, record_field.name)


def _read_fields(section: _Section, record, keys: Mapping[str, str | None] = {}) -> dict:
    """The fields of the setting record class `record` that `section` sets,
    as keywords for its constructor, each read as its default's type: an
    int, a number, a member of its enum, or a map over an enum laid over the
    default map. A field the section does not name is left out, so the
    record's own default applies; a key of no field stays in the section
    for `_Section.finish` to report."""
    values = {}
    for f in fields(record):
        key = _config_key(f, keys)
        if key is None or key not in section.data:
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        if isinstance(default, Enum):
            values[f.name] = section.member(key, default)
        elif isinstance(default, dict):
            values[f.name] = _number_map(section, key, default, type(next(iter(default))))
        elif isinstance(default, int):
            values[f.name] = section.integer(key, None)
        elif isinstance(default, float):
            values[f.name] = section.number(key, None)
    return values


@dataclass(eq=False)
class AppConfig:
    """Every setting of every subsystem; `AppConfig()` holds the defaults."""

    sim: SimConfig = field(default_factory=SimConfig)
    bands: BandConfig = field(default_factory=BandConfig)
    fusion_weights: FusionWeights = field(default_factory=FusionWeights)
    max_files: int = 500
    compare_policy_names: tuple[str, ...] = tuple(k.value for k in PolicyKind)

    def sim_config(self, seed: int | None = None, n_tasks: int | None = None) -> SimConfig:
        overrides = {"seed": seed, "n_tasks": n_tasks}
        return replace(self.sim, **{k: v for k, v in overrides.items() if v is not None})


def config_from_dict(data: dict) -> AppConfig:
    top = _Section(data, "<top>")

    router = _Section(top.take_map("router"), "router")
    cost = _checked(lambda: CostModel(**_read_fields(router, CostModel)), "router")
    device = _checked(lambda: DeviceProfile(**_read_fields(router, DeviceProfile)), "router")
    odds = _read_fields(router, RouterConfig)
    # What `default_network_model` derives the RTTs and cloud energy from.
    good_rtt_ms = router.number("good_rtt_ms", DEFAULT_GOOD_RTT_MS)
    degraded_rtt_factor = router.number("degraded_rtt_factor", DEFAULT_DEGRADED_RTT_FACTOR)
    cloud_energy_ratio = router.number("cloud_energy_ratio", DEFAULT_CLOUD_ENERGY_RATIO)
    cloud_compute = _number_map(router, "cloud_compute_ms", {})
    cloud_energy = _number_map(router, "cloud_energy_units", {})
    router.finish()

    def check_router() -> None:
        check_positive(good_rtt_ms=good_rtt_ms, degraded_rtt_factor=degraded_rtt_factor)
        check_non_negative(
            cloud_energy_ratio=cloud_energy_ratio,
            **{f"cloud_compute_ms.{c.value}": ms for c, ms in cloud_compute.items()},
            **{f"cloud_energy_units.{c.value}": units for c, units in cloud_energy.items()},
        )

    _checked(check_router, "router")

    network_section = _Section(top.take_map("network"), "network")
    initial_network = network_section.member("initial_state", SimConfig.initial_network)
    matrix_raw = network_section.take_map("transition_matrix")
    if matrix_raw is None:
        matrix = DEFAULT_TRANSITIONS
    else:
        rows = _Section(matrix_raw, "network.transition_matrix")
        matrix = [[0.0] * len(NetworkState) for _ in NetworkState]
        for i, src in enumerate(NetworkState):
            row = _Section(rows.take_map(src.value), f"{rows.name}.{src.value}")
            for j, dst in enumerate(NetworkState):
                if dst.value not in row.data:
                    raise ConfigError(f"{row.name} is missing {dst.value!r}")
                matrix[i][j] = row.number(dst.value, None)
            row.finish()
        rows.finish()
    network_section.finish()
    network = _checked(
        lambda: default_network_model(
            device, good_rtt_ms, degraded_rtt_factor, cloud_energy_ratio, matrix, cloud_compute, cloud_energy
        ),
        "network",
    )
    router_config = _checked(lambda: RouterConfig(cost, device, network, **odds), "router")

    workload_section = _Section(top.take_map("workload"), "workload")
    workload = _read_fields(workload_section, WorkloadSpec, {"ranges": None})
    ranges = _default_ranges()
    for key, value in (workload_section.take_map("ranges") or {}).items():
        kind = _to_member(TaskKind, key, f"workload.ranges: unknown task kind {key!r}")
        sub = _Section(value, f"workload.ranges.{key}")
        prev = ranges[kind]
        ranges[kind] = _checked(
            lambda: KindRanges(
                files=(sub.integer("files_min", prev.files[0]), sub.integer("files_max", prev.files[1])),
                deps=(sub.integer("deps_min", prev.deps[0]), sub.integer("deps_max", prev.deps[1])),
                tokens=(sub.integer("tokens_min", prev.tokens[0]), sub.integer("tokens_max", prev.tokens[1])),
            ),
            sub.name,
        )
        sub.finish()
    workload_section.finish()
    workload_spec = _checked(lambda: WorkloadSpec(ranges=ranges, **workload), "workload")

    embed_section = _Section(top.take_map("embed"), "embed")
    bands = _checked(lambda: BandConfig(**_read_fields(embed_section, BandConfig)), "embed")
    embed_section.finish()

    fusion_section = _Section(top.take_map("fusion"), "fusion")
    fusion_weights = _checked(
        lambda: FusionWeights(**_read_fields(fusion_section, FusionWeights, {"prior": "priors"})), "fusion"
    )
    fusion_section.finish()

    index_section = _Section(top.take_map("index"), "index")
    index = _read_fields(index_section, AppConfig, {"compare_policy_names": None})
    if index.get("max_files", 0) < 0:
        raise ConfigError("index.max_files must be >= 0")
    index_section.finish()

    sim_section = _Section(top.take_map("simulate"), "simulate")
    sim = _checked(
        lambda: SimConfig(
            router=router_config,
            initial_network=initial_network,
            workload_spec=workload_spec,
            **_read_fields(sim_section, SimConfig, {"device_class": "device", "initial_network": None}),
        ),
        "simulate",
    )
    sim_section.finish()

    compare_section = _Section(top.take_map("compare"), "compare")
    policy_names = compare_section.take("policies", list(AppConfig.compare_policy_names))
    if not isinstance(policy_names, list) or not policy_names:
        raise ConfigError("compare.policies must be a non-empty list")
    for i, name in enumerate(policy_names):
        _to_member(PolicyKind, name, f"compare.policies: unknown policy {name!r}")
        if name in policy_names[:i]:
            raise ConfigError(f"compare.policies: duplicate policy {name!r}")
    compare_section.finish()

    top.finish()

    return AppConfig(
        sim=sim,
        bands=bands,
        fusion_weights=fusion_weights,
        compare_policy_names=tuple(policy_names),
        **index,
    )


def load_config(path: str | None = None) -> AppConfig:
    """Build the application config; with no file every default applies."""
    if path is None:
        return config_from_dict({})
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path} is not UTF-8 text ({err.reason} at byte {err.start})") from None
    return config_from_dict(parse_config_text(text))
