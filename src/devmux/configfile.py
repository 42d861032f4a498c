"""Central configuration file: a restricted YAML subset, plus typed assembly.

The accepted grammar is scalars, nested maps, and lists of scalars,
selected by indentation, with `#` comments. YAML anchors, aliases, tags,
flow collections, directives, and multi-document markers are rejected so
that a config file means the same thing everywhere. Every setting has a
default; a file only overrides what it names. Unknown keys are errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .base import ConfigError
from .embedding import BandConfig
from .fusion import ContextSource, FusionWeights
from .routing import (
    DEFAULT_CLOUD_ENERGY_RATIO,
    DEFAULT_DEGRADED_RTT_FACTOR,
    DEFAULT_GOOD_RTT_MS,
    NETWORK_STATES,
    Complexity,
    CostModel,
    DeviceProfile,
    NetworkModel,
    NetworkState,
    check_odds,
)
from .simulate import PolicyKind, SimConfig
from .workload import KindRanges, TaskKind, WorkloadSpec


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


def _number_map(section: _Section, key: str, defaults: dict, enum=Complexity, what="complexity") -> dict:
    """`defaults` with the numbers of the map `section.key` laid over them;
    its keys must be values of `enum`."""
    result = dict(defaults)
    name = f"{section.name}.{key}"
    for entry, value in (section.take_map(key) or {}).items():
        member = _to_member(enum, entry, f"{name}: unknown {what} {entry!r}")
        result[member] = _to_number(value, f"{name}.{entry}")
    return result


@dataclass(eq=False)
class AppConfig:
    """Every setting of every subsystem; `AppConfig()` holds the defaults."""

    sim: SimConfig = field(default_factory=SimConfig)
    bands: BandConfig = field(default_factory=BandConfig)
    fusion_weights: FusionWeights = field(default_factory=FusionWeights)
    max_files: int = 500
    compare_policy_names: tuple[str, ...] = tuple(k.value for k in PolicyKind)

    def sim_config(self, policy: PolicyKind | None = None, seed: int | None = None,
                   n_tasks: int | None = None) -> SimConfig:
        overrides = {"policy": policy, "seed": seed, "n_tasks": n_tasks}
        return replace(self.sim, **{k: v for k, v in overrides.items() if v is not None})

    def router_fingerprint(self) -> str:
        """Hash of everything the solved policy depends on."""
        sim, device, network = self.sim, self.sim.device, self.sim.network
        payload = {
            "w_latency": sim.cost.w_latency,
            "w_energy": sim.cost.w_energy,
            "w_accuracy": sim.cost.w_accuracy,
            "discount_gamma": sim.cost.discount_gamma,
            "tolerance": sim.tolerance,
            "p_drain": sim.p_drain,
            "complexity_mix": {c.value: sim.complexity_mix[c] for c in Complexity},
            "edge_base_latency_ms": {c.value: device.edge_base_latency_ms[c] for c in Complexity},
            "edge_energy_units": {c.value: device.edge_energy_units[c] for c in Complexity},
            "edge_accuracy_loss": {c.value: device.edge_accuracy_loss[c] for c in Complexity},
            "cpu_latency_multiplier": device.cpu_latency_multiplier,
            "rtt_ms": {s.value: network.rtt_ms[s] for s in (NetworkState.GOOD, NetworkState.DEGRADED)},
            "cloud_compute_ms": {c.value: network.cloud_compute_ms[c] for c in Complexity},
            "cloud_energy_units": {c.value: network.cloud_energy_units[c] for c in Complexity},
            "transition_matrix": network.transition_matrix.tolist(),
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def config_from_dict(data: dict) -> AppConfig:
    defaults = AppConfig()
    base = defaults.sim
    top = _Section(data, "<top>")

    router = _Section(top.take_map("router"), "router")
    cost = _checked(
        lambda: CostModel(
            w_latency=router.number("w_latency", base.cost.w_latency),
            w_energy=router.number("w_energy", base.cost.w_energy),
            w_accuracy=router.number("w_accuracy", base.cost.w_accuracy),
            discount_gamma=router.number("discount_gamma", base.cost.discount_gamma),
        ),
        "router",
    )
    tolerance = router.number("tolerance", base.tolerance)
    if tolerance <= 0:
        raise ConfigError("router.tolerance must be > 0")
    edge_latency = _number_map(router, "edge_base_latency_ms", base.device.edge_base_latency_ms)
    edge_energy = _number_map(router, "edge_energy_units", base.device.edge_energy_units)
    edge_accuracy = _number_map(router, "edge_accuracy_loss", base.device.edge_accuracy_loss)
    cpu_multiplier = router.number("cpu_latency_multiplier", base.device.cpu_latency_multiplier)
    good_rtt = router.number("good_rtt_ms", DEFAULT_GOOD_RTT_MS)
    degraded_factor = router.number("degraded_rtt_factor", DEFAULT_DEGRADED_RTT_FACTOR)
    energy_ratio = router.number("cloud_energy_ratio", DEFAULT_CLOUD_ENERGY_RATIO)
    cloud_compute = _number_map(router, "cloud_compute_ms", base.network.cloud_compute_ms)
    cloud_energy = _number_map(
        router, "cloud_energy_units", {c: energy_ratio * edge_energy[c] for c in Complexity}
    )
    p_drain = router.number("p_drain", base.p_drain)
    complexity_mix = _number_map(router, "complexity_mix", base.complexity_mix)
    router.finish()
    _checked(lambda: check_odds(complexity_mix, p_drain), "router")

    device = _checked(
        lambda: DeviceProfile(
            edge_base_latency_ms=edge_latency,
            edge_energy_units=edge_energy,
            edge_accuracy_loss=edge_accuracy,
            cpu_latency_multiplier=cpu_multiplier,
        ),
        "router",
    )

    network_section = _Section(top.take_map("network"), "network")
    initial_network = network_section.member("initial_state", base.initial_network)
    matrix_raw = network_section.take_map("transition_matrix")
    if matrix_raw is None:
        matrix = base.network.transition_matrix
    else:
        matrix = np.zeros((3, 3))
        for i, src in enumerate(NETWORK_STATES):
            row = matrix_raw.get(src.value)
            if not isinstance(row, dict):
                raise ConfigError(f"network.transition_matrix.{src.value} must be a map")
            for j, dst in enumerate(NETWORK_STATES):
                if dst.value not in row:
                    raise ConfigError(f"network.transition_matrix.{src.value} is missing {dst.value!r}")
                matrix[i, j] = _to_number(row[dst.value], f"network.transition_matrix.{src.value}.{dst.value}")
    network_section.finish()
    network = _checked(
        lambda: NetworkModel(
            transition_matrix=matrix,
            rtt_ms={NetworkState.GOOD: good_rtt, NetworkState.DEGRADED: good_rtt * degraded_factor},
            cloud_compute_ms=cloud_compute,
            cloud_energy_units=cloud_energy,
        ),
        "network",
    )

    workload_section = _Section(top.take_map("workload"), "workload")
    default_spec = base.workload_spec
    mix = _number_map(workload_section, "mix", default_spec.mix, TaskKind, "task kind")
    ranges = dict(default_spec.ranges)
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
    inter_arrival = workload_section.number("inter_arrival_mean_s", default_spec.inter_arrival_mean_s)
    workload_section.finish()
    workload_spec = _checked(
        lambda: WorkloadSpec(mix=mix, ranges=ranges, inter_arrival_mean_s=inter_arrival), "workload"
    )

    embed_section = _Section(top.take_map("embed"), "embed")
    default_bands = defaults.bands
    bands = _checked(
        lambda: BandConfig(
            structural_dims=embed_section.integer("structural_dims", default_bands.structural_dims),
            identifier_dims=embed_section.integer("identifier_dims", default_bands.identifier_dims),
            literal_dims=embed_section.integer("literal_dims", default_bands.literal_dims),
            identifier_weight=embed_section.number("identifier_weight", default_bands.identifier_weight),
            wl_iterations=embed_section.integer("wl_iterations", default_bands.wl_iterations),
            hash_seed=embed_section.integer("hash_seed", default_bands.hash_seed),
        ),
        "embed",
    )
    embed_section.finish()

    fusion_section = _Section(top.take_map("fusion"), "fusion")
    default_fusion = defaults.fusion_weights
    priors = _number_map(fusion_section, "priors", default_fusion.prior, ContextSource, "source")
    fusion_weights = _checked(
        lambda: FusionWeights(
            prior=priors,
            temperature=fusion_section.number("temperature", default_fusion.temperature),
            recency_half_life_s=fusion_section.number("recency_half_life_s", default_fusion.recency_half_life_s),
            breakpoint_boost=fusion_section.number("breakpoint_boost", default_fusion.breakpoint_boost),
        ),
        "fusion",
    )
    fusion_section.finish()

    index_section = _Section(top.take_map("index"), "index")
    max_files = index_section.integer("max_files", defaults.max_files)
    if max_files < 0:
        raise ConfigError("index.max_files must be >= 0")
    index_section.finish()

    sim_section = _Section(top.take_map("simulate"), "simulate")
    sim = _checked(
        lambda: SimConfig(
            n_tasks=sim_section.integer("n_tasks", base.n_tasks),
            seed=sim_section.integer("seed", base.seed),
            policy=sim_section.member("policy", base.policy),
            device=replace(
                device,
                device_class=sim_section.member("device", base.device.device_class),
                battery=sim_section.member("battery", base.device.battery),
            ),
            network=network,
            cost=cost,
            workload_spec=workload_spec,
            initial_network=initial_network,
            p_drain=p_drain,
            tolerance=tolerance,
            complexity_mix=complexity_mix,
            offline_timeout_ms=sim_section.number("offline_timeout_ms", base.offline_timeout_ms),
            sub_second_ms=sim_section.number("sub_second_ms", base.sub_second_ms),
        ),
        "simulate",
    )
    sim_section.finish()

    compare_section = _Section(top.take_map("compare"), "compare")
    policy_names = compare_section.take("policies", list(defaults.compare_policy_names))
    if not isinstance(policy_names, list) or not policy_names:
        raise ConfigError("compare.policies must be a non-empty list")
    for name in policy_names:
        _to_member(PolicyKind, name, f"compare.policies: unknown policy {name!r}")
    compare_section.finish()

    top.finish()

    return AppConfig(
        sim=sim,
        bands=bands,
        fusion_weights=fusion_weights,
        max_files=max_files,
        compare_policy_names=tuple(policy_names),
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
