import copy
import functools
from dataclasses import fields
from enum import Enum
from pathlib import Path

import pytest

from devmux import base, configfile
from devmux.configfile import (
    ConfigError,
    ConfigParseError,
    config_from_dict,
    load_config,
    parse_config_text,
)
from devmux.routing import Battery, Complexity, DeviceClass, NetworkState, policy_fingerprint
from devmux.simulate import PolicyKind, SimConfig
from devmux.workload import TaskKind

SAMPLE = """
# central settings
router:
  w_latency: 0.002
  discount_gamma: 0.9
  edge_base_latency_ms:
    high: 1000
network:
  initial_state: degraded
  transition_matrix:
    good:
      good: 0.9
      degraded: 0.1
      offline: 0.0
    degraded:
      good: 0.5
      degraded: 0.5
      offline: 0.0
    offline:
      good: 1.0
      degraded: 0.0
      offline: 0.0
workload:
  inter_arrival_mean_s: 10.0
  mix:
    syntax_fix: 0.7
    completion: 0.1
    refactor: 0.1
    crash_analysis: 0.1
fusion:
  temperature: 0.2
simulate:
  n_tasks: 50
  seed: 7
  policy: all_edge
  device: gpu
  battery: low
compare:
  policies:
    - all_cloud
    - mdp
"""


# One valid change to each setting the solved policy depends on.
POLICY_SETTING_CHANGES = {
    ("router", "w_latency"): 0.5,
    ("router", "w_energy"): 0.2,
    ("router", "w_accuracy"): 5.0,
    ("router", "discount_gamma"): 0.9,
    ("router", "edge_base_latency_ms"): {"high": 1000.0},
    ("router", "cpu_latency_multiplier"): 3.0,
    ("router", "edge_energy_units"): {"low": 2.0},
    ("router", "edge_accuracy_loss"): {"medium": 0.1},
    ("router", "good_rtt_ms"): 1000.0,
    ("router", "degraded_rtt_factor"): 2.0,
    ("router", "cloud_compute_ms"): {"low": 50.0},
    ("router", "cloud_energy_ratio"): 2.0,
    ("router", "cloud_energy_units"): {"high": 10.0},
    ("router", "p_drain"): 0.1,
    ("router", "complexity_mix"): {"low": 0.4, "medium": 0.5},
    ("network", "transition_matrix"): {
        "good": {"good": 0.9, "degraded": 0.1, "offline": 0.0},
        "degraded": {"good": 0.5, "degraded": 0.5, "offline": 0.0},
        "offline": {"good": 0.5, "degraded": 0.3, "offline": 0.2},
    },
}


def documented_config() -> dict:
    """The YAML block of the config reference, parsed."""
    reference = (Path(__file__).parents[1] / "docs" / "config_reference.md").read_text(encoding="utf-8")
    return parse_config_text(reference.split("```yaml\n", 1)[1].split("```", 1)[0])


class TestParser:
    def test_scalars(self):
        parsed = parse_config_text("a: 1\nb: 2.5\nc: true\nd: hello\ne: 'q x'\nf: null\ng: 1e-8\n")
        assert parsed == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e": "q x", "f": None, "g": 1e-8}

    def test_nested_maps(self):
        parsed = parse_config_text("outer:\n  inner:\n    k: 3\n  other: 4\n")
        assert parsed == {"outer": {"inner": {"k": 3}, "other": 4}}

    def test_lists(self):
        parsed = parse_config_text("items:\n  - one\n  - 2\n  - true\n")
        assert parsed == {"items": ["one", 2, True]}

    def test_comments_and_blanks(self):
        parsed = parse_config_text("# head\na: 1  # tail\n\nb: 2\n")
        assert parsed == {"a": 1, "b": 2}

    def test_hash_inside_quotes_kept(self):
        parsed = parse_config_text('a: "x # y"\n')
        assert parsed == {"a": "x # y"}

    def test_anchor_rejected(self):
        with pytest.raises(ConfigParseError, match="unsupported YAML feature"):
            parse_config_text("a: &anchor 1\n")

    def test_alias_rejected(self):
        with pytest.raises(ConfigParseError, match="unsupported YAML feature"):
            parse_config_text("a: *anchor\n")

    def test_tag_rejected(self):
        with pytest.raises(ConfigParseError, match="unsupported YAML feature"):
            parse_config_text("a: !!int 3\n")

    def test_flow_collections_rejected(self):
        with pytest.raises(ConfigParseError, match="unsupported YAML feature"):
            parse_config_text("a: [1, 2]\n")
        with pytest.raises(ConfigParseError, match="unsupported YAML feature"):
            parse_config_text("a: {b: 1}\n")

    def test_tabs_rejected(self):
        with pytest.raises(ConfigParseError, match="tabs"):
            parse_config_text("a:\n\tb: 1\n")

    def test_multi_document_rejected(self):
        with pytest.raises(ConfigParseError, match="multi-document"):
            parse_config_text("---\na: 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config_text("a: 1\na: 2\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("a: 1\nb: [oops]\n")
        assert err.value.line == 2

    def test_empty_text(self):
        assert parse_config_text("") == {}


class TestAssembly:
    def test_defaults_when_no_file(self):
        config = load_config(None)
        assert config.sim.router.cost.w_latency == 0.001
        assert config.sim.router.cost.discount_gamma == 0.95
        assert config.sim.router.network.rtt_ms[NetworkState.GOOD] == 2400.0
        assert config.sim.router.network.cloud_energy_units[Complexity.HIGH] == pytest.approx(3.8 * 5.0)
        assert config.sim.router.device.edge_accuracy_loss[Complexity.HIGH] == 0.29
        assert config.max_files == 500
        assert config.sim.policy is PolicyKind.MDP
        assert config.sim.workload_spec.mix[TaskKind.SYNTAX_FIX] == 0.45

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(SAMPLE)
        config = load_config(path)
        assert config.sim.router.cost.w_latency == 0.002
        assert config.sim.router.cost.discount_gamma == 0.9
        # untouched entries keep their defaults
        assert config.sim.router.cost.w_energy == 0.1
        assert config.sim.router.device.edge_base_latency_ms[Complexity.HIGH] == 1000
        assert config.sim.router.device.edge_base_latency_ms[Complexity.LOW] == 150.0
        assert config.sim.initial_network is NetworkState.DEGRADED
        assert config.sim.policy is PolicyKind.ALL_EDGE
        assert config.sim.device_class is DeviceClass.GPU
        assert config.sim.battery is Battery.LOW
        assert config.sim.workload_spec.mix[TaskKind.SYNTAX_FIX] == 0.7
        assert config.sim.workload_spec.inter_arrival_mean_s == 10.0
        assert config.fusion_weights.temperature == 0.2
        assert config.compare_policy_names == ("all_cloud", "mdp")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"rooter": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"router": {"w_latencee": 1.0}})

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"simulate": {"policy": "sometimes"}})

    @pytest.mark.parametrize("key", ["n_tasks", "seed"])
    def test_negative_sim_count_rejected(self, key):
        with pytest.raises(ConfigError, match=">= 0"):
            config_from_dict({"simulate": {key: -3}})

    @pytest.mark.parametrize("value, shown", [(11, "11"), (1e15, "1000000000000000")], ids=["11", "1e15"])
    def test_wl_iterations_over_bound_rejected(self, value, shown):
        with pytest.raises(ConfigError, match=rf"^embed: wl_iterations must be in \[0, 10\], got {shown}$"):
            config_from_dict({"embed": {"wl_iterations": value}})
        assert config_from_dict({"embed": {"wl_iterations": 10}}).bands.wl_iterations == 10

    @pytest.mark.parametrize(
        "router, message",
        [
            ({"p_drain": 3}, r"router: p_drain must be in \[0, 1\]"),
            ({"p_drain": -0.5}, r"router: p_drain must be in \[0, 1\]"),
            ({"complexity_mix": {"low": 0.9}}, "router: complexity_mix must sum to 1"),
        ],
        ids=["p_drain_high", "p_drain_negative", "mix_sum"],
    )
    def test_bad_router_odds_rejected(self, router, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"router": router})

    def test_integral_numbers_accepted(self):
        config = config_from_dict({"simulate": {"n_tasks": 1000.0, "seed": "7"}, "router": {"w_latency": 1}})
        assert (config.sim.n_tasks, config.sim.seed) == (1000, 7)
        assert config.sim.router.cost.w_latency == 1.0 and type(config.sim.router.cost.w_latency) is float

    def test_bad_transition_matrix_rejected(self):
        matrix = {
            "good": {"good": 0.5, "degraded": 0.1, "offline": 0.0},
            "degraded": {"good": 0.5, "degraded": 0.5, "offline": 0.0},
            "offline": {"good": 1.0, "degraded": 0.0, "offline": 0.0},
        }
        with pytest.raises(ConfigError, match="sum"):
            config_from_dict({"network": {"transition_matrix": matrix}})

    def test_sim_config_carries_device_and_seed(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(SAMPLE)
        config = load_config(path)
        sim = config.sim_config()
        assert sim.n_tasks == 50
        assert sim.seed == 7
        assert sim.device_class is DeviceClass.GPU
        assert sim.battery is Battery.LOW
        sim_override = config.sim_config(seed=99, n_tasks=10)
        assert (sim_override.seed, sim_override.n_tasks) == (99, 10)
        assert sim_override.router is sim.router

    @pytest.mark.parametrize("section, key", POLICY_SETTING_CHANGES)
    def test_router_fingerprint_tracks_settings(self, section, key):
        base = policy_fingerprint(config_from_dict({}).sim.router)
        assert policy_fingerprint(config_from_dict({}).sim.router) == base
        changed = config_from_dict({section: {key: POLICY_SETTING_CHANGES[section, key]}})
        assert policy_fingerprint(changed.sim.router) != base

    @pytest.mark.parametrize(
        "section, key, value",
        [("simulate", "device", "gpu"), ("simulate", "battery", "low"), ("simulate", "seed", 7),
         ("network", "initial_state", "offline")],
    )
    def test_router_fingerprint_ignores_run_settings(self, section, key, value):
        assert policy_fingerprint(config_from_dict({section: {key: value}}).sim.router) == policy_fingerprint(
            config_from_dict({}).sim.router
        )

    def test_router_fingerprint_cases_cover_every_router_key(self):
        documented = set(documented_config()["router"]) | {"cloud_energy_units"}  # commented out there
        assert {key for section, key in POLICY_SETTING_CHANGES if section == "router"} == documented


def test_documented_defaults_match_code():
    documented = config_from_dict(documented_config())
    default = load_config(None)
    assert policy_fingerprint(documented.sim.router) == policy_fingerprint(default.sim.router)
    for f in fields(SimConfig):
        if f.name != "router":  # the router is covered by the fingerprint
            assert getattr(documented.sim, f.name) == getattr(default.sim, f.name), f.name
    assert documented.bands.fingerprint() == default.bands.fingerprint()
    assert documented.fusion_weights == default.fusion_weights
    assert documented.max_files == default.max_files
    assert documented.compare_policy_names == default.compare_policy_names


def leaves(tree: dict, path=()):
    """The path of every leaf of a parsed config."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key)


def other_values(parent: dict, key: str, value):
    """Changes to the leaf `parent[key]` as (key, value) lists. A number moves
    by about half, alone or with one sibling moving the other way or the
    same way, so that a map that must sum to a total or keep min <= max has
    a valid change too. A list loses its last item; an enum value becomes
    each other member of its enum."""
    if isinstance(value, list):
        yield [(key, value[:-1])]
    elif isinstance(value, str):
        for enum in vars(base).values():
            if isinstance(enum, type) and issubclass(enum, Enum) and value in {m.value for m in enum}:
                yield from ([(key, m.value)] for m in enum if m.value != value)
    else:
        step = (value // 2 or 1) if isinstance(value, int) else (value / 2 or 0.5)
        for moved in (value - step, value + step):
            yield [(key, moved)]
            for sibling, other in parent.items():
                if sibling != key and isinstance(other, (int, float)):
                    yield [(key, moved), (sibling, other + step)]
                    yield [(key, moved), (sibling, other - step)]


@pytest.mark.parametrize("path", leaves(documented_config()), ids=".".join)
def test_each_documented_key_is_read(path):
    """Another valid value of each documented key changes the loaded config."""
    data = documented_config()
    default = repr(config_from_dict(data))
    *sections, key = path
    parent = functools.reduce(dict.__getitem__, sections, data)
    tried = []
    for change in other_values(parent, key, parent[key]):
        changed = copy.deepcopy(data)
        functools.reduce(dict.__getitem__, sections, changed).update(change)
        try:
            loaded = config_from_dict(changed)
        except ConfigError as err:
            tried.append(f"{change}: {err}")
            continue
        assert repr(loaded) != default, f"{'.'.join(path)} -> {change} loads but changes nothing"
        return
    pytest.fail(f"no valid change of {'.'.join(path)}: {tried}")


def test_each_record_field_the_reader_reads_is_documented(monkeypatch):
    read = []
    original = configfile._read_fields

    def spy(section, record, keys={}):
        read.append((section.name, record, keys))
        return original(section, record, keys)

    monkeypatch.setattr(configfile, "_read_fields", spy)
    config_from_dict({})
    documented = documented_config()
    assert {name for name, _, _ in read} == {"router", "workload", "embed", "fusion", "index", "simulate"}
    for name, record, keys in read:
        for f in fields(record):
            key = configfile._config_key(f, keys)
            assert key is None or key in documented[name], f"{record.__name__}.{f.name} is not {name}.{key}"


@pytest.mark.parametrize(
    "section, key, value",
    [("network", "n_tasks", 5), ("simulate", "initial_state", "good"), ("simulate", "initial_network", "good"),
     ("router", "network", 1), ("index", "sim", 1)],
)
def test_a_field_key_in_another_section_is_unknown(section, key, value):
    with pytest.raises(ConfigError, match=f"^unknown keys in section '{section}': {key}$"):
        config_from_dict({section: {key: value}})
