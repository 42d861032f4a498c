"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).
"""

import json
import time

import numpy as np
import pytest

from devmux.cli import cli_main
from devmux.embedding import BandConfig, cosine, graph_to_vector
from devmux.codegraph import parse_to_graph
from devmux.configfile import DEFAULT_PRIORS
from devmux.fusion import ContextItem, ContextSource, assemble_context, score_items
from devmux.layoutlint import FindingKind, check_layout_source
from devmux.routing import (
    ACTIONS,
    BATTERY_LEVELS,
    COMPLEXITIES,
    DEVICE_CLASSES,
    NETWORK_STATES,
    STATE_GRID,
    Action,
    Battery,
    Complexity,
    DeviceClass,
    MdpModel,
    N_STATES,
    NetworkState,
    policy_iteration,
    state_index,
    value_iteration,
)
from devmux.configfile import RouterConfig
from devmux.simulate import PolicyKind, SimConfig, run_simulation, solve_policy
from devmux.vindex import VectorIndex
from devmux.workload import generate_workload

ACCEPTANCE_SEEDS = tuple(range(42, 52))  # the documented seed protocol
SWEEP_TASKS = 10_000


def check(number, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description}")
    assert condition, f"criterion {number} failed: {description}"


def random_mdp(rng):
    n = N_STATES
    transitions = rng.random((2, n, n))
    transitions /= transitions.sum(axis=2, keepdims=True)
    rewards = -10.0 * rng.random((n, 2))
    mask = np.ones((n, 2), dtype=bool)
    gamma = float(rng.uniform(0.80, 0.95))
    return MdpModel(rewards, transitions, mask, gamma)


def finite_horizon_oracle(mdp, horizon):
    v = np.zeros(len(mdp.rewards))
    for _ in range(horizon):
        q = np.stack(
            [mdp.rewards[:, ai] + mdp.gamma * mdp.transitions[ai].dot(v) for ai in range(2)],
            axis=1,
        )
        q[~mdp.action_mask] = -np.inf
        v = q.max(axis=1)
    return v


def test_criterion_1_mdp_solver_matches_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        mdp = random_mdp(rng)
        horizon = int(np.ceil(np.log(1e-7 * (1 - mdp.gamma) / 10.0) / np.log(mdp.gamma)))
        oracle = finite_horizon_oracle(mdp, horizon)
        for policy in (policy_iteration(mdp), value_iteration(mdp, tolerance=1e-8)):
            worst = max(worst, float(np.max(np.abs(policy.values - oracle))))
    elapsed = time.perf_counter() - start
    check(
        1,
        f"policy and value iteration match expectimax oracle on 50 random MDPs "
        f"(worst sup-norm gap {worst:.2e}, {elapsed:.2f}s)",
        worst < 1e-6 and elapsed < 1.0,
    )


def test_criterion_2_routing_qualitative_fidelity():
    policy = solve_policy(RouterConfig())
    cpu_good_ok = (DEVICE_CLASSES.index(DeviceClass.CPU_ONLY), NETWORK_STATES.index(NetworkState.GOOD),
                   BATTERY_LEVELS.index(Battery.OK))
    low_state = state_index(COMPLEXITIES.index(Complexity.LOW), *cpu_good_ok)
    high_state = state_index(COMPLEXITIES.index(Complexity.HIGH), *cpu_good_ok)
    edge, cloud = ACTIONS.index(Action.EDGE), ACTIONS.index(Action.CLOUD)
    offline = STATE_GRID[2] == NETWORK_STATES.index(NetworkState.OFFLINE)
    check(
        2,
        "default policy keeps low-complexity local, sends high-complexity to cloud, "
        "and never leaves the device while offline",
        policy.actions[low_state] == edge
        and policy.actions[high_state] == cloud
        and (policy.actions[offline] == edge).all(),
    )


@pytest.fixture(scope="module")
def seed_sweep():
    """10k-task runs for every documented seed, mdp vs all-cloud, paired."""
    start = time.perf_counter()
    results = {}
    policy = solve_policy(RouterConfig())  # router config identical across seeds
    for seed in ACCEPTANCE_SEEDS:
        workload = generate_workload(SWEEP_TASKS, seed)
        mdp_cfg = SimConfig(n_tasks=SWEEP_TASKS, seed=seed, policy=PolicyKind.MDP)
        cloud_cfg = SimConfig(n_tasks=SWEEP_TASKS, seed=seed, policy=PolicyKind.ALL_CLOUD)
        mdp_report, _ = run_simulation(workload, mdp_cfg, policy)
        cloud_report, _ = run_simulation(workload, cloud_cfg)
        results[seed] = (mdp_report, cloud_report)
    return results, time.perf_counter() - start


def test_criterion_3_cloud_call_reduction(seed_sweep):
    results, elapsed = seed_sweep
    passing = [
        seed
        for seed, (mdp_report, cloud_report) in results.items()
        if mdp_report.cloud_call_fraction <= 0.5 * cloud_report.cloud_call_fraction
    ]
    fraction_42 = results[42][0].cloud_call_fraction
    check(
        3,
        f"mdp policy at most halves all-cloud's call volume on {len(passing)}/10 seeds "
        f"(seed 42 fraction {fraction_42:.3f}, sweep {elapsed:.2f}s)",
        # The 10 s budget, and a tighter 1 s gate: the sweep measured under
        # 0.05 s on a 2-vCPU VM whose speed drifts up to 2x.
        len(passing) >= 8 and 42 in passing and elapsed < 10.0 and elapsed <= 1.0,
    )


def test_criterion_4_sub_second_fraction(seed_sweep):
    results, _ = seed_sweep
    passing = [
        seed for seed, (mdp_report, _) in results.items() if mdp_report.sub_second_fraction >= 0.85
    ]
    check(
        4,
        f"mdp policy answers >= 85% of tasks under a second on {len(passing)}/10 seeds "
        f"(seed 42 fraction {results[42][0].sub_second_fraction:.3f})",
        len(passing) >= 8 and 42 in passing,
    )


RENAME_A = 'class Account extends Base { void deposit(int amount) { validate(amount, "u"); } }'
RENAME_B = 'class Ledger extends Root { void add(int delta) { audit(delta, "u"); } }'


def test_criterion_5_embedding_contract():
    vector_a = graph_to_vector(parse_to_graph(RENAME_A))
    vector_again = graph_to_vector(parse_to_graph(RENAME_A))
    bands = BandConfig(identifier_weight=0.0)
    renamed_cos = cosine(
        graph_to_vector(parse_to_graph(RENAME_A), bands),
        graph_to_vector(parse_to_graph(RENAME_B), bands),
    )
    check(
        5,
        "embeddings are 768-d unit vectors, bit-stable across runs, and renaming-"
        f"invariant at zero identifier weight (cosine {renamed_cos:.12f})",
        vector_a.shape == (768,)
        and abs(np.linalg.norm(vector_a) - 1.0) <= 1e-9
        and vector_a.tobytes() == vector_again.tobytes()
        and abs(renamed_cos - 1.0) <= 1e-9,
    )


def test_criterion_6_retrieval_exactness(tmp_path):
    rng = np.random.default_rng(606)
    vectors = rng.standard_normal((1000, 768))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    index = VectorIndex(band_config_hash="acceptance")
    for i, v in enumerate(vectors):
        index.insert(f"rec-{i:04d}", v)

    queries = rng.standard_normal((100, 768))
    exact_matches = 0
    for q in queries:
        got = index.search(q, 10).ids()
        scored = []
        for record_id in index.ids():
            v = index.vector(record_id).astype(np.float64)
            sim = float(np.dot(v, q) / (np.sqrt(np.dot(v, v)) * np.sqrt(np.dot(q, q))))
            scored.append((sim, record_id))
        scored.sort(key=lambda p: (-p[0], p[1]))
        if got == [record_id for _, record_id in scored[:10]]:
            exact_matches += 1

    path = tmp_path / "index.bin"
    index.save(path)
    loaded = VectorIndex.load(path)
    round_trip_ok = all(
        index.vector(i).tobytes() == loaded.vector(i).tobytes() for i in index.ids()
    )
    check(
        6,
        f"top-10 search equals the exhaustive oracle on {exact_matches}/100 queries and "
        "persistence round-trips bit-identically",
        exact_matches == 100 and round_trip_ok,
    )


GOLDEN_LAYOUT = """
<Layout>
  <TextView id="B"/>
  <Button id="A" layout_centeredBelow="B" onClick="onBuy"/>
</Layout>
"""

FOUR_FINDINGS_LAYOUT = """
<Layout>
  <Button id="buy"/>
  <TextView id="A" layout_below="B"/>
  <TextView id="B" visibility="gone"/>
  <TextView id="C" layout_below="D"/>
  <TextView id="D" layout_below="C"/>
  <TextView id="E" layout_toLeftOf="Z"/>
</Layout>
"""


def test_criterion_7_layout_golden():
    golden = check_layout_source(GOLDEN_LAYOUT)
    four = check_layout_source(FOUR_FINDINGS_LAYOUT)
    kinds = {f.kind for f in four.findings}
    check(
        7,
        "golden layout renders the exact reference sentence and the four-finding "
        "fixture yields exactly the four finding kinds",
        [s.text for s in golden.statements] == ["Button A is centered below TextView B"]
        and len(four.findings) == 4
        and kinds
        == {
            FindingKind.MISSING_CLICK_HANDLER,
            FindingKind.CONFLICTING_VISIBILITY,
            FindingKind.CONSTRAINT_CYCLE,
            FindingKind.DANGLING_REFERENCE,
        },
    )


def synthetic_layout(n_widgets=500, n_edges=2000):
    parts = ["<Layout>"]
    edges = 0
    for i in range(n_widgets):
        attrs = [f'id="w{i}"']
        for attr, offset in (
            ("layout_below", 1),
            ("layout_toLeftOf", 2),
            ("layout_centeredBelow", 3),
            ("layout_toRightOf", 4),
        ):
            if i - offset >= 0 and edges < n_edges:
                attrs.append(f'{attr}="w{i - offset}"')
                edges += 1
        if edges < n_edges:
            attrs.append('layout_centerInParent="true"')
            edges += 1
        parts.append(f"<TextView {' '.join(attrs)}/>")
    parts.append("</Layout>")
    return "".join(parts), edges


def test_criterion_8_layout_performance():
    xml, edges = synthetic_layout()
    assert edges == 2000
    timings = []
    for _ in range(10):
        report = check_layout_source(xml)
        assert len(report.statements) == 2000
        timings.append(report.elapsed_ms)
    median_ms = sorted(timings)[len(timings) // 2]
    check(
        8,
        f"500-widget / 2000-edge validity check (parse included) median {median_ms:.1f} ms",
        # The 200 ms budget, and a tighter 40 ms gate: medians of 7.3-7.7 ms
        # measured on a 2-vCPU VM whose speed drifts up to 2x.
        median_ms <= 200.0 and median_ms <= 40.0,
    )


def test_criterion_9_fusion_contract():
    priors_ok = (
        DEFAULT_PRIORS[ContextSource.IDE_INTERACTION] == 0.63
        and DEFAULT_PRIORS[ContextSource.CODE_CONTEXT] == 0.27
        and DEFAULT_PRIORS[ContextSource.RUNTIME_LOG] == 0.10
        and abs(sum(DEFAULT_PRIORS.values()) - 1.0) <= 1e-9
    )

    rng = np.random.default_rng(909)
    q = rng.standard_normal(768)
    q /= np.linalg.norm(q)
    shared = q.copy()
    pair = [
        ContextItem(ContextSource.IDE_INTERACTION, shared, "ide", 3.0, 5),
        ContextItem(ContextSource.CODE_CONTEXT, shared, "code", 3.0, 5),
    ]
    scored_pair = score_items(q, pair, now=3.0)
    ratio = scored_pair[0].weight / scored_pair[1].weight
    ratio_ok = abs(ratio - 0.63 / 0.27) <= 1e-9

    def vector_at(cos_target, ortho):
        return cos_target * q + np.sqrt(1 - cos_target**2) * ortho

    monotone_ok = True
    for _ in range(1000):
        ortho = rng.standard_normal(768)
        ortho -= np.dot(ortho, q) * q
        ortho /= np.linalg.norm(ortho)
        low_cos = rng.uniform(-0.9, 0.85)
        high_cos = low_cos + rng.uniform(0.01, 0.1)
        others = [
            ContextItem(ContextSource.RUNTIME_LOG, rng.standard_normal(768), "r", 0.0, 3),
            ContextItem(ContextSource.IDE_INTERACTION, rng.standard_normal(768), "i", 1.0, 3),
        ]
        low_item = ContextItem(ContextSource.CODE_CONTEXT, vector_at(low_cos, ortho), "x", 2.0, 3)
        high_item = ContextItem(ContextSource.CODE_CONTEXT, vector_at(high_cos, ortho), "x", 2.0, 3)
        weight_low = next(s.weight for s in score_items(q, others + [low_item], now=2.0) if s.item is low_item)
        weight_high = next(s.weight for s in score_items(q, others + [high_item], now=2.0) if s.item is high_item)
        if weight_high < weight_low:
            monotone_ok = False
            break

    budget_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        items = [
            ContextItem(
                ContextSource.CODE_CONTEXT,
                rng.standard_normal(768),
                f"t{j}",
                float(j),
                int(rng.integers(1, 900)),
            )
            for j in range(n)
        ]
        budget = int(rng.integers(0, 2000))
        fused = assemble_context(score_items(q, items, now=float(n)), budget)
        if fused.total_tokens > budget:
            budget_ok = False
            break

    check(
        9,
        "fusion priors are exactly (0.63, 0.27, 0.10), the cross-source ratio matches, "
        "1000-case monotonicity holds, and 1000 random assemblies never exceed budget",
        priors_ok and ratio_ok and monotone_ok and budget_ok,
    )


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli_main(["simulate", "--seed", "42", "--n-tasks", "2000", "--out", str(out_a)])
    code_b = cli_main(["simulate", "--seed", "42", "--n-tasks", "2000", "--out", str(out_b)])
    capsys.readouterr()
    identical = out_a.read_bytes() == out_b.read_bytes()
    json.loads(out_a.read_text())  # verify the report is valid JSON
    check(
        10,
        "two CLI simulate runs with the same config and seed emit byte-identical reports",
        code_a == 0 and code_b == 0 and identical,
    )
