import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devmux.configfile import DEFAULT_PRIORS, VECTOR_DIM
from devmux.fusion import (
    ContextItem,
    ContextSource,
    FusionWeights,
    ScoredItem,
    assemble_context,
    score_items,
)


def unit(seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(VECTOR_DIM)
    return v / np.linalg.norm(v)


def vector_at_cosine(query, other, target_cos):
    """Vector with an exact cosine against `query`, in the query/other plane."""
    ortho = other - np.dot(other, query) * query
    ortho /= np.linalg.norm(ortho)
    return target_cos * query + np.sqrt(1.0 - target_cos**2) * ortho


def make_item(source, vector, ts=0.0, tokens=10, near_bp=False, text="x"):
    return ContextItem(source, vector, text, ts, tokens, near_bp)


def test_default_priors_exact():
    assert DEFAULT_PRIORS[ContextSource.IDE_INTERACTION] == 0.63
    assert DEFAULT_PRIORS[ContextSource.CODE_CONTEXT] == 0.27
    assert DEFAULT_PRIORS[ContextSource.RUNTIME_LOG] == 0.10
    assert abs(sum(DEFAULT_PRIORS.values()) - 1.0) <= 1e-9


def test_single_item_gets_weight_one():
    q = unit(1)
    scored = score_items(q, [make_item(ContextSource.CODE_CONTEXT, q)])
    assert scored[0].weight == pytest.approx(1.0, abs=1e-12)


def test_cross_source_ratio_is_prior_ratio():
    q = unit(2)
    items = [
        make_item(ContextSource.IDE_INTERACTION, q, ts=5.0),
        make_item(ContextSource.CODE_CONTEXT, q, ts=5.0),
    ]
    scored = score_items(q, items, now=5.0)
    by_source = {s.item.source: s.weight for s in scored}
    ratio = by_source[ContextSource.IDE_INTERACTION] / by_source[ContextSource.CODE_CONTEXT]
    assert ratio == pytest.approx(0.63 / 0.27, abs=1e-9)


def test_breakpoint_boost_doubles_weight():
    q = unit(3)
    items = [
        make_item(ContextSource.RUNTIME_LOG, q, near_bp=True),
        make_item(ContextSource.RUNTIME_LOG, q, near_bp=False),
    ]
    scored = score_items(q, items)
    assert scored[0].item.near_breakpoint
    assert scored[0].weight / scored[1].weight == pytest.approx(2.0, abs=1e-9)


def test_recency_decay_prefers_newer():
    q = unit(4)
    items = [
        make_item(ContextSource.CODE_CONTEXT, q, ts=0.0),
        make_item(ContextSource.CODE_CONTEXT, q, ts=300.0),
    ]
    scored = score_items(q, items, now=300.0)
    assert scored[0].item.timestamp_s == 300.0
    assert scored[0].weight / scored[1].weight == pytest.approx(2.0, abs=1e-9)


def test_weights_sum_to_one():
    q = unit(5)
    rng = np.random.default_rng(6)
    items = [
        make_item(src, rng.standard_normal(VECTOR_DIM), ts=float(i))
        for i, src in enumerate([ContextSource.IDE_INTERACTION, ContextSource.CODE_CONTEXT,
                                 ContextSource.RUNTIME_LOG] * 4)
    ]
    scored = score_items(q, items, now=100.0)
    assert sum(s.weight for s in scored) == pytest.approx(1.0, abs=1e-9)
    weights = [s.weight for s in scored]
    assert weights == sorted(weights, reverse=True)


def test_empty_items_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        score_items(unit(), [])


def test_now_before_timestamp_rejected():
    item = make_item(ContextSource.CODE_CONTEXT, unit(), ts=50.0)
    with pytest.raises(ValueError, match="now"):
        score_items(unit(), [item], now=10.0)


def test_bad_temperature_rejected():
    with pytest.raises(ValueError, match="temperature"):
        FusionWeights(temperature=0.0)


def test_priors_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        FusionWeights(prior={
            ContextSource.IDE_INTERACTION: 0.63,
            ContextSource.CODE_CONTEXT: 0.27,
            ContextSource.RUNTIME_LOG: 0.2,
        })


def test_near_breakpoint_restricted_to_runtime_logs():
    with pytest.raises(ValueError, match="runtime"):
        make_item(ContextSource.CODE_CONTEXT, unit(), near_bp=True)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-0.95, max_value=0.90),
    st.floats(min_value=0.01, max_value=0.09),
    st.integers(min_value=0, max_value=2**31),
)
def test_similarity_monotonicity(base_cos, bump, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(VECTOR_DIM)
    q /= np.linalg.norm(q)
    other = rng.standard_normal(VECTOR_DIM)
    fixed = [
        make_item(ContextSource.IDE_INTERACTION, rng.standard_normal(VECTOR_DIM), ts=1.0),
        make_item(ContextSource.RUNTIME_LOG, rng.standard_normal(VECTOR_DIM), ts=2.0),
    ]
    low = make_item(ContextSource.CODE_CONTEXT, vector_at_cosine(q, other, base_cos), ts=3.0)
    high = make_item(ContextSource.CODE_CONTEXT, vector_at_cosine(q, other, base_cos + bump), ts=3.0)

    weight_low = next(
        s.weight for s in score_items(q, fixed + [low], now=5.0) if s.item is low
    )
    weight_high = next(
        s.weight for s in score_items(q, fixed + [high], now=5.0) if s.item is high
    )
    assert weight_high >= weight_low


class TestAssemble:
    def scored(self, costs, weights=None):
        q = unit(7)
        if weights is None:
            weights = [1.0 / len(costs)] * len(costs)
        return [
            ScoredItem(make_item(ContextSource.CODE_CONTEXT, q, tokens=c, text=f"t{i}"), w)
            for i, (c, w) in enumerate(zip(costs, weights))
        ]

    def test_budget_zero_is_empty(self):
        fused = assemble_context(self.scored([10, 20]), budget=0)
        assert fused.entries == ()
        assert fused.total_tokens == 0

    def test_all_fit_order_preserved(self):
        scored = self.scored([10, 20, 30], weights=[0.5, 0.3, 0.2])
        fused = assemble_context(scored, budget=100)
        assert [e.item.text for e in fused.entries] == ["t0", "t1", "t2"]
        assert fused.total_tokens == 60
        assert sum(e.weight for e in fused.entries) == pytest.approx(1.0, abs=1e-9)

    def test_greedy_skip_keeps_scanning(self):
        scored = self.scored([500, 400, 300], weights=[0.5, 0.3, 0.2])
        fused = assemble_context(scored, budget=800)
        assert [e.item.token_cost for e in fused.entries] == [500, 300]
        assert fused.total_tokens == 800

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            assemble_context(self.scored([1]), budget=-1)

    def test_unsorted_input_rejected(self):
        scored = self.scored([10, 10], weights=[0.2, 0.8])
        with pytest.raises(ValueError, match="sorted"):
            assemble_context(scored, budget=100)

    def test_zero_prior_removes_source(self):
        q = unit(8)
        weights = FusionWeights(prior={
            ContextSource.IDE_INTERACTION: 0.70,
            ContextSource.CODE_CONTEXT: 0.30,
            ContextSource.RUNTIME_LOG: 0.0,
        })
        items = [
            make_item(ContextSource.RUNTIME_LOG, q, text="log"),
            make_item(ContextSource.CODE_CONTEXT, q, text="code"),
        ]
        fused = assemble_context(score_items(q, items, weights), budget=10_000)
        assert [e.item.source for e in fused.entries] == [ContextSource.CODE_CONTEXT]

    def test_rendered_text_labels_sources(self):
        q = unit(9)
        items = [make_item(ContextSource.CODE_CONTEXT, q, text="hello")]
        fused = assemble_context(score_items(q, items), budget=100)
        assert fused.rendered_text() == "[code_context] hello"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_budget_never_exceeded(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(min_value=1, max_value=12))
    budget = data.draw(st.integers(min_value=0, max_value=2_000))
    q = rng.standard_normal(VECTOR_DIM)
    items = [
        make_item(
            data.draw(st.sampled_from(list(ContextSource))),
            rng.standard_normal(VECTOR_DIM),
            ts=float(i),
            tokens=data.draw(st.integers(min_value=1, max_value=900)),
            text=f"i{i}",
        )
        for i in range(n)
    ]
    # rebuild runtime-only flag legality
    fused = assemble_context(score_items(q, items, now=float(n)), budget=budget)
    assert fused.total_tokens <= budget
    assert fused.total_tokens == sum(e.item.token_cost for e in fused.entries)
    if fused.entries:
        assert sum(e.weight for e in fused.entries) == pytest.approx(1.0, abs=1e-9)
