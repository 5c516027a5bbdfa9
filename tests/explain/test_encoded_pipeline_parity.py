"""End-to-end encoded-pipeline parity: explanations never change, only cost.

The batched query path serves every KL-LUCB round as one encoded
perturbation batch; the sequential path (``batch_queries=False``) draws the
same perturbations as plain blocks and queries them one at a time.  The
encoding is representation-only by contract — these tests pin that
explanations, their query counts and the KL bound values are bit-for-bit
identical either way, and that the session-level row accounting actually
observes the encoded traffic.
"""

import pytest

from repro.explain.explainer import CometExplainer
from repro.explain.precision import (
    _BOUND_MEMO,
    bernoulli_lower_bound,
    bernoulli_upper_bound,
)
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.perturb.algorithm import forced_engine
from repro.runtime.session import ExplanationSession
from repro.utils.tally import process_tally

from tests.conftest import explanation_fingerprint


def _explain_all(blocks, config):
    model = CachedCostModel(AnalyticalCostModel("hsw"))
    explainer = CometExplainer(model, config, rng=7)
    # Unsharded, so the rows are drawn in this process and the process
    # snapshot sees them on every backend lane.
    explanations = explainer.explain_many(blocks, rng=7, shards=None)
    return explanations, model


class TestEndToEndParity:
    def test_encoded_and_sequential_results_are_identical(
        self, tiny_blocks, fast_config
    ):
        encoded, encoded_model = _explain_all(tiny_blocks, fast_config)
        sequential, sequential_model = _explain_all(
            tiny_blocks, fast_config.with_overrides(batch_queries=False)
        )
        assert [explanation_fingerprint(e) for e in encoded] == [
            explanation_fingerprint(e) for e in sequential
        ]
        # Fresh model per lane, deterministic rng: even the query accounting
        # (excluded from the fingerprint for shared-cache runs) must agree.
        assert [e.num_queries for e in encoded] == [
            e.num_queries for e in sequential
        ]
        assert encoded_model.query_count == sequential_model.query_count
        assert encoded_model.hits == sequential_model.hits

    def test_encoded_lane_actually_runs_encoded(self, tiny_blocks, fast_config):
        base = process_tally()
        # Only the wave engine emits deferred rows — pin it so this holds
        # on the scalar-oracle CI lane too.
        with forced_engine("soa"):
            _explain_all(tiny_blocks, fast_config)
        delta = process_tally().delta(base)
        assert delta.encoded > 0
        # The analytical row kernel plus content-key caching keep the whole
        # batched path block-free; nothing should need materialising.
        assert delta.materialized == 0

    def test_sequential_lane_stays_dark(self, tiny_blocks, fast_config):
        base = process_tally()
        # Even on the wave engine, sequential queries take plain blocks from
        # ``perturb_many``: no row is deferred, so none is counted.
        with forced_engine("soa"):
            _explain_all(
                tiny_blocks[:1], fast_config.with_overrides(batch_queries=False)
            )
        delta = process_tally().delta(base)
        assert delta.encoded == 0
        assert delta.materialized == 0

    def test_reference_engine_stays_dark(self, tiny_blocks, fast_config):
        base = process_tally()
        with forced_engine("reference"):
            _explain_all(tiny_blocks, fast_config)
        delta = process_tally().delta(base)
        assert delta.encoded == 0
        assert delta.materialized > 0


class TestBoundMemo:
    GRID = [
        (0.0, 5), (0.02, 12), (0.25, 40), (0.5, 7), (0.73, 100), (1.0, 3),
    ]

    @pytest.mark.parametrize("p_hat,n", GRID)
    def test_memoised_bounds_equal_fresh_bisection(self, p_hat, n):
        beta = 1.9
        _BOUND_MEMO.clear()
        fresh_upper = bernoulli_upper_bound(p_hat, n, beta)
        fresh_lower = bernoulli_lower_bound(p_hat, n, beta)
        assert len(_BOUND_MEMO) == 2
        # Every later call is served from the memo and must equal the
        # bisection computed on the empty memo bit for bit.
        for _ in range(2):
            assert bernoulli_upper_bound(p_hat, n, beta) == fresh_upper
            assert bernoulli_lower_bound(p_hat, n, beta) == fresh_lower

    def test_zero_samples_bypasses_memo(self):
        assert bernoulli_upper_bound(0.5, 0, 1.0) == 1.0
        assert bernoulli_lower_bound(0.5, 0, 1.0) == 0.0


class TestSessionAccounting:
    def test_session_stats_count_encoded_rows(self, fast_config, tiny_blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with forced_engine("soa"):
            with ExplanationSession(model, fast_config, rng=3) as session:
                session.explain(tiny_blocks[0])
                stats = session.stats()
        assert stats.encoded_rows > 0
        assert stats.materialized_rows == 0
        assert f"{stats.encoded_rows} encoded rows" in stats.describe()

    def test_describe_omits_encoded_rows_when_dark(self, fast_config, tiny_blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with forced_engine("reference"):
            with ExplanationSession(model, fast_config, rng=3) as session:
                session.explain(tiny_blocks[0])
                stats = session.stats()
        assert stats.encoded_rows == 0
        assert "encoded rows" not in stats.describe()
