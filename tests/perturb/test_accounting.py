"""Γ accounting: counters, fallback surfacing, and the plan-cache bound.

PR 9's satellite fixes around the perturbation engine: ``perturb_many``
falling back to the original block used to be silent (each fallback
injects a trivially-preserving sample into precision estimates), and the
per-perturber constraint-plan cache used to grow without limit in warm
sessions.  This suite pins the accounting at every level it surfaces —
per perturber, process-wide, per thread (``QueryTally``), per session
(``SessionStats``) — plus the once-per-block warning and the LRU bound.
"""

import threading
import warnings

import pytest

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.data.synthesis import BlockSynthesizer
from repro.models.analytical import AnalyticalCostModel
from repro.perturb.algorithm import (
    _FALLBACK_WARNING_MIN,
    BlockPerturber,
    perturb_tally,
    plan_cache_entries,
    thread_perturb_tally,
)
from repro.perturb.config import PerturbationConfig
from repro.runtime.session import ExplanationSession

from tests.conftest import FAST_CONFIG


@pytest.fixture
def block():
    return BlockSynthesizer(rng=3).generate(6)


class TestCounters:
    def test_perturb_many_counts_at_every_level(self, block):
        process_before = perturb_tally()
        thread_before = thread_perturb_tally()
        perturber = BlockPerturber(block, rng=0)

        perturber.perturb_many(25)

        assert perturber.perturbations == 25
        assert perturb_tally().delta(process_before).perturbations == 25
        assert thread_perturb_tally().delta(thread_before).perturbations == 25

    def test_thread_tally_is_isolated_per_thread(self, block):
        before = thread_perturb_tally()

        def work():
            BlockPerturber(block, rng=1).perturb_many(10)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()

        # The worker's perturbations land in the process total, not ours.
        assert thread_perturb_tally().delta(before).perturbations == 0

    def test_query_tally_carries_perturb_counters(self, block):
        model = AnalyticalCostModel("hsw")
        before = model.query_tally()
        BlockPerturber(block, rng=2).perturb_many(7)
        delta = model.query_tally().delta(before)
        assert delta.perturbations == 7
        assert delta.perturb_fallbacks == 0


class TestFallbacks:
    def _all_attempts_fail(self, block, **kwargs):
        """A perturber whose every attempt fails validity → pure fallbacks."""
        perturber = BlockPerturber(block, rng=0, engine="reference", **kwargs)
        perturber._perturb_once = lambda plan, rng: None
        return perturber

    def test_fallbacks_counted(self, block):
        before = perturb_tally()
        perturber = self._all_attempts_fail(block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = perturber.perturb_many(5)
        assert out == [block] * 5
        assert perturber.fallbacks == 5
        delta = perturb_tally().delta(before)
        assert delta.perturbations == 5
        assert delta.fallbacks == 5

    def test_fallbacks_counted_on_the_wave_engine(self, block):
        """Wave rows whose resolution and every reference retry fail fall back
        too, on both the eager and the encoded entry point."""
        # Retaining nothing flags every row, so no row skips the resolver.
        config = PerturbationConfig(p_instruction_retain=0.0)
        perturber = BlockPerturber(block, config, rng=0, engine="soa")
        perturber._resolve_row = lambda *args: None
        perturber._perturb_once = lambda plan, rng: None
        before = perturb_tally()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = perturber.perturb_many(5)
            batch = perturber.perturb_batch(5)
        assert out == [block] * 5
        assert all(row is block for row in batch.rows)
        assert perturber.fallbacks == 10
        delta = perturb_tally().delta(before)
        assert delta.perturbations == 10
        assert delta.fallbacks == 10

    def test_warning_fires_once_above_rate_threshold(self, block):
        perturber = self._all_attempts_fail(block)
        with pytest.warns(RuntimeWarning, match="fell back to the original"):
            perturber.perturb_many(_FALLBACK_WARNING_MIN)
        # Second batch: counters keep rising, but the warning is once-per-block.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perturber.perturb_many(10)
        assert perturber.fallbacks == _FALLBACK_WARNING_MIN + 10

    def test_no_warning_below_minimum_volume(self, block):
        perturber = self._all_attempts_fail(block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perturber.perturb_many(_FALLBACK_WARNING_MIN - 1)


class TestPlanCache:
    def test_plan_cache_is_lru_bounded(self, block):
        features = extract_features(block)
        perturber = BlockPerturber(block, rng=0, max_cached_plans=4)
        for feature in features:
            perturber.perturb_many(1, [feature])
        assert perturber.plan_cache_size <= 4

    def test_plan_cache_gauge_sees_live_perturbers(self, block):
        perturber = BlockPerturber(block, rng=0)
        perturber.perturb_many(1)
        assert plan_cache_entries() >= perturber.plan_cache_size >= 1


class TestSessionStats:
    def test_session_stats_expose_perturb_accounting(self, block):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, rng=0
        ) as session:
            session.explain(block)
            stats = session.stats()
        assert stats.perturbations > 0
        assert 0 <= stats.perturb_fallbacks <= stats.perturbations
        assert stats.plan_cache_entries >= 0
