"""Block-sharded ``explain_many``: parity, determinism and plan semantics.

Sharding partitions a fleet across backend workers, each shard running full
anchor searches.  The contract: for a fresh session and a fixed seed, the
sharded result payload is bit-for-bit the unsharded one, on every backend,
including fleets with repeated blocks (whose population-record reuse must
happen exactly where the serial loop would reuse).
"""

import os

import pytest

from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel
from repro.models.mca import PortPressureCostModel
from repro.runtime.backend import ProcessBackend
from repro.runtime.session import ExplanationSession
from repro.utils.errors import BackendError

from tests.conftest import FAST_CONFIG, explanation_fingerprint


def _workload(tiny_blocks):
    # Repeats included on purpose: they exercise the key-grouped partitioning
    # (all occurrences of one block must land in one shard, in order).
    return list(tiny_blocks) + [tiny_blocks[0], tiny_blocks[2], tiny_blocks[0]]


def _fleet(blocks, *, backend, shards, workers=3, model=None, seed=11):
    model = model or AnalyticalCostModel("hsw")
    with ExplanationSession(
        model, FAST_CONFIG, backend=backend, workers=workers
    ) as session:
        return [
            explanation_fingerprint(e)
            for e in session.explain_many(blocks, rng=seed, shards=shards)
        ]


class TestShardedParity:
    @pytest.fixture(scope="class")
    def baseline(self, tiny_blocks):
        return _fleet(_workload(tiny_blocks), backend="serial", shards=None)

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("serial", 3),
            ("thread", "auto"),
            ("thread", 2),
            ("process", "auto"),
            ("process", 5),  # more shards than distinct-block groups
        ],
    )
    def test_sharded_matches_unsharded(self, tiny_blocks, baseline, backend, shards):
        assert _fleet(_workload(tiny_blocks), backend=backend, shards=shards) == baseline

    def test_sharded_deterministic_across_runs(self, tiny_blocks):
        first = _fleet(_workload(tiny_blocks), backend="thread", shards="auto")
        second = _fleet(_workload(tiny_blocks), backend="thread", shards="auto")
        assert first == second

    def test_process_sharding_on_simulator_model(self, tiny_blocks):
        # The motivating case: whole GIL-bound searches fan out per worker.
        serial = _fleet(
            tiny_blocks,
            backend="serial",
            shards=None,
            model=CachedCostModel(PortPressureCostModel("hsw")),
        )
        sharded = _fleet(
            tiny_blocks,
            backend="process",
            shards="auto",
            workers=2,
            model=CachedCostModel(PortPressureCostModel("hsw")),
        )
        assert sharded == serial

    def test_explainer_api_passes_shards_through(self, tiny_blocks):
        from repro.explain.explainer import CometExplainer

        baseline = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")), FAST_CONFIG
        ).explain_many(tiny_blocks, rng=3)
        sharded = CometExplainer(
            CachedCostModel(AnalyticalCostModel("hsw")),
            FAST_CONFIG,
            backend="thread",
            workers=2,
        ).explain_many(tiny_blocks, rng=3, shards="auto")
        assert [explanation_fingerprint(e) for e in sharded] == [
            explanation_fingerprint(e) for e in baseline
        ]


class TestShardPlan:
    def _plan(self, blocks, shards, workers=4):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="thread", workers=workers
        ) as session:
            return session._shard_plan(blocks, shards)

    def test_default_is_sequential(self, tiny_blocks):
        assert self._plan(tiny_blocks, None) is None

    def test_zero_and_one_stay_sequential(self, tiny_blocks):
        assert self._plan(tiny_blocks, 0) is None
        assert self._plan(tiny_blocks, 1) is None

    def test_auto_sizes_to_workers(self, tiny_blocks):
        plan = self._plan(_workload(tiny_blocks), "auto", workers=2)
        assert len(plan) == 2

    def test_plan_covers_every_position_once(self, tiny_blocks):
        workload = _workload(tiny_blocks)
        plan = self._plan(workload, 3)
        positions = sorted(p for shard in plan for p in shard)
        assert positions == list(range(len(workload)))

    def test_duplicate_blocks_share_a_shard_in_order(self, tiny_blocks):
        workload = _workload(tiny_blocks)
        plan = self._plan(workload, 3)
        for shard in plan:
            assert shard == sorted(shard)
        # All occurrences of tiny_blocks[0] (positions 0, 3, 5) co-located.
        containing = [shard for shard in plan if 0 in shard]
        assert len(containing) == 1
        assert {3, 5} <= set(containing[0])

    def test_shard_count_capped_by_distinct_blocks(self, tiny_blocks):
        plan = self._plan(_workload(tiny_blocks), 16)
        assert len(plan) == len(tiny_blocks)  # 3 distinct keys

    def test_single_block_never_shards(self, tiny_blocks):
        assert self._plan(tiny_blocks[:1], 4) is None

    def test_invalid_shards_rejected(self, tiny_blocks):
        with pytest.raises(BackendError):
            self._plan(tiny_blocks, "most")


class TestShardedStats:
    """``SessionStats`` reads the same totals whichever backend ran the fleet.

    Process shards count their queries, cache lookups and Γ rows in the
    workers; the session folds those tallies back in, so a process-sharded
    run no longer reports zeros next to the serial run's real counts.
    """

    FIELDS = (
        "explanations",
        "model_queries",
        "cache_hits",
        "cache_misses",
        "cache_hit_rate",
        "perturbations",
        "perturb_fallbacks",
        "encoded_rows",
        "materialized_rows",
    )

    class InProcessShards(ProcessBackend):
        """Process shards that ran in this process, as they do when an
        exhausted retry policy falls back to serial execution."""

        def map_batch(self, fn, items):
            return [fn(item) for item in items]

    @staticmethod
    def _run(backend, blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        workers = None if isinstance(backend, ProcessBackend) else 2
        with ExplanationSession(
            model, FAST_CONFIG, backend=backend, workers=workers
        ) as session:
            explanations = session.explain_many(blocks, rng=3)
            stats = session.stats()
        return explanations, stats

    def test_stats_match_across_backends(self, block_fleet):
        blocks = block_fleet[:4]
        runs = {
            backend: self._run(backend, blocks)
            for backend in ("serial", "thread", "process")
        }
        with self.InProcessShards(2) as fallback:
            runs["process-fallback"] = self._run(fallback, blocks)
        serial_explanations, serial_stats = runs["serial"]
        assert serial_stats.model_queries == sum(
            e.num_queries for e in serial_explanations
        )
        # The workload must reach the row tallies this test compares: the
        # wave engine emits encoded rows, the reference engine (the
        # REPRO_PERTURB_ENGINE=reference lane) materialised ones only.
        if os.environ.get("REPRO_PERTURB_ENGINE") == "reference":
            rows = serial_stats.materialized_rows
        else:
            rows = serial_stats.encoded_rows
        assert serial_stats.perturbations > 0 and rows > 0
        expected = {f: getattr(serial_stats, f) for f in self.FIELDS}
        for backend, (explanations, stats) in runs.items():
            assert [explanation_fingerprint(e) for e in explanations] == [
                explanation_fingerprint(e) for e in serial_explanations
            ], backend
            assert {f: getattr(stats, f) for f in self.FIELDS} == expected, backend


class TestShardWorker:
    """The process-shard worker function, exercised in-process.

    ``_explain_shard_remote`` normally runs inside pool workers where
    coverage cannot see it; it is a plain function, so its contract — same
    explanations as the session path, records rebuilt per shard — is pinned
    directly here.
    """

    def test_worker_matches_session_results(self, tiny_blocks):
        from repro.runtime.session import _explain_shard_remote
        from repro.utils.rng import spawn_rngs

        workload = _workload(tiny_blocks)
        with ExplanationSession(AnalyticalCostModel("hsw"), FAST_CONFIG) as session:
            expected = [
                explanation_fingerprint(e)
                for e in session.explain_many(workload, rng=7)
            ]
        streams = spawn_rngs(7, len(workload))
        payload = (
            AnalyticalCostModel("hsw"),
            FAST_CONFIG,
            list(zip(range(len(workload)), workload, streams)),
            100_000,
        )
        pairs, tally = _explain_shard_remote(payload)
        assert [position for position, _ in pairs] == list(range(len(workload)))
        assert [explanation_fingerprint(e) for _, e in pairs] == expected
        # The shard reports its own accounting: every query it made and
        # every perturbation it drew.
        assert tally.queries == sum(e.num_queries for _, e in pairs) > 0
        assert tally.perturbations > 0

    def test_worker_honours_disabled_shared_background(self, tiny_blocks):
        from repro.runtime.session import _explain_shard_remote
        from repro.utils.rng import spawn_rngs

        config = FAST_CONFIG.with_overrides(shared_background=False)
        streams = spawn_rngs(0, 2)
        payload = (
            AnalyticalCostModel("hsw"),
            config,
            [(0, tiny_blocks[0], streams[0]), (1, tiny_blocks[0], streams[1])],
            100_000,
        )
        pairs, _tally = _explain_shard_remote(payload)
        assert len(pairs) == 2


class TestRuntimeLazyExports:
    def test_session_importable_from_package_root(self):
        import repro.runtime as runtime

        assert runtime.ExplanationSession is ExplanationSession
        assert runtime.SessionStats is not None

    def test_unknown_attribute_rejected(self):
        import repro.runtime as runtime

        with pytest.raises(AttributeError):
            runtime.NoSuchThing


class TestShardedAccounting:
    """Per-explanation ``num_queries`` must not depend on the substrate.

    Searches measure their queries through thread-scoped tallies
    (``CostModel.query_tally``), so a shard thread counts only its own
    cache misses — concurrent shards cannot pollute each other — and the
    key-grouped partitioning keeps each block's cache history identical to
    the serial loop's.  The result: the *whole* ``num_queries`` vector of a
    fresh fleet run is equal on every backend, sharded or not, repeats
    included.
    """

    @pytest.fixture(scope="class")
    def baseline_queries(self, tiny_blocks):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(model, FAST_CONFIG, backend="serial") as session:
            return [
                e.num_queries
                for e in session.explain_many(_workload(tiny_blocks), rng=11, shards=None)
            ]

    @pytest.mark.parametrize(
        "backend,shards",
        [
            ("serial", None),
            ("serial", 3),
            ("thread", "auto"),
            ("thread", 2),
            ("process", "auto"),
            ("process", 5),
        ],
    )
    def test_num_queries_matches_unsharded_serial(
        self, tiny_blocks, baseline_queries, backend, shards
    ):
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        with ExplanationSession(
            model, FAST_CONFIG, backend=backend, workers=3
        ) as session:
            queries = [
                e.num_queries
                for e in session.explain_many(_workload(tiny_blocks), rng=11, shards=shards)
            ]
        assert queries == baseline_queries
        assert all(q > 0 for q in queries[: len(tiny_blocks)])  # fresh blocks query

    def test_auto_sharding_is_now_the_fleet_default(self, tiny_blocks):
        """The default ``shards="auto"`` actually shards on parallel backends."""
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="thread", workers=2
        ) as session:
            plan = session._shard_plan(_workload(tiny_blocks), "auto")
            assert plan is not None and len(plan) == 2
            import inspect

            signature = inspect.signature(session.explain_many)
            assert signature.parameters["shards"].default == "auto"

    def test_session_counts_every_explanation(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="thread", workers=2
        ) as session:
            session.explain_many(_workload(tiny_blocks), rng=0, shards="auto")
            assert session.explanations_produced == len(_workload(tiny_blocks))

    def test_thread_sharding_keeps_shared_cache_warm(self, tiny_blocks):
        with ExplanationSession(
            AnalyticalCostModel("hsw"), FAST_CONFIG, backend="thread", workers=2
        ) as session:
            session.explain_many(tiny_blocks, rng=0, shards="auto")
            stats = session.stats()
            # In-process shards share the session cache: lookups were served.
            assert stats.cache_hits > 0
            assert stats.model_queries > 0
