"""Encoded-batch prediction parity: every model, one contract.

``predict_batch`` on a :class:`PerturbationBatch` must return exactly what
it returns on the materialised block list — whether the model predicts
straight from instruction references (analytical, Ithemal, the uiCA
simulator when it runs in-process), dedupes through content keys (the cache
wrapper), or silently materialises because it has no row kernel (callable
models, and uiCA while it fans batches out to backend workers).  The
accounting satellite rides along: :meth:`CostModel.query_tally` exposes how
many rows stayed encoded.
"""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.data.synthesis import BlockSynthesizer
from repro.models.analytical import AnalyticalCostModel
from repro.models.base import CachedCostModel, CallableCostModel
from repro.models.ithemal import IthemalConfig, IthemalCostModel
from repro.models.uica import UiCACostModel
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.batch import EncodedRow, PerturbationBatch
from repro.runtime.backend import ThreadBackend


def _block():
    return BasicBlock.from_text(
        "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4\n"
        "mov qword ptr [rsi], rdx\nadd rax, 1"
    )


@pytest.fixture(scope="module")
def batch():
    """A wave-engine batch with genuine deferred rows."""
    produced = BlockPerturber(_block(), engine="soa").perturb_batch(
        40, rng=np.random.default_rng(21)
    )
    assert any(isinstance(row, EncodedRow) for row in produced.rows)
    return produced


@pytest.fixture(scope="module")
def blocks(batch):
    # Materialise a *copy* of the rows so the module-scoped batch keeps its
    # deferred rows deferred for the tests that assert on encoded counts.
    return [
        row.template.with_instructions(row.refs)
        if isinstance(row, EncodedRow)
        else row
        for row in batch.rows
    ]


def _tiny_ithemal():
    return IthemalCostModel(
        "hsw", IthemalConfig(embedding_size=8, hidden_size=8, epochs=1)
    )


#: Models whose row kernel predicts without a block (uiCA: no backend).
KERNEL_MODELS = pytest.mark.parametrize(
    "factory",
    [lambda: AnalyticalCostModel("hsw"), lambda: UiCACostModel("hsw")],
    ids=["analytical", "uica"],
)


class TestKernelModels:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AnalyticalCostModel("hsw"),
            _tiny_ithemal,
            lambda: UiCACostModel("hsw"),
        ],
        ids=["analytical", "ithemal", "uica"],
    )
    def test_encoded_parity_is_exact(self, batch, blocks, factory):
        model = factory()
        # Encoded and materialised paths share the row kernel, so the float
        # stream is identical — exact equality, not allclose.
        assert model.predict_batch(batch) == model.predict_batch(blocks)

    def test_analytical_encoded_matches_per_block_predict(self, batch, blocks):
        model = AnalyticalCostModel("hsw")
        assert model.predict_batch(batch) == [model._predict(b) for b in blocks]

    @KERNEL_MODELS
    def test_kernel_models_count_one_query_per_row(self, batch, factory):
        model = factory()
        model.predict_batch(batch)
        assert model.query_count == len(batch)

    def test_encoded_rows_reach_tally(self, batch):
        model = AnalyticalCostModel("hsw")
        base = model.query_tally()
        fresh = BlockPerturber(_block(), engine="soa").perturb_batch(
            30, rng=np.random.default_rng(33)
        )
        model.predict_batch(fresh)
        delta = model.query_tally().delta(base)
        assert delta.encoded + delta.materialized >= 30
        assert delta.encoded > 0
        # A row kernel never builds blocks for rows that arrived deferred.
        assert all(
            not isinstance(row, EncodedRow) or not row.materialized
            for row in fresh.rows
        )


class TestKernellessModels:
    def test_uica_fans_out_without_row_kernel(self):
        class CountingBackend(ThreadBackend):
            fanned = []

            def predict_blocks(self, model, blocks):
                self.fanned.append(len(blocks))
                return super().predict_blocks(model, blocks)

        def draw():
            return BlockPerturber(_block(), engine="soa").perturb_batch(
                20, rng=np.random.default_rng(17)
            )

        fresh = draw()
        expected = UiCACostModel("hsw").predict_batch(draw().blocks())
        with UiCACostModel("hsw", backend=CountingBackend(2)) as model:
            # A multi-worker backend takes batches as blocks: no row kernel,
            # the encoded rows materialise, and the predictions stay exact.
            assert model._rows_kernel() is None
            assert model.predict_batch(fresh) == expected
            assert CountingBackend.fanned == [len(fresh)]
            assert fresh.encoded_count == 0
            model.execution_backend.close()

    def test_callable_model_materialises_and_matches(self):
        model = CallableCostModel(lambda b: float(b.num_instructions), name="count")
        fresh = BlockPerturber(_block(), engine="soa").perturb_batch(
            25, rng=np.random.default_rng(5)
        )
        base = model.query_tally()
        expected = [float(len(row.refs if isinstance(row, EncodedRow) else row))
                    for row in fresh.rows]
        assert model.predict_batch(fresh) == expected
        delta = model.query_tally().delta(base)
        # Every deferred row had to be built for the block-wise fallback.
        assert delta.materialized >= sum(
            1 for row in fresh.rows if isinstance(row, EncodedRow)
        )


class TestCachedModel:
    def test_cached_parity_and_dedupe(self, batch, blocks):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        results = cached.predict_batch(batch)
        assert results == CachedCostModel(AnalyticalCostModel("hsw")).predict_batch(
            blocks
        )
        # The inner model saw each distinct content key exactly once.
        unique = len({row.key() for row in batch.rows})
        assert cached.inner.query_count == unique
        assert cached.misses == unique
        assert cached.hits == len(batch) - unique

    def test_cached_hits_on_previously_cached_blocks(self, batch, blocks):
        cached = CachedCostModel(AnalyticalCostModel("hsw"))
        cached.predict_batch(blocks)  # warm through the materialised path
        before = cached.inner.query_count
        cached.predict_batch(batch)  # encoded rows must hit those entries
        assert cached.inner.query_count == before

    @KERNEL_MODELS
    def test_cached_keeps_rows_encoded(self, factory):
        cached = CachedCostModel(factory())
        fresh = BlockPerturber(_block(), engine="soa").perturb_batch(
            30, rng=np.random.default_rng(8)
        )
        deferred = fresh.encoded_count
        assert deferred > 0
        cached.predict_batch(fresh)
        # Keying and the row kernel never materialise.
        assert fresh.encoded_count == deferred


class TestSegmented:
    def _segments(self):
        perturber = BlockPerturber(_block(), engine="soa")
        rng = np.random.default_rng(13)
        return [perturber.perturb_batch(n, rng=rng) for n in (7, 0, 12, 5)]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AnalyticalCostModel("hsw"),
            lambda: CachedCostModel(AnalyticalCostModel("hsw")),
            _tiny_ithemal,
            lambda: UiCACostModel("hsw"),
        ],
        ids=["analytical", "cached", "ithemal", "uica"],
    )
    def test_segmented_parity(self, factory):
        segments = self._segments()
        flat = [block for segment in segments for block in segment.blocks()]
        model = factory()
        values, tallies, _ = model.predict_batch_segmented(segments)
        assert [len(v) for v in values] == [len(s) for s in segments]
        assert sum(t.queries for t in tallies) == len(flat)
        assert [p for segment in values for p in segment] == factory().predict_batch(
            flat
        )

    def test_segmented_accepts_mixed_representations(self):
        segments = self._segments()
        mixed = [segments[0], segments[1].blocks(), segments[2], segments[3].blocks()]
        model = CachedCostModel(AnalyticalCostModel("hsw"))
        values, _, _ = model.predict_batch_segmented(mixed)
        flat = [block for segment in segments for block in segment.blocks()]
        assert [p for segment in values for p in segment] == CachedCostModel(
            AnalyticalCostModel("hsw")
        ).predict_batch(flat)


class TestIthemalEmbedMemo:
    def test_predict_populates_memo(self, batch):
        model = _tiny_ithemal()
        model.predict_batch(batch)
        assert model._embed_memo

    def test_train_invalidates_memo(self, blocks):
        model = _tiny_ithemal()
        model.predict_batch(blocks[:8])
        assert model._embed_memo
        model.train(blocks[:8], [float(len(b)) for b in blocks[:8]], epochs=1)
        # Training mutates the embedding matrix in place; predictions after
        # training must come from the updated weights, not stale pools.
        fresh = _tiny_ithemal()
        fresh.train(blocks[:8], [float(len(b)) for b in blocks[:8]], epochs=1)
        assert model.predict_batch(blocks[:8]) == fresh.predict_batch(blocks[:8])

    def test_load_starts_with_clean_memo(self, tmp_path, blocks):
        model = _tiny_ithemal()
        model.train(blocks[:6], [float(len(b)) for b in blocks[:6]], epochs=1)
        path = tmp_path / "ithemal.npz"
        model.save(path)
        restored = IthemalCostModel.load(path)
        assert not restored._embed_memo
        assert restored.predict_batch(blocks[:6]) == model.predict_batch(blocks[:6])
