"""Encoded perturbation batches: round-trip parity with the materialised path.

The columnar pipeline only works if an :class:`EncodedRow` is a perfect
stand-in for the block the eager engine would have built: same content key,
same materialised block, and — critically — produced from the *same random
stream*, so switching representations can never move a single rng draw.
These tests pin that contract with hypothesis over synthetic blocks and the
full probability space of Γ configs (degenerate corners included), plus the
accounting and batch-container behaviour downstream layers rely on.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bb.block import BasicBlock
from repro.bb.features import extract_features
from repro.data.synthesis import BlockSynthesizer
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.batch import (
    EncodedRow,
    PerturbationBatch,
    encoded_tally,
    materialize_row,
    row_refs,
    thread_encoded_tally,
)
from repro.perturb.config import PerturbationConfig
from repro.perturb.sampler import PerturbationSampler

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Probability grid for Γ knobs — includes both degenerate corners (0.0/1.0
#: waves skip the pre-drawn pick rectangles and draw inside row resolution,
#: a distinct rng pattern the parity sweep must cover).
_PROBS = st.sampled_from([0.0, 0.1, 0.33, 0.5, 0.9, 1.0])


@st.composite
def synthetic_blocks(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=2, max_value=8))
    source = draw(st.sampled_from(["clang", "openblas"]))
    return BlockSynthesizer(seed).generate(size, source=source)


@st.composite
def gamma_configs(draw):
    return PerturbationConfig(
        p_instruction_retain=draw(_PROBS),
        p_dependency_retain=draw(_PROBS),
        p_delete=draw(_PROBS),
        p_dependency_explicit_retain=draw(_PROBS),
    )


def _feature_subset(draw, block):
    features = extract_features(block)
    if not features:
        return ()
    size = draw(st.integers(min_value=0, max_value=min(3, len(features))))
    if not size:
        return ()
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(features) - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    return tuple(features[i] for i in indices)


class TestRoundTripParity:
    """``materialize(encode(row))`` bit-equals the eager engine's block."""

    @given(
        block=synthetic_blocks(),
        config=gamma_configs(),
        seed=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    @settings(**_SETTINGS)
    def test_batch_rows_equal_eager_blocks_and_rng_stream(
        self, block, config, seed, data
    ):
        features = _feature_subset(data.draw, block)
        eager = BlockPerturber(block, config=config)
        encoded = BlockPerturber(block, config=config)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        blocks = eager.perturb_many(20, features, rng=rng_a)
        batch = encoded.perturb_batch(20, features, rng=rng_b)
        assert isinstance(batch, PerturbationBatch)
        assert len(batch) == len(blocks)
        for expected, row in zip(blocks, batch.rows):
            materialised = materialize_row(row)
            assert materialised.key() == expected.key()
            assert str(materialised) == str(expected)
            assert [i.key() for i in row_refs(row)] == [
                i.key() for i in expected.instructions
            ]
        # Both engines must leave the stream at the same position: any
        # divergence silently re-seeds every later draw of a session.
        assert (
            rng_a.integers(0, 2**31, size=8).tolist()
            == rng_b.integers(0, 2**31, size=8).tolist()
        )
        # Accounting parity too — the fallback counters feed SessionStats.
        assert encoded.perturbations == eager.perturbations
        assert encoded.fallbacks == eager.fallbacks

    @given(
        block=synthetic_blocks(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(**_SETTINGS)
    def test_row_key_equals_block_key(self, block, seed):
        batch = BlockPerturber(block).perturb_batch(
            10, rng=np.random.default_rng(seed)
        )
        for row in batch.rows:
            assert row.key() == materialize_row(row).key()

    def test_identity_rows_reuse_the_original_instance(self):
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        config = PerturbationConfig(
            p_instruction_retain=1.0,
            p_dependency_retain=1.0,
            p_delete=0.0,
            p_dependency_explicit_retain=1.0,
        )
        batch = BlockPerturber(block, config=config, engine="soa").perturb_batch(
            16, rng=np.random.default_rng(0)
        )
        assert all(row is block for row in batch.rows)
        assert batch.encoded_count == 0  # plain blocks, nothing deferred
        assert batch.materialized_count == len(batch)


class TestReferenceEngine:
    """The scalar oracle keeps emitting blocks — wrapped, never encoded."""

    def test_batch_wraps_plain_blocks(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        perturber = BlockPerturber(block, engine="reference")
        base = encoded_tally()
        batch = perturber.perturb_batch(12, rng=np.random.default_rng(3))
        assert isinstance(batch, PerturbationBatch)
        assert all(isinstance(row, BasicBlock) for row in batch.rows)
        delta = encoded_tally().delta(base)
        assert delta.encoded == 0
        assert delta.materialized == 12

    def test_batch_matches_perturb_many(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        oracle = BlockPerturber(block, engine="reference")
        oracle_blocks = oracle.perturb_many(8, rng=np.random.default_rng(9))
        oracle_batch = BlockPerturber(block, engine="reference").perturb_batch(
            8, rng=np.random.default_rng(9)
        )
        assert [b.key() for b in oracle_batch] == [b.key() for b in oracle_blocks]


class TestAccounting:
    def test_wave_batch_counts_encoded_rows(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        base = encoded_tally()
        thread_base = thread_encoded_tally()
        batch = BlockPerturber(block, engine="soa").perturb_batch(
            50, rng=np.random.default_rng(1)
        )
        delta = encoded_tally().delta(base)
        thread_delta = thread_encoded_tally().delta(thread_base)
        assert delta.encoded + delta.materialized == 50
        assert delta.encoded == batch.encoded_count + sum(
            1 for row in batch.rows if isinstance(row, BasicBlock) and row is block
        )
        # Single-threaded: the thread tally mirrors the process tally.
        assert thread_delta == delta

    def test_materialize_counts_once_and_memoises(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        batch = BlockPerturber(block, engine="soa").perturb_batch(
            50, rng=np.random.default_rng(2)
        )
        encoded_rows = [r for r in batch.rows if isinstance(r, EncodedRow)]
        assert encoded_rows, "workload produced no deferred rows"
        row = encoded_rows[0]
        base = encoded_tally()
        first = row.materialize()
        second = row.materialize()
        assert first is second
        assert encoded_tally().delta(base).materialized == 1
        assert row.materialized

    def test_key_memo_seeds_materialised_block(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        batch = BlockPerturber(block, engine="soa").perturb_batch(
            50, rng=np.random.default_rng(4)
        )
        row = next(r for r in batch.rows if isinstance(r, EncodedRow))
        key = row.key()  # memoise before materialising
        assert row.materialize().key() == key


class TestBatchContainer:
    def _batch(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        return BlockPerturber(block, engine="soa").perturb_batch(
            12, rng=np.random.default_rng(7)
        )

    def test_sequence_protocol_materialises(self):
        batch = self._batch()
        assert len(batch) == 12
        assert isinstance(batch[0], BasicBlock)
        assert all(isinstance(b, BasicBlock) for b in batch[2:5])
        assert [b.key() for b in batch] == [b.key() for b in batch.blocks()]

    def test_select_shares_row_objects(self):
        batch = self._batch()
        sub = batch.select([3, 1, 3])
        assert sub.rows[0] is batch.rows[3]
        assert sub.rows[1] is batch.rows[1]
        assert sub.rows[2] is batch.rows[3]

    def test_concat_preserves_row_identity_and_order(self):
        a, b = self._batch(), self._batch()
        fused = PerturbationBatch.concat([a, b])
        assert len(fused) == len(a) + len(b)
        assert fused.rows[: len(a)] == a.rows
        assert fused.rows[len(a) :] == b.rows

    def test_marker_attribute(self):
        assert PerturbationBatch.encoded_perturbations is True
        assert self._batch().encoded_perturbations is True


class TestSamplerEncoded:
    def test_sample_encoded_matches_sample(self):
        block = BasicBlock.from_text(
            "mov rax, rbx\nadd rcx, rax\nimul rdx, rcx\nsub rsi, 4"
        )
        eager = PerturbationSampler(block, rng=11)
        encoded = PerturbationSampler(block, rng=11)
        blocks = eager.sample((), 15)
        batch = encoded.sample_encoded((), 15)
        assert isinstance(batch, PerturbationBatch)
        assert [b.key() for b in batch] == [b.key() for b in blocks]
        assert encoded.samples_drawn == eager.samples_drawn
