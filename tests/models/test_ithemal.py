"""Tests for the Ithemal-like neural cost model."""

import numpy as np
import pytest

from repro.bb.block import BasicBlock
from repro.data.bhive import BHiveDataset
from repro.models.ithemal import (
    BlockTokenizer,
    IthemalConfig,
    IthemalCostModel,
    train_ithemal,
)
from repro.utils.errors import ModelError


@pytest.fixture(scope="module")
def tiny_dataset():
    return BHiveDataset.synthesize(
        60, include_categories=False, min_instructions=2, max_instructions=8, rng=5
    )


@pytest.fixture(scope="module")
def trained_model(tiny_dataset):
    config = IthemalConfig(embedding_size=16, hidden_size=16, epochs=3)
    return train_ithemal(
        tiny_dataset.blocks(), tiny_dataset.throughputs("hsw"), "hsw", config
    )


class TestTokenizer:
    def test_vocabulary_covers_isa(self):
        tokenizer = BlockTokenizer()
        assert tokenizer.vocabulary_size > 150
        assert tokenizer.token_id("add") != tokenizer.token_id("mov")
        assert tokenizer.token_id("rax") != tokenizer.token_id("rbx")

    def test_unknown_token_maps_to_unk(self):
        tokenizer = BlockTokenizer()
        assert tokenizer.token_id("no-such-token") == tokenizer.token_id(tokenizer.UNK)

    def test_instruction_tokens(self):
        tokenizer = BlockTokenizer()
        block = BasicBlock.from_text("mov rsi, qword ptr [r14 + 32]")
        tokens = tokenizer.instruction_tokens(block[0])
        assert tokens[0] == "mov"
        assert tokenizer.MEM in tokens and "r14" in tokens

    def test_encode_block_shape(self):
        tokenizer = BlockTokenizer()
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        encoded = tokenizer.encode_block(block)
        assert len(encoded) == 2
        assert all(isinstance(i, int) for row in encoded for i in row)


class TestPrediction:
    def test_untrained_model_predicts_positive(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        block = BasicBlock.from_text("add rcx, rax\nmov rdx, rcx")
        assert model.predict(block) > 0

    def test_prediction_changes_with_block(self, trained_model):
        short = BasicBlock.from_text("add rcx, rax")
        long = BasicBlock.from_text("\n".join(["add rcx, rax"] * 10))
        assert trained_model.predict(short) != trained_model.predict(long)

    def test_prediction_deterministic(self, trained_model):
        block = BasicBlock.from_text("add rcx, rax\nimul rbx, rcx")
        assert trained_model.predict(block) == trained_model.predict(block)


class TestTraining:
    def test_training_reduces_loss(self, tiny_dataset):
        config = IthemalConfig(embedding_size=16, hidden_size=16, epochs=4)
        model = IthemalCostModel("hsw", config)
        history = model.train(tiny_dataset.blocks(), tiny_dataset.throughputs("hsw"))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.trained

    def test_trained_model_better_than_constant(self, trained_model, tiny_dataset):
        targets = np.array(tiny_dataset.throughputs("hsw"))
        mape_model = trained_model.evaluate_mape(tiny_dataset.blocks(), targets)
        constant = float(np.mean(targets))
        mape_constant = 100 * np.mean(np.abs(constant - targets) / targets)
        assert mape_model < mape_constant

    def test_longer_blocks_predicted_slower(self, trained_model):
        short = BasicBlock.from_text("add rcx, rax\nsub rbx, rdx")
        long = BasicBlock.from_text(
            "\n".join(["add rcx, rax", "sub rbx, rdx", "xor rsi, rdi", "and r8, r9"] * 3)
        )
        assert trained_model.predict(long) > trained_model.predict(short)

    def test_mismatched_lengths_rejected(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        with pytest.raises(ModelError):
            model.train([BasicBlock.from_text("nop")], [1.0, 2.0])

    def test_empty_dataset_rejected(self):
        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        with pytest.raises(ModelError):
            model.train([], [])


class TestPersistence:
    def test_save_and_load_round_trip(self, trained_model, tmp_path):
        path = tmp_path / "ithemal.npz"
        trained_model.save(path)
        restored = IthemalCostModel.load(path, "hsw")
        block = BasicBlock.from_text("add rcx, rax\nimul rbx, rcx\ndiv rcx")
        assert restored.predict(block) == pytest.approx(trained_model.predict(block))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IthemalConfig(embedding_size=0)
        with pytest.raises(ValueError):
            IthemalConfig(validation_fraction=1.5)


class TestEmbeddingMemo:
    """The pooled-embedding memo is bounded, exact and never pickled."""

    @staticmethod
    def _rows(dataset):
        return [block.instructions for block in dataset.blocks()]

    def test_memo_stays_under_its_limit_and_exact(self, tiny_dataset, monkeypatch):
        import repro.models.ithemal as ithemal

        config = IthemalConfig(embedding_size=8, hidden_size=8)
        rows = self._rows(tiny_dataset)
        unbounded = IthemalCostModel("hsw", config)
        expected = [unbounded._predict_rows_batch([row])[0] for row in rows]
        assert len(unbounded._embed_memo) > 5

        monkeypatch.setattr(ithemal, "_EMBED_MEMO_LIMIT", 5)
        bounded = IthemalCostModel("hsw", config)
        got = []
        for row in rows:
            got.append(bounded._predict_rows_batch([row])[0])
            assert len(bounded._embed_memo) <= 5
        assert got == expected

    def test_pickle_drops_the_memo(self, tiny_dataset):
        import pickle

        model = IthemalCostModel("hsw", IthemalConfig(embedding_size=8, hidden_size=8))
        rows = self._rows(tiny_dataset)
        cold = pickle.dumps(model)
        expected = model._predict_rows_batch(rows)
        assert model._embed_memo
        assert len(pickle.dumps(model)) == len(cold)
        restored = pickle.loads(pickle.dumps(model))
        assert restored._embed_memo == {}
        assert restored._predict_rows_batch(rows) == expected
