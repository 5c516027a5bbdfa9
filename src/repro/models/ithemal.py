"""Ithemal-like hierarchical neural cost model in pure NumPy.

Ithemal (Mendis et al., 2019) embeds the tokens of each instruction, combines
them into instruction embeddings, runs an RNN over the instruction embeddings
and regresses block throughput from the final hidden state.  This module
reproduces that architecture class with the components available offline:

* a static token vocabulary derived from the ISA model (opcode mnemonics,
  register names, memory/immediate markers),
* learned token embeddings, mean-pooled into instruction embeddings,
* an LSTM over the instruction sequence (:mod:`repro.models.lstm`),
* a softplus-activated linear readout producing a positive throughput.

Training uses full backpropagation through the LSTM and the embeddings with
Adam, minimising squared *relative* error (throughputs span two orders of
magnitude, so absolute-error losses would be dominated by slow blocks).  The
substitution of mean pooling for Ithemal's token-level RNN is documented in
DESIGN.md; the resulting model keeps the properties the paper's evaluation
relies on (a black-box neural predictor, markedly less accurate than the
pipeline simulator, and systematically more sensitive to coarse block
features such as instruction count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.isa.opcodes import OPCODES
from repro.isa.operands import ImmediateOperand, MemoryOperand, RegisterOperand
from repro.isa.registers import REGISTERS
from repro.models.base import CostModel
from repro.models.lstm import AdamOptimizer, LSTMCell, LSTMLayer, sigmoid
from repro.utils.errors import ModelError
from repro.utils.rng import RandomSource, as_rng


class BlockTokenizer:
    """Maps instructions to token-id sequences using a static ISA vocabulary."""

    PAD = "<pad>"
    UNK = "<unk>"
    MEM = "<mem>"
    IMM = "<imm>"
    BLOCK_START = "<block>"

    def __init__(self) -> None:
        tokens: List[str] = [self.PAD, self.UNK, self.MEM, self.IMM, self.BLOCK_START]
        tokens.extend(sorted(OPCODES))
        tokens.extend(sorted(REGISTERS))
        self._token_to_id: Dict[str, int] = {tok: i for i, tok in enumerate(tokens)}
        self._id_to_token: List[str] = tokens

    @property
    def vocabulary_size(self) -> int:
        return len(self._id_to_token)

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, self._token_to_id[self.UNK])

    def instruction_tokens(self, instruction) -> List[str]:
        """Token strings of one instruction: mnemonic then operand markers."""
        tokens = [instruction.mnemonic]
        for operand in instruction.operands:
            if isinstance(operand, RegisterOperand):
                tokens.append(operand.register.name)
            elif isinstance(operand, MemoryOperand):
                tokens.append(self.MEM)
                if operand.base is not None:
                    tokens.append(operand.base.name)
                if operand.index is not None:
                    tokens.append(operand.index.name)
            elif isinstance(operand, ImmediateOperand):
                tokens.append(self.IMM)
            else:  # pragma: no cover - labels never reach the cost models
                tokens.append(self.UNK)
        return tokens

    def encode_block(self, block: BasicBlock) -> List[List[int]]:
        """Token-id lists, one per instruction of ``block``."""
        return [
            [self.token_id(tok) for tok in self.instruction_tokens(inst)]
            for inst in block
        ]


@dataclass(frozen=True)
class IthemalConfig:
    """Architecture and training hyperparameters of the neural cost model."""

    embedding_size: int = 32
    hidden_size: int = 32
    learning_rate: float = 4e-3
    epochs: int = 6
    gradient_clip: float = 5.0
    validation_fraction: float = 0.1
    seed: int = 0
    min_prediction: float = 0.05

    def __post_init__(self) -> None:
        if self.embedding_size <= 0 or self.hidden_size <= 0:
            raise ValueError("embedding_size and hidden_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass
class TrainingHistory:
    """Per-epoch metrics recorded by :meth:`IthemalCostModel.train`."""

    train_loss: List[float] = field(default_factory=list)
    validation_mape: List[float] = field(default_factory=list)


def _softplus(x: float) -> float:
    if x > 30.0:
        return x
    return float(np.log1p(np.exp(x)))


#: Clamp on the log-throughput readout (throughputs never exceed e^12 cycles);
#: shared by the sequential and batched inference paths so they stay in sync.
_EXP_CLAMP_LIMIT = 12.0

#: Entries the pooled-embedding memo holds before it is cleared wholesale
#: (the policy of ``repro.explain.precision._BOUND_MEMO``): a served model
#: sees a few thousand new instructions per corpus pass, forever.
_EMBED_MEMO_LIMIT = 65536


def _exp_clamped(x: float, limit: float = _EXP_CLAMP_LIMIT) -> float:
    """``exp`` with the argument clamped."""
    return float(np.exp(min(max(x, -limit), limit)))


class IthemalCostModel(CostModel):
    """Hierarchical LSTM throughput predictor (Ithemal stand-in)."""

    def __init__(
        self,
        microarch="hsw",
        config: Optional[IthemalConfig] = None,
        rng: RandomSource = None,
    ) -> None:
        super().__init__(microarch)
        self.config = config or IthemalConfig()
        self.tokenizer = BlockTokenizer()
        self.name = f"ithemal-{self.microarch.short_name}"
        generator = as_rng(rng if rng is not None else self.config.seed)

        scale = 1.0 / np.sqrt(self.config.embedding_size)
        self.embedding = generator.normal(
            0.0, scale, size=(self.tokenizer.vocabulary_size, self.config.embedding_size)
        )
        self.lstm = LSTMLayer(
            LSTMCell.initialise(
                self.config.embedding_size, self.config.hidden_size, generator
            )
        )
        self.w_out = generator.normal(0.0, scale, size=self.config.hidden_size)
        self.b_out = np.zeros(1)
        self.trained = False
        self.history = TrainingHistory()
        # Per-instruction pooled-embedding memo for batched inference, keyed
        # by instruction content key (perturbed blocks share Instruction
        # instances, and identical content tokenises identically).  The memo
        # depends only on ``self.embedding``, so anything that mutates the
        # embedding matrix (training, load) must clear it.  Bounded by
        # ``_EMBED_MEMO_LIMIT`` and left out of pickles.
        self._embed_memo: Dict[tuple, np.ndarray] = {}

    def __getstate__(self) -> dict:
        # The memo is rebuilt on demand; pickles (process workers, the
        # served model) stay the size of the parameters.
        state = super().__getstate__()
        state["_embed_memo"] = {}
        return state

    # ----------------------------------------------------------- parameters

    def parameters(self) -> Dict[str, np.ndarray]:
        """All trainable arrays, flattened into one named dict."""
        params = {
            "embedding": self.embedding,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }
        for key, value in self.lstm.cell.parameters().items():
            params[f"lstm.{key}"] = value
        return params

    # -------------------------------------------------------------- forward

    def _instruction_embeddings(self, block: BasicBlock) -> Tuple[np.ndarray, List[List[int]]]:
        encoded = self.tokenizer.encode_block(block)
        embeddings = np.zeros((len(encoded), self.config.embedding_size))
        for row, token_ids in enumerate(encoded):
            if token_ids:
                embeddings[row] = self.embedding[token_ids].mean(axis=0)
        return embeddings, encoded

    def _forward(self, block: BasicBlock):
        inputs, encoded = self._instruction_embeddings(block)
        hidden_states, caches = self.lstm.forward(inputs)
        final_hidden = hidden_states[-1]
        raw = float(final_hidden @ self.w_out + self.b_out[0])
        # The readout regresses log-throughput: throughputs span two orders of
        # magnitude, so the exponential link keeps the loss well conditioned.
        prediction = max(_exp_clamped(raw), self.config.min_prediction)
        return prediction, raw, final_hidden, hidden_states, caches, inputs, encoded

    def _predict(self, block: BasicBlock) -> float:
        prediction, *_ = self._forward(block)
        return prediction

    def _embedding_for(self, instruction) -> np.ndarray:
        """Memoised mean-pooled token embedding of one instruction.

        Identical floats to the corresponding :meth:`_instruction_embeddings`
        row — same token ids gathered from the same embedding matrix — so the
        memo changes representation only, never predictions.
        """
        key = instruction.__dict__.get("_key") or instruction.key()
        vector = self._embed_memo.get(key)
        if vector is None:
            token_ids = [
                self.tokenizer.token_id(tok)
                for tok in self.tokenizer.instruction_tokens(instruction)
            ]
            vector = self.embedding[token_ids].mean(axis=0)
            if len(self._embed_memo) >= _EMBED_MEMO_LIMIT:
                self._embed_memo.clear()
            self._embed_memo[key] = vector
        return vector

    def _predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        """Batched inference: embeddings and the LSTM recurrence run over the
        whole batch at once (padded to the longest block), then one vectorized
        readout.  Equivalent to the sequential path up to BLAS summation
        order (agreement to ~1e-12 relative, verified by the parity tests).
        """
        return self._predict_rows_batch([block.instructions for block in blocks])

    def _rows_kernel(self):
        """Tokenisation only reads instructions, so encoded batches predict
        straight from rows — with re-tokenisation amortised away by the
        per-instruction embedding memo."""
        return self._predict_rows_batch

    def _predict_rows_batch(self, rows: Sequence[Sequence]) -> List[float]:
        if not rows:
            return []
        lengths = [len(instructions) for instructions in rows]
        steps = max(lengths)
        inputs = np.zeros((len(rows), steps, self.config.embedding_size))
        embedding_for = self._embedding_for
        for row, instructions in enumerate(rows):
            for position, instruction in enumerate(instructions):
                inputs[row, position] = embedding_for(instruction)
        final_hidden = self.lstm.forward_batch(inputs, lengths)
        raw = final_hidden @ self.w_out + self.b_out[0]
        clamped = np.exp(np.clip(raw, -_EXP_CLAMP_LIMIT, _EXP_CLAMP_LIMIT))
        return [float(v) for v in np.maximum(clamped, self.config.min_prediction)]

    # -------------------------------------------------------------- training

    def train(
        self,
        blocks: Sequence[BasicBlock],
        throughputs: Sequence[float],
        *,
        epochs: Optional[int] = None,
        rng: RandomSource = None,
    ) -> TrainingHistory:
        """Train on ``(blocks, throughputs)`` with Adam and relative-error loss."""
        if len(blocks) != len(throughputs):
            raise ModelError("blocks and throughputs must have the same length")
        if len(blocks) == 0:
            raise ModelError("cannot train on an empty dataset")
        epochs = self.config.epochs if epochs is None else epochs
        generator = as_rng(rng if rng is not None else self.config.seed + 1)
        # Training updates the embedding matrix in place every step, so the
        # pooled-embedding memo is stale from here on.
        self._embed_memo.clear()

        if not self.trained:
            # Start the readout bias at the mean log-target so early training
            # is not dominated by the output scale.
            targets = np.maximum(np.asarray(throughputs, dtype=float), 1e-3)
            self.b_out[0] = float(np.mean(np.log(targets)))

        indices = np.arange(len(blocks))
        n_validation = int(len(blocks) * self.config.validation_fraction)
        generator.shuffle(indices)
        validation_idx = indices[:n_validation]
        train_idx = indices[n_validation:]
        if len(train_idx) == 0:
            train_idx = indices
            validation_idx = indices[:0]

        optimizer = AdamOptimizer(self.parameters(), self.config.learning_rate)

        for _ in range(epochs):
            generator.shuffle(train_idx)
            losses = []
            for index in train_idx:
                loss = self._train_step(blocks[index], float(throughputs[index]), optimizer)
                losses.append(loss)
            self.history.train_loss.append(float(np.mean(losses)) if losses else 0.0)
            if len(validation_idx):
                mape = self.evaluate_mape(
                    [blocks[i] for i in validation_idx],
                    [float(throughputs[i]) for i in validation_idx],
                )
            else:
                mape = float("nan")
            self.history.validation_mape.append(mape)

        self.trained = True
        self._embed_memo.clear()
        return self.history

    def _train_step(self, block: BasicBlock, target: float, optimizer: AdamOptimizer) -> float:
        target = max(target, 1e-3)
        prediction, raw, final_hidden, hidden_states, caches, inputs, encoded = self._forward(block)

        # Squared error in log space: loss = (raw - log target)^2.
        residual = raw - float(np.log(target))
        loss = residual**2
        d_raw = 2.0 * residual

        grads: Dict[str, np.ndarray] = {
            "w_out": d_raw * final_hidden,
            "b_out": np.array([d_raw]),
            "embedding": np.zeros_like(self.embedding),
        }

        d_hidden = np.zeros_like(hidden_states)
        d_hidden[-1] = d_raw * self.w_out
        d_inputs, lstm_grads = self.lstm.backward(d_hidden, caches)
        for key, value in lstm_grads.items():
            grads[f"lstm.{key}"] = value

        for row, token_ids in enumerate(encoded):
            if not token_ids:
                continue
            share = d_inputs[row] / len(token_ids)
            for token_id in token_ids:
                grads["embedding"][token_id] += share

        optimizer.step(grads, clip_norm=self.config.gradient_clip)
        return float(loss)

    def evaluate_mape(
        self, blocks: Sequence[BasicBlock], throughputs: Sequence[float]
    ) -> float:
        """Mean absolute percentage error over a labelled set."""
        if len(blocks) == 0:
            return float("nan")
        errors = []
        for block, target in zip(blocks, throughputs):
            target = max(float(target), 1e-3)
            prediction = self._predict(block)
            errors.append(abs(prediction - target) / target)
        return 100.0 * float(np.mean(errors))

    # ------------------------------------------------------------- storage

    def save(self, path) -> None:
        """Serialise all parameters (and config) to an ``.npz`` file."""
        path = Path(path)
        arrays = {name: value for name, value in self.parameters().items()}
        arrays["config"] = np.array(
            [
                self.config.embedding_size,
                self.config.hidden_size,
                self.config.seed,
            ],
            dtype=np.int64,
        )
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, microarch="hsw") -> "IthemalCostModel":
        """Restore a model saved with :meth:`save`."""
        data = np.load(Path(path))
        embedding_size, hidden_size, seed = (int(v) for v in data["config"])
        config = IthemalConfig(
            embedding_size=embedding_size, hidden_size=hidden_size, seed=seed
        )
        model = cls(microarch, config)
        model.embedding[...] = data["embedding"]
        model.w_out[...] = data["w_out"]
        model.b_out[...] = data["b_out"]
        model.lstm.cell.w_x[...] = data["lstm.w_x"]
        model.lstm.cell.w_h[...] = data["lstm.w_h"]
        model.lstm.cell.bias[...] = data["lstm.bias"]
        model.trained = True
        model._embed_memo.clear()
        return model


def train_ithemal(
    blocks: Sequence[BasicBlock],
    throughputs: Sequence[float],
    microarch="hsw",
    config: Optional[IthemalConfig] = None,
    rng: RandomSource = None,
) -> IthemalCostModel:
    """Build and train an :class:`IthemalCostModel` in one call."""
    model = IthemalCostModel(microarch, config, rng=rng)
    model.train(blocks, throughputs, rng=rng)
    return model
