"""Encoded perturbation batches: Γ output with deferred block materialisation.

The wave engine resolves each perturbation row to its *survivor instruction
references* (shared, memo-warm :class:`~repro.isa.instructions.Instruction`
objects out of the perturber's replacement/rename caches).  Materialising a
:class:`~repro.bb.block.BasicBlock` per row just so downstream code can read
``block.instructions`` and ``block.key()`` back out is pure representation
churn — so :class:`PerturbationBatch` keeps rows in resolved-reference form
and materialises on demand only at the edges:

* **cache keying** — an :class:`EncodedRow`'s :meth:`~EncodedRow.key` is the
  exact tuple ``BasicBlock.key()`` would produce (per-instruction content
  keys), so :class:`~repro.models.base.CachedCostModel` dedupes encoded rows
  against blocks it cached on any other path, with identical hit/miss
  accounting;
* **featurization** — models exposing a row kernel
  (:meth:`~repro.models.base.CostModel._rows_kernel`) predict straight from
  the instruction references and never construct a block;
* **everything else** — the batch is ``Sequence[BasicBlock]``-compatible:
  indexing or iterating materialises rows through the original block's
  ``with_instructions`` (memoised per row), so simulator models, anchors
  returned to callers and any encoding-unaware consumer see plain blocks.

Accounting goes to the run ledger (:mod:`repro.utils.tally`): Γ counts the
rows it emits encoded (unchanged rows reuse the original block and count
here) and those it emits already built (wave retries, fallbacks, the
reference engine's rows), and :meth:`EncodedRow.materialize` counts each
on-demand construction, so a silent regression to the
materialise-everything path shows in
:class:`~repro.runtime.session.SessionStats`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.bb.block import BasicBlock
from repro.isa.instructions import Instruction
from repro.utils import tally

__all__ = [
    "EncodedRow",
    "PerturbationBatch",
    "encoded_tally",
    "materialize_row",
    "row_refs",
]


#: Process-wide row counters, as the traced benchmark reads them (the same
#: snapshot as :func:`repro.perturb.algorithm.perturb_tally`).
encoded_tally = tally.process_tally


# -------------------------------------------------------------------- rows


class EncodedRow:
    """One resolved perturbation row: survivor references, block deferred.

    ``refs`` are the surviving instructions in program order — shared
    instances from the perturber's tables and caches, so their content-key
    and cost memos are already warm.  :meth:`key` equals what
    ``BasicBlock.key()`` would return for the materialised block, and
    :meth:`materialize` builds (and memoises) that block through the
    template's ``with_instructions``, seeding its key memo.
    """

    __slots__ = ("template", "refs", "_key", "_block")

    def __init__(self, template: BasicBlock, refs: Tuple[Instruction, ...]) -> None:
        self.template = template
        self.refs = refs
        self._key: Optional[tuple] = None
        self._block: Optional[BasicBlock] = None

    def key(self) -> tuple:
        """Content key, identical to the materialised block's ``key()``."""
        key = self._key
        if key is None:
            key = self._key = tuple(
                inst.__dict__.get("_key") or inst.key() for inst in self.refs
            )
        return key

    def materialize(self) -> BasicBlock:
        """Build the row's block (memoised; counted as a materialisation)."""
        block = self._block
        if block is None:
            block = self.template.with_instructions(self.refs)
            if self._key is not None:
                block.__dict__["_key"] = self._key
            self._block = block
            tally.count(materialized=1)
        return block

    @property
    def materialized(self) -> bool:
        return self._block is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self._block is not None else "encoded"
        return f"<EncodedRow n={len(self.refs)} {state}>"


#: A batch row: either a plain block (identity reuse, wave retry/fallback,
#: the reference engine, already-materialised) or a deferred encoded row.
Row = Union[BasicBlock, EncodedRow]


def row_refs(row: Row) -> Tuple[Instruction, ...]:
    """The row's instructions in program order, without materialising."""
    if isinstance(row, EncodedRow):
        return row.refs
    return row.instructions


def materialize_row(row: Row) -> BasicBlock:
    """The row as a plain block (constructed and memoised on first demand)."""
    if isinstance(row, EncodedRow):
        return row.materialize()
    return row


class PerturbationBatch(Sequence):
    """Γ's encoded output: perturbation rows with deferred materialisation.

    ``Sequence[BasicBlock]``-compatible — ``len``, indexing, slicing and
    iteration materialise rows on demand, so encoding-unaware consumers are
    correct by construction (they just pay the block construction they would
    always have paid).  Encoded-aware consumers detect the
    ``encoded_perturbations`` marker attribute and work on :attr:`rows`
    directly: ``row.key()`` for cache keying (blocks and encoded rows share
    the method) and :func:`row_refs` for featurization.
    """

    #: Marker for duck-typed detection in the model layer (no import cycle).
    encoded_perturbations = True

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows: List[Row] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [materialize_row(row) for row in self.rows[index]]
        return materialize_row(self.rows[index])

    def __iter__(self) -> Iterator[BasicBlock]:
        return (materialize_row(row) for row in self.rows)

    def blocks(self) -> List[BasicBlock]:
        """Materialise every row (the encoding-unaware fallback path)."""
        return [materialize_row(row) for row in self.rows]

    def select(self, positions: Sequence[int]) -> "PerturbationBatch":
        """A sub-batch sharing row objects (and their materialisation memos)."""
        rows = self.rows
        return PerturbationBatch([rows[p] for p in positions])

    @classmethod
    def concat(cls, batches: Sequence["PerturbationBatch"]) -> "PerturbationBatch":
        """Concatenate batches (e.g. one per KL-LUCB request) into one."""
        rows: List[Row] = []
        for batch in batches:
            rows.extend(batch.rows)
        return cls(rows)

    @property
    def encoded_count(self) -> int:
        """Rows still in deferred form (no block constructed yet)."""
        return sum(
            1
            for row in self.rows
            if isinstance(row, EncodedRow) and row._block is None
        )

    @property
    def materialized_count(self) -> int:
        return len(self.rows) - self.encoded_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PerturbationBatch rows={len(self.rows)} "
            f"encoded={self.encoded_count}>"
        )
