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

Accounting mirrors the Γ fallback counters: per-thread and process-global
tallies of rows that entered the pipeline encoded versus rows that were
materialised (at emission — identity reuse excluded — or on demand), so a
silent regression to the materialise-everything path is visible in
:class:`~repro.models.base.QueryTally` and
:class:`~repro.runtime.session.SessionStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.bb.block import BasicBlock
from repro.isa.instructions import Instruction

__all__ = [
    "EncodedRow",
    "EncodedTally",
    "PerturbationBatch",
    "encoded_tally",
    "materialize_row",
    "row_refs",
    "thread_encoded_tally",
]


# -------------------------------------------------------------- accounting


@dataclass(frozen=True)
class EncodedTally:
    """Snapshot of encoded-pipeline row accounting (see :func:`encoded_tally`).

    ``encoded`` counts rows Γ emitted without building a block (resolved
    reference rows plus unchanged-row reuses of the original block
    instance); ``materialized`` counts block constructions — rows emitted
    already materialised (wave retries, fallbacks, reference-engine rows routed
    through :meth:`PerturbationBatch.from_blocks`) plus encoded rows later
    materialised on demand by an encoding-unaware consumer.
    """

    encoded: int = 0
    materialized: int = 0

    def delta(self, since: "EncodedTally") -> "EncodedTally":
        """The accounting accrued between ``since`` and this snapshot."""
        return EncodedTally(
            encoded=self.encoded - since.encoded,
            materialized=self.materialized - since.materialized,
        )


class _ThreadEncodedTally(threading.local):
    """Per-thread encoded/materialized row counters."""

    def __init__(self) -> None:
        self.encoded = 0
        self.materialized = 0


_thread_encoded_tally = _ThreadEncodedTally()
_accounting_lock = threading.Lock()
_encoded_total = 0
_materialized_total = 0


def thread_encoded_tally() -> EncodedTally:
    """The calling thread's encoded-row accounting snapshot."""
    tally = _thread_encoded_tally
    return EncodedTally(encoded=tally.encoded, materialized=tally.materialized)


def encoded_tally() -> EncodedTally:
    """Process-wide encoded-row accounting snapshot (all threads)."""
    with _accounting_lock:
        return EncodedTally(encoded=_encoded_total, materialized=_materialized_total)


def _count_rows(encoded: int, materialized: int) -> None:
    global _encoded_total, _materialized_total
    tally = _thread_encoded_tally
    tally.encoded += encoded
    tally.materialized += materialized
    with _accounting_lock:
        _encoded_total += encoded
        _materialized_total += materialized


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
            _count_rows(0, 1)
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

    @classmethod
    def from_blocks(cls, blocks: Sequence[BasicBlock]) -> "PerturbationBatch":
        """Wrap already-materialised blocks (the reference engine, tests)."""
        return cls(blocks)

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
