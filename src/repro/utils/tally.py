"""One ledger for the work counters of an explanation run.

Γ counts what it draws — perturbations, fallbacks to the unperturbed block,
rows emitted encoded versus blocks materialised — through :func:`count`,
once per ``perturb_many``/``perturb_batch`` call and once per on-demand
:meth:`~repro.perturb.batch.EncodedRow.materialize`.  Every count lands
twice: in the calling thread's counters (no lock: only that thread writes
them) and in the process total (under one lock).

Drivers measure their own work by diffing two :func:`thread_tally`
snapshots around it; that is how sessions, shard workers and the fused
service tick attribute Γ work without seeing each other's.  The process
total (:func:`process_tally`) is for whole-process observers such as
traced benchmark runs.

Model queries and cache lookups are not counted here: they stay per model
instance (a :class:`~repro.models.base.CachedCostModel` and its inner model
both count every miss, so one process counter would count it twice), and
:meth:`~repro.models.base.CostModel.query_tally` fills them into the same
:class:`Tally` snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

__all__ = ["Tally", "count", "process_tally", "thread_tally"]


@dataclass(frozen=True)
class Tally:
    """A snapshot of the run counters; diff two with :meth:`delta`.

    ``queries`` counts inner-model evaluations and ``hits``/``misses`` the
    cache-lookup split (always zero for uncached models).
    ``perturbations`` counts Γ draws and ``fallbacks`` those that silently
    returned the original block after ``max_block_attempts`` failed
    attempts — each injects a trivially-preserving sample into precision
    estimates.  ``encoded`` counts rows Γ emitted without building a block
    (resolved reference rows plus unchanged-row reuses of the original
    block); ``materialized`` counts block constructions (rows emitted
    already built, plus encoded rows built on demand by an encoding-unaware
    consumer).  A healthy encoded run keeps ``materialized`` near
    ``fallbacks``.
    """

    queries: int = 0
    hits: int = 0
    misses: int = 0
    perturbations: int = 0
    fallbacks: int = 0
    encoded: int = 0
    materialized: int = 0

    def delta(self, since: "Tally") -> "Tally":
        """The counts accrued between ``since`` and this snapshot."""
        return Tally(*(getattr(self, n) - getattr(since, n) for n in _FIELDS))

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(*(getattr(self, n) + getattr(other, n) for n in _FIELDS))


_FIELDS = tuple(f.name for f in fields(Tally))


class _Counts:
    def __init__(self) -> None:
        self.perturbations = 0
        self.fallbacks = 0
        self.encoded = 0
        self.materialized = 0

    def add(
        self, perturbations: int, fallbacks: int, encoded: int, materialized: int
    ) -> None:
        self.perturbations += perturbations
        self.fallbacks += fallbacks
        self.encoded += encoded
        self.materialized += materialized

    def snapshot(self, queries: int, hits: int, misses: int) -> Tally:
        counts = (self.perturbations, self.fallbacks, self.encoded, self.materialized)
        return Tally(queries, hits, misses, *counts)


class _ThreadCounts(_Counts, threading.local):
    """Per-thread counters (zero-initialised in every thread)."""


_thread_counts = _ThreadCounts()
_process_counts = _Counts()
_lock = threading.Lock()


def count(
    perturbations: int = 0, fallbacks: int = 0, encoded: int = 0, materialized: int = 0
) -> None:
    """Record Γ work in the calling thread's counters and the process total."""
    _thread_counts.add(perturbations, fallbacks, encoded, materialized)
    with _lock:
        _process_counts.add(perturbations, fallbacks, encoded, materialized)


def thread_tally(queries: int = 0, hits: int = 0, misses: int = 0) -> Tally:
    """The calling thread's counters.

    The query fields are the caller's to fill: the registry holds no query
    counters (see the module docstring).
    """
    return _thread_counts.snapshot(queries, hits, misses)


def process_tally() -> Tally:
    """The process total over all threads (query fields zero)."""
    with _lock:
        return _process_counts.snapshot(0, 0, 0)
