"""Cross-request continuous batching for the explanation service.

The scheduler serializes requests per session key — ``(model, uarch)`` —
so a warm session used to answer exactly one request per cost-model
invocation while same-key requests queued behind it.  This module is the
iteration-level (Orca/vLLM-style) alternative: requests are admitted and
retired at *KL-LUCB round* granularity, not request granularity.

One fused tick group runs per key, on the one dispatcher thread that holds
the key.  Each member request is a :class:`_RequestRun` — the
round-resumable form of its anchor search, built on
:meth:`~repro.explain.anchors.AnchorSearch.search_rounds`.  Every tick the
group concatenates the members' pending perturbed-block batches, issues
**one** :meth:`~repro.models.base.CachedCostModel.predict_batch_segmented`
through the shared warm model (cross-request intra-tick dedupe comes free),
scatters predictions and exact per-segment query accounting back, and lets
finished requests retire while newly queued same-key work is absorbed
mid-stream (see :meth:`~repro.service.scheduler.Scheduler.claim_extra`).

Determinism contract: each request keeps its own seeded RNG stream and its
own request-scoped population records, exactly as the unfused execution
path does, so the fused service's results are bit-for-bit identical to the
``dispatchers=1``, fusion-off oracle regardless of which requests happened
to share a tick.  Fusion changes only which model invocation served a
round — arrival order can shift cache hits between requests (``num_queries``
is substrate-dependent by design), never the explanation payload.

Cancellation: every request's :class:`~repro.utils.cancellation.CancelToken`
is checked at its own round boundaries (inside ``search_rounds``) and before
each block's search starts, so a cancelled or deadline-expired request
raises out of *its* generator between fused ticks and is retired without
perturbing the other members of the group.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bb.block import BasicBlock
from repro.cache.fingerprint import cacheable_seed
from repro.explain.anchors import AnchorSearch
from repro.explain.config import ExplainerConfig
from repro.explain.coverage import PopulationRecord
from repro.explain.explanation import Explanation
from repro.models.base import CostModel, QueryCounter
from repro.runtime.session import ExplanationSession
from repro.utils.cancellation import CancelToken
from repro.utils.rng import as_rng, spawn_rngs, spawn_seeds


@dataclass(frozen=True)
class FusionStats:
    """Continuous-batching counters (snapshot via ``ExplanationService.stats``).

    ``mean_occupancy`` is requests per fused tick; values above 1.0 mean
    cross-request fusion actually happened.  ``shared_hits`` counts cache
    lookups one request got for free because another request in the same
    tick (or an earlier fused segment) already paid for the block.
    """

    enabled: bool = False
    max_fused_requests: int = 0
    ticks: int = 0
    rounds_fused: int = 0
    requests_fused: int = 0
    shared_hits: int = 0
    #: Requests-per-tick histogram as ``(occupancy, ticks)`` pairs, ascending.
    occupancy: Tuple[Tuple[int, int], ...] = ()

    @property
    def mean_occupancy(self) -> float:
        return self.rounds_fused / self.ticks if self.ticks else 0.0

    def describe(self) -> str:
        if not self.enabled:
            return "continuous batching off"
        return (
            f"{self.ticks} fused ticks, {self.rounds_fused} rounds fused "
            f"({self.mean_occupancy:.2f} mean occupancy, "
            f"{self.requests_fused} requests, {self.shared_hits} shared hits)"
        )


class FusionCounters:
    """Thread-safe accumulator behind :class:`FusionStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ticks = 0
        self._rounds = 0
        self._requests = 0
        self._shared_hits = 0
        self._occupancy: Dict[int, int] = {}

    def record_request(self) -> None:
        with self._lock:
            self._requests += 1

    def record_tick(self, occupancy: int, shared_hits: int) -> None:
        with self._lock:
            self._ticks += 1
            self._rounds += occupancy
            self._shared_hits += shared_hits
            self._occupancy[occupancy] = self._occupancy.get(occupancy, 0) + 1

    def snapshot(self, *, enabled: bool, max_fused_requests: int) -> FusionStats:
        with self._lock:
            return FusionStats(
                enabled=enabled,
                max_fused_requests=max_fused_requests,
                ticks=self._ticks,
                rounds_fused=self._rounds,
                requests_fused=self._requests,
                shared_hits=self._shared_hits,
                occupancy=tuple(sorted(self._occupancy.items())),
            )


@dataclass
class FusedEntry:
    """One request handed to a fused tick group by the service.

    The service keeps all ticket semantics to itself: ``finish`` receives
    the completed explanations in block order, ``fail`` the exception that
    retired the request (cancellation, deadline expiry or a model error).
    Exactly one of the two is called, once, on the group's thread.
    """

    blocks: Tuple[BasicBlock, ...]
    seed: int
    token: Optional[CancelToken]
    finish: Callable[[List[Explanation]], None]
    fail: Callable[[BaseException], None]


class _RequestRun:
    """Round-resumable execution state of one fused request.

    Mirrors the unfused path exactly: a single-block request drives its
    search from ``as_rng(seed)`` (as ``session.explain`` would), a fleet
    request spawns one stream per block (as ``explain_many`` would), and
    population records are request-scoped — same key, same fill order as
    the serial loop after the service's per-request record reset.

    With a session result cache installed, cache-eligible positions —
    single blocks, and fleet positions whose block key is unique within the
    request (duplicates share a record and stay uncached, exactly like
    ``explain_many``) — are looked up before their search is built: a hit
    appends the stored explanation and retires the position **without
    consuming a KL-LUCB round**, and a computed position is stored when it
    completes.  A hit's ``num_queries`` is the storing computation's count
    (the hit itself queried the model zero times).
    """

    __slots__ = (
        "entry",
        "model",
        "config",
        "session",
        "blocks",
        "streams",
        "seeds",
        "cacheable",
        "records",
        "position",
        "explanations",
        "search",
        "rounds",
        "pending",
        "queries",
    )

    def __init__(
        self,
        entry: FusedEntry,
        model: CostModel,
        config: ExplainerConfig,
        session: Optional[ExplanationSession] = None,
    ) -> None:
        self.entry = entry
        self.model = model
        self.config = config
        self.session = session
        self.blocks: List[BasicBlock] = list(entry.blocks)
        self.seeds: List[Optional[int]] = [None] * len(self.blocks)
        self.cacheable = [False] * len(self.blocks)
        memoized = (
            session is not None
            and session.result_cache is not None
            and cacheable_seed(entry.seed)
        )
        if len(self.blocks) == 1:
            self.streams = [as_rng(entry.seed)]
            if memoized:
                self.seeds = [int(entry.seed)]
                self.cacheable = [True]
        elif memoized:
            # Per-position identity: each fleet position's stream is fully
            # determined by its spawned child seed (spawn_rngs builds
            # default_rng(child) from exactly these), so positions memoize
            # under (block, child seed).
            seeds = spawn_seeds(entry.seed, len(self.blocks))
            self.streams = [np.random.default_rng(s) for s in seeds]
            self.seeds = list(seeds)
            key_counts: Dict[Tuple, int] = {}
            for block in self.blocks:
                key_counts[block.key()] = key_counts.get(block.key(), 0) + 1
            self.cacheable = [key_counts[b.key()] == 1 for b in self.blocks]
        else:
            self.streams = spawn_rngs(entry.seed, len(self.blocks))
        self.records: Dict[Tuple, PopulationRecord] = {}
        self.position = 0
        self.explanations: List[Explanation] = []
        self.search: Optional[AnchorSearch] = None
        self.rounds = None
        #: The perturbed-block batch this request wants answered next tick.
        self.pending: Optional[List[BasicBlock]] = None
        #: Inner-model evaluations charged to the current block so far.
        self.queries = 0

    def _record_for(self, block: BasicBlock) -> Optional[PopulationRecord]:
        if not self.config.shared_background:
            return None
        key = (block.key(), self.config.coverage_samples)
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = PopulationRecord()
        return record

    def advance(self, predictions: Optional[np.ndarray]) -> bool:
        """Advance until the next fused tick is needed, or the request is done.

        Returns ``True`` with :attr:`pending` set to the block batch the next
        tick must answer, or ``False`` once every block is explained.  Raises
        whatever the search raises — cancellation, deadline expiry, model
        errors — leaving the caller to retire the request.  Queries issued
        inline (search construction, and whole searches in sequential mode)
        are measured on this thread and charged to the current block.
        """
        while True:
            if self.rounds is None:
                if self.entry.token is not None:
                    self.entry.token.check()
                block = self.blocks[self.position]
                if self.cacheable[self.position] and self.session is not None:
                    cached = self.session.result_cache_lookup(
                        block, self.seeds[self.position]
                    )
                    if cached is not None:
                        # Retired without a search: this position consumes
                        # no KL-LUCB round and issues no tick work.
                        self.explanations.append(cached)
                        self.position += 1
                        self.queries = 0
                        predictions = None
                        if self.position >= len(self.blocks):
                            return False
                        continue
                with QueryCounter(self.model) as counter:
                    self.search = AnchorSearch(
                        self.model,
                        block,
                        self.config,
                        self.streams[self.position],
                        coverage_record=self._record_for(block),
                        cancel=self.entry.token,
                    )
                self.queries += counter.queries
                self.rounds = self.search.search_rounds()
                predictions = None
            anchor = None
            finished = False
            with QueryCounter(self.model) as counter:
                try:
                    pending = self.rounds.send(predictions)
                except StopIteration as stop:
                    anchor = stop.value
                    finished = True
            self.queries += counter.queries
            if not finished:
                self.pending = pending
                return True
            assert self.search is not None
            explanation = Explanation.from_search(
                self.search, anchor, num_queries=self.queries
            )
            self.explanations.append(explanation)
            if self.cacheable[self.position] and self.session is not None:
                # Safe to memoize: a cacheable position ran on its own seeded
                # stream with a request-scoped record no other position
                # shares, so the result is a pure function of its fingerprint.
                self.session.result_cache_store(
                    self.blocks[self.position], self.seeds[self.position], explanation
                )
            self.position += 1
            self.queries = 0
            self.rounds = None
            self.search = None
            predictions = None
            if self.position >= len(self.blocks):
                return False

    def close(self) -> None:
        """Drop the suspended search generator (retired mid-stream)."""
        if self.rounds is not None:
            self.rounds.close()
            self.rounds = None


def run_fused_group(
    session: ExplanationSession,
    entries: Sequence[FusedEntry],
    *,
    absorb: Optional[Callable[[int], List[FusedEntry]]] = None,
    max_fused_requests: int = 8,
    counters: Optional[FusionCounters] = None,
) -> None:
    """Run one per-key fused tick group to completion.

    ``entries`` seed the group (admission order is preserved in segment
    order); ``absorb`` is polled between ticks for newly queued same-key
    work, up to ``max_fused_requests`` concurrently resident requests.
    Every entry is retired through its own ``finish``/``fail`` callback; a
    request that raises — cancellation, deadline expiry, a model error —
    leaves the remaining members of the group untouched.
    """
    # The dispatcher thread runs every member's searches and every fused
    # tick (where models without a row kernel materialise encoded rows),
    # so its delta is the whole group's Γ work; it is charged before each
    # request is answered, so a caller's next stats read includes it.
    with session.accounting() as flush:
        model = session.model
        config = session.config
        pending_runs: List[_RequestRun] = []

        def step(run: _RequestRun, predictions: Optional[np.ndarray]) -> None:
            """Advance one request; park it for the next tick or retire it."""
            try:
                if run.advance(predictions):
                    pending_runs.append(run)
                else:
                    session.explanations_produced += len(run.explanations)
                    flush()
                    run.entry.finish(run.explanations)
            except Exception as error:  # noqa: BLE001 - reported per request
                run.close()
                flush()
                run.entry.fail(error)

        def admit(entry: FusedEntry) -> None:
            if counters is not None:
                counters.record_request()
            step(_RequestRun(entry, model, config, session=session), None)

        for entry in entries:
            admit(entry)
        while True:
            if absorb is not None and len(pending_runs) < max_fused_requests:
                for entry in absorb(max_fused_requests - len(pending_runs)):
                    admit(entry)
            if not pending_runs:
                break
            batch, pending_runs = list(pending_runs), []
            segments = [run.pending for run in batch]
            try:
                values, tallies, shared_hits = model.predict_batch_segmented(segments)
            except Exception:  # noqa: BLE001 - isolate the poisoned segment
                # One request's blocks made the fused call fail; re-serve each
                # segment on its own so only the failing request retires with
                # the error.
                for run in batch:
                    try:
                        with QueryCounter(model) as counter:
                            answers = model.predict_batch(run.pending)
                    except Exception as error:  # noqa: BLE001
                        run.close()
                        flush()
                        run.entry.fail(error)
                        continue
                    run.queries += counter.queries
                    run.pending = None
                    step(run, np.asarray(answers))
                continue
            if counters is not None:
                counters.record_tick(len(batch), shared_hits)
            for run, answers, tally in zip(batch, values, tallies):
                run.queries += tally.queries
                run.pending = None
                step(run, np.asarray(answers))
