"""Span recording for the benchmark's traced runs, kept outside ``src/``.

Tracing works by wrapping the public entry points of each layer (see
``_entry_points``) for the duration of a traced phase and restoring them
afterwards.  Every wrapped call records one span: its layer, start, end and
the span that was open on the same thread when it started (its parent).  A
layer's *self time* is a span's duration minus the part of it that its child
spans cover, so summing self times over a span tree gives back the root's
duration exactly -- which is how ``add_up`` checks that layer costs account
for the traced wall-clock.

Shard work in forked process-backend workers is invisible to the parent's
wrappers.  ``traced_shard`` is the module-level function the parent-side
``map_batch`` wrapper ships to the workers instead of the shard function: it
installs a worker-local tracer, runs the shard, and returns the worker's
layer totals next to the shard result.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]  # (layer, start, end, parent index or -1)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and merged before they
    are subtracted, so overlapping or overhanging children can never drive a
    parent's self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_layer, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(end - start - covered, 0.0))
    return result


def root_time(spans: Sequence[Span]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _layer, start, end, parent in spans if parent < 0)


class Tracer:
    """In-memory span and counter store for one traced phase of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Layer totals merged in from process-backend workers.
        self.worker: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``; return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (layer, start, end, parent)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def totals(self) -> Dict[str, float]:
        """Self seconds per layer (``<layer>.self_s``) plus every counter."""
        out: Dict[str, float] = defaultdict(float)
        for (layer, *_rest), own in zip(self.spans, self_times(self.spans)):
            out[f"{layer}.self_s"] += own
        out.update(self.counts)
        return dict(out)

    def merge_worker(self, totals: Dict[str, float]) -> None:
        with self._lock:
            for name, value in totals.items():
                self.worker[name] += value


def add_up(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Parent-side self times plus the unattributed residual, against ``wall``.

    The residual is the traced wall-clock outside every root span.  The sum
    of self times over the span trees equals the roots' total duration, so
    ``sum + unattributed`` reproduces ``wall``; ``gap`` is the difference,
    which only float rounding may leave non-zero.
    """
    selfs = self_times(tracer.spans)
    attributed = sum(selfs)
    unattributed = wall - root_time(tracer.spans)
    return {
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "gap_s": wall - (attributed + unattributed),
        "min_self_s": min(selfs, default=0.0),
    }


# ---------------------------------------------------------------------------
# Entry-point wrappers


def _rows(result) -> int:
    return len(result) if result is not None else 0


def _entry_points():
    """(owner, attribute, layer, counter hook) for every wrapped entry point.

    Imported lazily so this module can be imported before ``src`` is on the
    path (the test-suite and the worker wrapper both do).
    """
    from repro.cache.store import ResultCache
    from repro.explain.coverage import CoverageEstimator, PopulationRecord
    from repro.models.base import CachedCostModel
    from repro.perturb.sampler import PerturbationSampler
    from repro.runtime.backend import ProcessBackend
    from repro.runtime.session import ExplanationSession
    import repro.service.core as service_core

    def count_perturb(tracer, args, kwargs, result):
        tracer.add("perturb.calls")
        tracer.add("perturb.rows", _rows(result))

    def count_coverage(tracer, args, kwargs, result):
        tracer.add("coverage.calls")

    def count_cache_get(tracer, args, kwargs, result):
        tracer.add("cache.gets")
        tracer.add("cache.hits", float(result is not None))

    def count_cache_put(tracer, args, kwargs, result):
        tracer.add("cache.puts")

    return [
        (ExplanationSession, "explain_many", "explain", None),
        (ExplanationSession, "explain", "explain", None),
        (service_core, "run_fused_group", "explain", None),
        (PerturbationSampler, "sample_encoded", "perturb", count_perturb),
        (PerturbationSampler, "sample", "perturb", count_perturb),
        (CachedCostModel, "predict_batch", "models", "batch"),
        (CachedCostModel, "predict_batch_segmented", "models", "segmented"),
        (CachedCostModel, "predict", "models", "single"),
        (CoverageEstimator, "coverage", "coverage", count_coverage),
        (PopulationRecord, "ensure", "coverage", count_coverage),
        (ProcessBackend, "map_batch", "runtime", "map"),
        (ResultCache, "get", "cache_get", count_cache_get),
        (ResultCache, "put", "cache_put", count_cache_put),
    ]


_ORIGINAL = "__perfbench_original__"


def _unwrapped(owner, attribute):
    current = owner.__dict__[attribute]
    return getattr(current, _ORIGINAL, current)


def _model_wrapper(tracer: Tracer, original, kind: str):
    def wrapper(self, payload, *args, **kwargs):
        before = self.query_count
        result = tracer.call("models", original, self, payload, *args, **kwargs)
        if kind == "batch":
            rows = len(payload)
        elif kind == "segmented":
            rows = sum(len(segment) for segment in payload)
        else:
            rows = 1
        tracer.add("models.calls")
        tracer.add("models.rows", rows)
        tracer.add("models.inner_queries", self.query_count - before)
        if kind != "single":
            tracer.add("explain.rounds")
        return result

    return wrapper


def _map_wrapper(tracer: Tracer, original):
    def wrapper(self, fn, items):
        jobs = [(fn, item) for item in items]
        results = tracer.call("runtime", original, self, traced_shard, jobs)
        tracer.add("runtime.map_calls")
        tracer.add("runtime.shards", len(items))
        unwrapped = []
        for result, totals in results:
            tracer.merge_worker(totals)
            unwrapped.append(result)
        return unwrapped

    return wrapper


def _plain_wrapper(tracer: Tracer, original, layer: str, hook):
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, original, *args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


class Installed:
    """Wrappers bound to one tracer, installed until :meth:`restore`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        for owner, attribute, layer, hook in _entry_points():
            original = _unwrapped(owner, attribute)
            if hook == "map":
                wrapper = _map_wrapper(tracer, original)
            elif isinstance(hook, str):
                wrapper = _model_wrapper(tracer, original, hook)
            else:
                wrapper = _plain_wrapper(tracer, original, layer, hook)
            setattr(wrapper, _ORIGINAL, original)
            self._saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        for owner, attribute, previous in reversed(self._saved):
            setattr(owner, attribute, previous)
        self._saved = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _tallies():
    from repro.perturb.algorithm import perturb_tally
    from repro.perturb.batch import encoded_tally

    return perturb_tally(), encoded_tally()


def tally_counts(before, after) -> Dict[str, float]:
    """Γ fallback and encoded-row counters between two ``_tallies`` snapshots."""
    perturb = after[0].delta(before[0])
    encoded = after[1].delta(before[1])
    return {
        "perturb.perturbations": perturb.perturbations,
        "perturb.fallbacks": perturb.fallbacks,
        "perturb.encoded_rows": encoded.encoded,
        "perturb.materialized_rows": encoded.materialized,
    }


def traced_shard(job):
    """Run one shard under a worker-local tracer; return (result, totals).

    Module-level so it pickles by reference into process-backend workers.
    The totals carry the worker's ``perturb``/``models``/``coverage`` self
    times and counters, and the shard's own self time as ``worker.self_s``.
    """
    fn, payload = job
    tracer = Tracer()
    before = _tallies()
    with Installed(tracer):
        result = tracer.call("worker", fn, payload)
    totals = tracer.totals()
    totals.update(tally_counts(before, _tallies()))
    return result, totals


class Phase:
    """One traced phase: wrappers installed, Γ tallies snapshotted."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._installed: Optional[Installed] = None
        self._before = None

    def __enter__(self) -> "Phase":
        self._before = _tallies()
        self._installed = Installed(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._installed is not None
        self._installed.restore()
        for name, value in tally_counts(self._before, _tallies()).items():
            self.tracer.add(name, value)
