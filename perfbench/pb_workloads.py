"""The benchmark's workloads: inputs, timed phases and output checks.

Every workload draws its inputs from the run's ``--seed`` and hands the
program only those inputs, through the public API.  Block *content* is a
fixed synthetic corpus per workload (drawn from ``BlockSynthesizer`` with a
workload constant): the cost of explaining one block spans two orders of
magnitude with its content, so a corpus re-drawn per seed, at the size one
run can explain, would make the spread across seeds measure the corpus
rather than the code.  The seed draws everything else -- each pass's
explanation streams and, for the service, the request stream and its
repeats.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.synthesis import BlockSynthesizer
from repro.explain.config import ExplainerConfig
from repro.models.registry import build_cost_model
from repro.runtime.session import ExplanationSession
from repro.utils.rng import spawn_rngs

import pb_tracing

#: The explainer configuration every workload uses (the batched defaults
#: with an absolute 0.2-cycle acceptance ball, as in the repository's other
#: throughput benchmarks).
CONFIG = ExplainerConfig(epsilon=0.2, relative_epsilon=0.0)
ORACLE_CONFIG = CONFIG.with_overrides(batch_queries=False)

PROFILES = ("clang", "openblas")
UARCH = "hsw"


def corpus(count: int, *, sizes: Sequence[int], corpus_seed: int) -> list:
    """``count`` blocks stratified over ``sizes`` and both source profiles.

    Block ``i`` has ``sizes[i % len(sizes)]`` instructions and alternates
    profiles, so any prefix of ``len(sizes) * 2`` blocks covers every
    (size, profile) pair once.
    """
    generator = np.random.default_rng(corpus_seed)
    synthesizer = BlockSynthesizer(rng=generator)
    blocks = []
    for index in range(count):
        size = sizes[index % len(sizes)]
        profile = PROFILES[(index // len(sizes) + index) % len(PROFILES)]
        blocks.append(synthesizer.generate(size, source=profile, rng=generator))
    return blocks


def signature(explanation) -> tuple:
    """The compared outputs of one explanation (satellite output check)."""
    return (
        tuple(feature.describe() for feature in explanation.features),
        explanation.precision,
        explanation.coverage,
        explanation.num_queries,
        explanation.prediction,
    )


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    return float(np.percentile(np.asarray(values, dtype=float), share * 100.0))


def peak_rss_mb(*, children: bool) -> float:
    """Peak RSS of this process, plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        own += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checks: Dict[str, object] = field(default_factory=dict)


def median_setup(build, repeats: int):
    """Run ``build`` ``repeats`` times; return (median seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


# ---------------------------------------------------------------------------
# Corpus workloads


@dataclass(frozen=True)
class CorpusSpec:
    model: str
    backend: str
    workers: Optional[int]
    blocks: int
    sizes: tuple
    corpus_seed: int
    oracle_positions: int


CORPUS_SPECS = {
    "corpus_analytical": CorpusSpec(
        model="crude",
        backend="serial",
        workers=None,
        blocks=11,
        sizes=tuple(range(4, 15)),
        corpus_seed=11,
        oracle_positions=2,
    ),
    "corpus_uica_proc2": CorpusSpec(
        model="uica",
        backend="process",
        workers=2,
        blocks=4,
        sizes=(4, 5, 6, 7),
        corpus_seed=12,
        oracle_positions=1,
    ),
}

#: Per-layer counters of the serving stack (zero on the corpus workloads).
SERVICE_COUNTERS = (
    "cache.gets",
    "cache.hit_ratio",
    "cache.puts",
    "cache.bytes_written",
    "batching.ticks",
    "batching.mean_occupancy",
    "scheduler.absorbed",
)

#: Set-ups per run; ``setup_s`` is their median.  One set-up takes tens of
#: milliseconds, so a median of few reads host noise.
SETUPS = 15

WARMUP_BLOCK = "mov rax, rbx; add rax, 1; imul rcx, rax"


class CorpusWorkload:
    """``ExplanationSession.explain_many`` over a corpus, one session a pass."""

    def __init__(self, spec: CorpusSpec, seed: int, *, tiny: bool = False) -> None:
        self.spec = spec
        self.seed = seed
        self.tiny = tiny
        self.blocks: list = []

    def _session(self, config: ExplainerConfig = CONFIG, backend=None):
        return ExplanationSession(
            build_cost_model(self.spec.model, UARCH, cached=False),
            config,
            backend=backend or self.spec.backend,
            workers=self.spec.workers if backend is None else None,
        )

    def setup(self) -> None:
        from repro.bb.block import BasicBlock

        count = 2 if self.tiny else self.spec.blocks
        sizes = (4, 5) if self.tiny else self.spec.sizes
        self.blocks = corpus(count, sizes=sizes, corpus_seed=self.spec.corpus_seed)
        warmup = BasicBlock.from_text(WARMUP_BLOCK)
        with self._session() as session:
            session.explain_many([warmup, warmup], rng=0)

    def pass_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def one_pass(self, index: int):
        with self._session() as session:
            explanations = session.explain_many(self.blocks, rng=self.pass_seed(index))
            stats = session.stats()
        return explanations, stats

    def timed(self, seconds: float, passes: Optional[int] = None):
        """Passes until ``seconds`` elapse (or exactly ``passes`` passes).

        Returns (wall, per-pass walls, per-pass (explanations, stats)).
        """
        walls, results = [], []
        start = time.perf_counter()
        while passes is None or len(walls) < passes:
            pass_start = time.perf_counter()
            results.append(self.one_pass(len(walls)))
            walls.append(time.perf_counter() - pass_start)
            if passes is None and time.perf_counter() - start >= seconds:
                break
        return time.perf_counter() - start, walls, results

    def oracle_check(self, explanations) -> int:
        """Recompute a seeded subset of pass 0 on the oracle; count mismatches.

        The oracle is the one-query-at-a-time search (``batch_queries=False``)
        on the serial backend, fed the exact stream ``explain_many`` gave the
        position.
        """
        picker = np.random.default_rng(self.seed)
        count = min(self.spec.oracle_positions, len(self.blocks))
        positions = sorted(picker.choice(len(self.blocks), size=count, replace=False))
        streams = spawn_rngs(self.pass_seed(0), len(self.blocks))
        mismatches = 0
        for position in positions:
            with self._session(ORACLE_CONFIG, backend="serial") as oracle:
                expected = oracle.explain(self.blocks[position], rng=streams[position])
            if signature(expected) != signature(explanations[position]):
                mismatches += 1
        return mismatches

    def run(self, seconds: float, trace: bool) -> Outcome:
        setup_s, _ = median_setup(self.setup, 1 if self.tiny else SETUPS)
        outcome = Outcome()
        # A traced run splits its time between the untraced measurement and
        # the traced replay of the same passes.
        wall, walls, results = self.timed(seconds / 2 if trace else seconds)
        explanations = [e for batch, _stats in results for e in batch]
        queries = sum(e.num_queries for e in explanations)
        stats_queries = sum(stats.model_queries for _batch, stats in results)
        outcome.attempted = len(explanations)
        outcome.metrics = {
            "setup_s": setup_s,
            "expl_per_s": len(explanations) / wall,
            "latency_p50_ms": percentile(walls, 0.5) * 1000.0,
            "queries_per_expl": queries / len(explanations),
            "anchor_valid_ratio": float(np.mean([e.meets_threshold for e in explanations])),
            "mean_coverage": float(np.mean([e.coverage for e in explanations])),
        }
        outcome.checks["passes"] = len(walls)
        outcome.checks["samples"] = {"latency": len(walls), "explanations": len(explanations)}
        outcome.checks["tally"] = {"stats_model_queries": stats_queries, "sum_num_queries": queries}
        outcome.layers["runtime.tally_gap"] = 1.0 - stats_queries / queries if queries else 0.0
        if trace:
            self._trace(outcome, wall, len(walls))
        outcome.mismatches = self.oracle_check(results[0][0])
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(children=self.spec.backend == "process")
        return outcome

    def _trace(self, outcome: Outcome, untraced_wall: float, passes: int) -> None:
        """Re-run the same passes traced: same seeds, so the same work."""
        with pb_tracing.Phase() as phase:
            wall, _walls, _results = self.timed(0.0, passes=passes)
        outcome.layers.update(layer_metrics(phase.tracer))
        # No service and no result cache run here: their counters are zero.
        outcome.layers.update(dict.fromkeys(SERVICE_COUNTERS, 0.0))
        outcome.layers["trace.overhead_ratio"] = wall / untraced_wall
        balance = pb_tracing.add_up(phase.tracer, wall)
        outcome.checks["add_up"] = balance
        if abs(balance["gap_s"]) > 1e-6 * wall or balance["unattributed_s"] < 0:
            outcome.checks.setdefault("failures", []).append("layer self times do not add up")
        outcome.layers["trace.unattributed_ratio"] = balance["unattributed_s"] / wall


def layer_metrics(tracer: "pb_tracing.Tracer") -> Dict[str, float]:
    """Per-layer metrics from one traced phase (parent and worker totals)."""
    totals = tracer.totals()
    worker = dict(tracer.worker)

    def both(name: str) -> float:
        return totals.get(name, 0.0) + worker.get(name, 0.0)

    out: Dict[str, float] = {}
    for layer in ("perturb", "models", "coverage", "explain"):
        out[f"{layer}.self_s"] = both(f"{layer}.self_s")
    out["perturb.calls"] = both("perturb.calls")
    out["perturb.rows"] = both("perturb.rows")
    out["perturb.rows_per_s"] = ratio(out["perturb.rows"], out["perturb.self_s"])
    out["perturb.fallback_ratio"] = ratio(both("perturb.fallbacks"), both("perturb.perturbations"))
    encoded = both("perturb.encoded_rows")
    out["perturb.encoded_ratio"] = ratio(encoded, encoded + both("perturb.materialized_rows"))
    out["models.calls"] = both("models.calls")
    out["models.rows"] = both("models.rows")
    out["models.inner_queries"] = both("models.inner_queries")
    out["models.query_cache_hit_ratio"] = 1.0 - ratio(out["models.inner_queries"], out["models.rows"])
    out["models.rows_per_s"] = ratio(out["models.rows"], out["models.self_s"])
    out["explain.rounds"] = both("explain.rounds")
    out["explain.rows_per_round"] = ratio(out["models.rows"], out["explain.rounds"])
    out["coverage.calls"] = both("coverage.calls")
    out["runtime.shards"] = totals.get("runtime.shards", 0.0)
    if totals.get("runtime.map_calls"):
        out["runtime.map_s"] = totals.get("runtime.self_s", 0.0)
        out["runtime.worker_self_s"] = worker.get("worker.self_s", 0.0)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
