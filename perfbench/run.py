"""Repository benchmark: COMET explanations end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload corpus_analytical --seed 1 --seconds 30 --trace 0

Workloads (see ``pb_workloads`` and ``pb_serve``):

* ``corpus_analytical`` -- ``ExplanationSession.explain_many`` over a
  synthetic corpus with the analytical model on the serial backend;
* ``corpus_uica_proc2`` -- the same path on the uiCA simulator, process
  backend with two workers and default sharding;
* ``serve_ithemal_socket`` -- a closed loop of two socket clients against an
  ``ExplanationService`` in its own process (Ithemal, continuous batching,
  disk-backed result cache).

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures the same timed phase untraced, then repeats the same work with the
layer entry points wrapped, and reports the per-layer metrics.  The output
is a human-readable table, one ``report`` JSON line (provenance, every
metric, the output checks) and, last, the result line::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: (name, unit) of the end-to-end metrics in the result line; identical on
#: every workload and in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("expl_per_s", "1/s"),
    ("queries_per_expl", "count"),
    ("anchor_valid_ratio", "ratio"),
    ("mean_coverage", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: End-to-end metrics printed in the table and the report but not in the
#: result line.  Latency percentiles stay out of it: on a 2-CPU host their
#: run-to-run spread exceeds any bound the benchmark may set (the closed
#: loop's latency distribution is bimodal, and its median jumps between the
#: modes).  ``latency_p90_ms`` is reported only where at least ten samples
#: lie beyond it.
REPORT_ONLY = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("mismatch_count", "count"),
)

#: (name, unit) of the per-layer metrics in a traced run's result line.
PER_LAYER = (
    ("perturb.calls", "count"),
    ("perturb.rows", "count"),
    ("perturb.self_s", "s"),
    ("perturb.rows_per_s", "1/s"),
    ("perturb.fallback_ratio", "ratio"),
    ("perturb.encoded_ratio", "ratio"),
    ("models.calls", "count"),
    ("models.rows", "count"),
    ("models.inner_queries", "count"),
    ("models.query_cache_hit_ratio", "ratio"),
    ("models.self_s", "s"),
    ("models.rows_per_s", "1/s"),
    ("explain.rounds", "count"),
    ("explain.rows_per_round", "count"),
    ("explain.self_s", "s"),
    ("coverage.calls", "count"),
    ("coverage.self_s", "s"),
    ("runtime.shards", "count"),
    ("runtime.tally_gap", "ratio"),
    ("cache.gets", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.puts", "count"),
    ("cache.bytes_written", "bytes"),
    ("batching.ticks", "count"),
    ("batching.mean_occupancy", "count"),
    ("scheduler.absorbed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
)

#: Per-layer times of layers that work on one workload only; reported in the
#: table and the report where the layer works, absent elsewhere.
LAYER_REPORT_ONLY = (
    ("runtime.map_s", "s"),
    ("runtime.worker_self_s", "s"),
    ("cache.get_us_p50", "us"),
    ("cache.put_us_p50", "us"),
    ("service.exec_ms_p50", "ms"),
    ("service.wait_ms_p50", "ms"),
)

WORKLOADS = ("corpus_analytical", "corpus_uica_proc2", "serve_ithemal_socket")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def provenance(args, argv) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "host": platform.node(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [sys.executable, sys.argv[0], *argv],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """Run one workload; returns its :class:`pb_workloads.Outcome`."""
    import pb_workloads

    if name == "serve_ithemal_socket":
        import pb_serve

        return pb_serve.ServeWorkload(seed, tiny=tiny).run(seconds, trace)
    spec = pb_workloads.CORPUS_SPECS[name]
    return pb_workloads.CorpusWorkload(spec, seed, tiny=tiny).run(seconds, trace)


def result_line(outcome, trace: bool) -> dict:
    declared = PER_LAYER if trace else END_TO_END
    source = outcome.layers if trace else outcome.metrics
    return {
        "correct": outcome.mismatches == 0 and not outcome.checks.get("failures"),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(source[name]), "unit": unit}
            for name, unit in declared
        },
    }


def table(outcome, trace: bool) -> str:
    metrics = dict(outcome.metrics)
    metrics["failed_ratio"] = outcome.failed / max(outcome.attempted, 1)
    metrics["mismatch_count"] = outcome.mismatches
    rows = [(n, u, metrics.get(n)) for n, u in END_TO_END + REPORT_ONLY]
    if trace:
        rows += [(n, u, outcome.layers.get(n)) for n, u in PER_LAYER + LAYER_REPORT_ONLY]
    lines = []
    for name, unit, value in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"{name:30s} {shown:>14s} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        # Never fall back to an installed copy: the checkout's code is measured.
        print(f"error: {SRC / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(table(outcome, bool(args.trace)))
    report = {
        "provenance": provenance(args, argv),
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "mismatch_count": outcome.mismatches,
        "checks": outcome.checks,
    }
    print("report " + json.dumps(report, default=float))
    line = result_line(outcome, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
