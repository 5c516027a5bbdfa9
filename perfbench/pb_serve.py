"""The ``serve_ithemal_socket`` workload: a closed loop against a socket server.

Set-up spawns a server process (``server_main``) that trains a small
Ithemal model against the analytical teacher, opens an
``ExplanationService`` with continuous batching and a disk-backed result
cache, puts a ``SocketServer`` in front of it and warms it up.  The load
generator (this process) then runs a closed loop: ``CONNECTIONS``
``ServiceClient`` connections, each keeping ``DEPTH`` requests outstanding.
About ``REPEAT_SHARE`` of the seeded request stream repeats an earlier
(block, seed) and the rest is fresh, so result-cache reads run beside
result-cache writes.

The parent talks to the server over a socket pair: ``trace_on``/``trace_off``
wrap the server's layer entry points for a traced phase,
``session_queries`` returns the sessions' model-query tally, and ``stop`` shuts the server down and returns its peak
RSS.  The server is a plain ``subprocess`` running this file (not a
``multiprocessing`` child, whose start method leaves a resource-tracker
helper running after the benchmark exits), and the parent waits for it on
every path out.
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, Pipe
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import pb_tracing
import pb_workloads
from pb_workloads import CONFIG, UARCH, Outcome, median_setup, percentile

CONNECTIONS = 2
DEPTH = 4
REPEAT_SHARE = 0.3
POOL_SIZES = tuple(range(4, 10))
POOL_SEED = 21
TRAINING_SEED = 23
ORACLE_REQUESTS = 3
#: Oracle requests are drawn from this many last answers.
ORACLE_WINDOW = 20
COMPARED = ("features", "precision", "coverage", "prediction")
SETUPS = 3
#: Upper bound on one request's wait, far above any latency seen; reaching
#: it fails the request instead of hanging the benchmark.
REQUEST_TIMEOUT_S = 120.0


def block_pool(tiny: bool) -> list:
    sizes = (4, 5) if tiny else POOL_SIZES
    count = 2 if tiny else 2 * len(POOL_SIZES)
    return pb_workloads.corpus(count, sizes=sizes, corpus_seed=POOL_SEED)


def request_stream(seed: int, pool_size: int, length: int) -> List[tuple]:
    """Seeded (block index, request seed, repeats an earlier pair) triples.

    Fresh requests walk the pool in seeded rounds -- every block once per
    round, in a shuffled order -- so each run requests the blocks equally
    often; per-request cost spans two orders of magnitude across blocks.
    """
    generator = np.random.default_rng(seed)
    issued: List[tuple] = []
    stream = []
    order: List[int] = []
    for _ in range(length):
        if issued and generator.random() < REPEAT_SHARE:
            block, request_seed = issued[int(generator.integers(len(issued)))]
            stream.append((block, request_seed, True))
        else:
            if not order:
                order = [int(i) for i in generator.permutation(pool_size)]
            pair = (order.pop(), seed * 1_000_000 + len(issued))
            issued.append(pair)
            stream.append((*pair, False))
    return stream


def train_model(tiny: bool):
    from repro.data.synthesis import BlockSynthesizer
    from repro.models.analytical import AnalyticalCostModel
    from repro.models.ithemal import IthemalConfig, IthemalCostModel

    teacher = AnalyticalCostModel(UARCH)
    training = BlockSynthesizer(rng=TRAINING_SEED).generate_many(
        8 if tiny else 32, min_instructions=3, max_instructions=10, rng=TRAINING_SEED + 1
    )
    model = IthemalCostModel(
        UARCH, IthemalConfig(embedding_size=16, hidden_size=16, epochs=2)
    )
    model.train(training, [teacher.predict(block) for block in training])
    return model


# ---------------------------------------------------------------------------
# Server process


def server_main(conn, cache_path: str, tiny: bool) -> None:
    """Entry point of the server process (see ``ServerHandle``)."""
    import resource

    from repro.bb.block import BasicBlock
    from repro.runtime.session import ExplanationSession
    from repro.service import ExplanationService, SocketServer

    model = train_model(tiny)
    services: Dict[str, object] = {}

    def session_factory(model_name: str, uarch: str) -> ExplanationSession:
        # Without result_cache= a custom factory silently bypasses the
        # service's result cache.
        session = ExplanationSession(
            model, CONFIG, backend="serial", result_cache=services["service"].result_cache
        )
        services["session"] = session
        return session

    service = ExplanationService(
        model="ithemal",
        uarch=UARCH,
        config=CONFIG,
        session_factory=session_factory,
        dispatchers=1,
        continuous_batching=True,
        max_queue=CONNECTIONS * DEPTH * 4,
        result_cache=cache_path,
    )
    services["service"] = service
    server = SocketServer(service, port=0)
    server.start()
    warmup = BasicBlock.from_text(pb_workloads.WARMUP_BLOCK)
    service.explain([warmup], seed=0)
    conn.send(("ready", server.address, pickle.dumps(model)))
    phase: Optional[pb_tracing.Phase] = None
    try:
        while True:
            message = conn.recv()
            if message == "trace_on":
                phase = pb_tracing.Phase().__enter__()
                traced_from = time.perf_counter()
                conn.send("ok")
            elif message == "trace_off":
                assert phase is not None
                phase.__exit__(None, None, None)
                conn.send(server_layers(phase.tracer, time.perf_counter() - traced_from))
                phase = None
            elif message == "session_queries":
                stats = service.stats()
                conn.send(sum(s.model_queries for s in stats.session_stats.values()))
            elif isinstance(message, tuple) and message[0] == "replay":
                conn.send([replay(services["session"], text, seed) for text, seed in message[1]])
            elif message == "stop":
                break
    finally:
        server.close()
        service.close()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        conn.send(("stopped", rss_mb))
        conn.close()


def replay(served_session, block_text: str, seed: int) -> dict:
    """Explain ``(block, seed)`` on a direct session over the served model.

    The direct session shares the server's query cache, so it sees the very
    predictions the served request saw; ``num_queries`` counts any the
    cache no longer held.
    """
    from repro.bb.block import BasicBlock
    from repro.reporting.export import explanation_to_dict
    from repro.runtime.session import ExplanationSession

    with ExplanationSession(
        served_session.model, CONFIG, backend=served_session.backend
    ) as direct:
        return explanation_to_dict(direct.explain(BasicBlock.from_text(block_text), rng=seed))


def server_layers(tracer: "pb_tracing.Tracer", wall: float) -> Dict[str, float]:
    """Per-layer metrics of the server process for one traced phase.

    The unattributed share is the part of the phase the dispatcher spent
    outside any layer span: idle, or in service code between requests.
    """
    out = pb_workloads.layer_metrics(tracer)
    out["trace.unattributed_ratio"] = 1.0 - pb_tracing.root_time(tracer.spans) / wall
    durations: Dict[str, List[float]] = {"cache_get": [], "cache_put": []}
    for layer, start, end, _parent in tracer.spans:
        if layer in durations:
            durations[layer].append(end - start)
    for layer, name in (("cache_get", "cache.get_us_p50"), ("cache_put", "cache.put_us_p50")):
        if durations[layer]:
            out[name] = statistics.median(durations[layer]) * 1e6
    out["cache.gets"] = tracer.counts.get("cache.gets", 0.0)
    out["cache.puts"] = tracer.counts.get("cache.puts", 0.0)
    out["cache.hit_ratio"] = pb_workloads.ratio(
        tracer.counts.get("cache.hits", 0.0), out["cache.gets"]
    )
    return out


class ServerHandle:
    """The server process and its control connection."""

    def __init__(self, tiny: bool, workdir: Path) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="result-cache-", dir=workdir)
        self.rss_mb: Optional[float] = None
        self.conn, child = Pipe()
        command = [sys.executable, str(Path(__file__).resolve()), str(child.fileno())]
        command += [str(Path(self.cache_dir) / "results.log"), "1" if tiny else "0"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        # The server's stdout goes to stderr so the result line stays last.
        self.process = subprocess.Popen(command, pass_fds=(child.fileno(),), stdout=2, env=env)
        child.close()
        try:
            status, self.address, self.model_bytes = self.conn.recv()
            if status != "ready":
                raise RuntimeError(f"server process answered {status!r} instead of ready")
        except BaseException:
            self.close(graceful=False)
            raise

    def ask(self, message):
        self.conn.send(message)
        return self.conn.recv()

    def close(self, graceful: bool = True) -> None:
        """Stop the server and wait for it; kill it if it does not end."""
        if graceful and self.process.poll() is None:
            try:
                self.conn.send("stop")
                _status, self.rss_mb = self.conn.recv()
            except (EOFError, OSError):
                pass
        try:
            self.process.wait(30 if graceful else 0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.conn.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Load generator


class ClosedLoop:
    """``CONNECTIONS`` clients, each keeping ``DEPTH`` requests outstanding."""

    def __init__(self, address, blocks: list, stream: List[tuple]) -> None:
        self.address = address
        self.blocks = blocks
        self.stream = stream
        self.next_index = 0
        self.answered: set = set()
        self.records: List[dict] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def _take(self) -> tuple:
        with self._lock:
            item = self.stream[self.next_index]
            self.next_index += 1
            return item, (item[0], item[1]) in self.answered

    def _client(self, deadline: float) -> None:
        from repro.service import ServiceClient

        try:
            with ServiceClient(*self.address, timeout=REQUEST_TIMEOUT_S) as client:
                pending: deque = deque()

                def send() -> None:
                    item, answered = self._take()
                    sent = time.perf_counter()
                    request_id = client.submit(self.blocks[item[0]], seed=item[1])
                    pending.append((request_id, sent, item, answered))

                for _ in range(DEPTH):
                    send()
                while pending:
                    request_id, sent, item, answered = pending.popleft()
                    response = client.result(request_id)
                    arrived = time.perf_counter()
                    with self._lock:
                        self.answered.add((item[0], item[1]))
                        self.records.append(
                            {
                                "latency": arrived - sent,
                                "response": response,
                                "item": item,
                                "hit": answered,
                            }
                        )
                    if arrived < deadline:
                        send()
        except Exception as error:  # recorded and failed, never swallowed
            with self._lock:
                self.errors.append(repr(error))

    def run(self, seconds: float) -> float:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(start + seconds,))
            for _ in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def client_stats(address) -> dict:
    from repro.service import ServiceClient

    with ServiceClient(*address, timeout=REQUEST_TIMEOUT_S) as client:
        return client.stats()


def cache_counters(stats: dict) -> Dict[str, float]:
    cache = stats["result_cache"]
    fusion = stats["fusion"]
    return {
        "lookups": cache["lookups"],
        "hits": cache["hits"],
        "bytes": cache["disk"]["bytes"],
        "ticks": fusion["ticks"],
        "rounds_fused": fusion["rounds_fused"],
        "absorbed": fusion["absorbed"],
    }


class ServeWorkload:
    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path.cwd() / ".perfbench_tmp"
        self.blocks: list = []
        self.stream: List[tuple] = []
        self.oracle_report: dict = {}

    def setup(self) -> ServerHandle:
        self.blocks = block_pool(self.tiny)
        self.stream = request_stream(self.seed, len(self.blocks), 5_000)
        return ServerHandle(self.tiny, self.workdir)

    def phase(self, server: ServerHandle, seconds: float):
        before = cache_counters(client_stats(server.address))
        loop = ClosedLoop(server.address, self.blocks, self.stream)
        wall = loop.run(seconds)
        after = cache_counters(client_stats(server.address))
        delta = {name: after[name] - before[name] for name in before}
        return loop, wall, delta

    def run(self, seconds: float, trace: bool) -> Outcome:
        self.workdir.mkdir(exist_ok=True)
        server = None
        try:
            setup_s, server = median_setup(self.setup, 1 if self.tiny else SETUPS)
            outcome = Outcome()
            # A traced run splits its time between the untraced phase and
            # the traced replay.
            phase_s = seconds / 2 if trace else seconds
            loop, wall, delta = self.phase(server, phase_s)
            self.measure(outcome, loop, wall, delta)
            outcome.metrics["setup_s"] = setup_s
            outcome.mismatches = self.oracle_check(loop, server)
            outcome.checks["oracle"] = self.oracle_report
            if trace:
                # A fresh server replays the same stream traced, so both
                # phases do the same work from the same cold caches.
                server.close()
                server = self.setup()
                server.ask("trace_on")
                traced, traced_wall, traced_delta = self.phase(server, phase_s)
                session_queries = server.ask("session_queries")
                outcome.layers.update(server.ask("trace_off"))
                self.layer_metrics(outcome, traced, traced_delta, session_queries)
                outcome.layers["trace.overhead_ratio"] = outcome.metrics["expl_per_s"] / (
                    len(traced.records) / traced_wall
                )
        finally:
            if server is not None:
                server.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
        outcome.metrics["peak_rss_mb"] = server.rss_mb
        return outcome

    def measure(self, outcome: Outcome, loop: ClosedLoop, wall: float, delta: dict) -> None:
        records = loop.records
        done = [r for r in records if r["response"].get("status") == "done"]
        latencies = [r["latency"] for r in records]
        hits = [r["latency"] for r in records if r["hit"]]
        computed = self.first_answers(done)
        explanations = [r["response"]["explanations"][0] for r in computed]
        outcome.attempted = len(records) + len(loop.errors)
        outcome.failed = outcome.attempted - len(done)
        outcome.metrics.update(
            {
                "expl_per_s": len(done) / wall,
                "latency_p50_ms": percentile(latencies, 0.5) * 1000.0,
                "queries_per_expl": float(np.mean([e["num_queries"] for e in explanations])),
                "anchor_valid_ratio": float(np.mean([e["meets_threshold"] for e in explanations])),
                "mean_coverage": float(np.mean([e["coverage"] for e in explanations])),
            }
        )
        if hits:
            outcome.metrics["hit_latency_p50_ms"] = percentile(hits, 0.5) * 1000.0
        p90 = percentile(latencies, 0.9)
        beyond_p90 = sum(1 for latency in latencies if latency > p90)
        if beyond_p90 >= 10:
            outcome.metrics["latency_p90_ms"] = p90 * 1000.0
        outcome.checks["samples"] = {
            "requests": len(records),
            "hits": len(hits),
            "computed": len(computed),
            "beyond_p90": beyond_p90,
        }
        outcome.checks["client_errors"] = loop.errors
        # Result-cache wiring guard: one lookup per request, and every repeat
        # whose first answer had arrived before it was sent is a hit.
        guard = {
            "lookups": delta["lookups"],
            "requests": len(records),
            "hits": delta["hits"],
            "answered_repeats": len(hits),
        }
        guard["ok"] = guard["lookups"] == guard["requests"] and guard["hits"] >= guard["answered_repeats"]
        outcome.checks["result_cache_guard"] = guard
        if not guard["ok"]:
            outcome.checks.setdefault("failures", []).append("result cache guard")
        if loop.errors:
            outcome.checks.setdefault("failures", []).append("client errors")

    @staticmethod
    def first_answers(done: List[dict]) -> List[dict]:
        """The first response of each distinct (block, seed): the computed ones."""
        seen, first = set(), []
        for record in done:
            key = record["item"][:2]
            if key not in seen:
                seen.add(key)
                first.append(record)
        return first

    def layer_metrics(self, outcome, loop, delta, session_queries) -> None:
        records = [r for r in loop.records if r["response"].get("status") == "done"]
        execs = [r["response"]["seconds"] for r in records]
        waits = [r["latency"] - r["response"]["seconds"] for r in records]
        layers = outcome.layers
        layers["service.exec_ms_p50"] = percentile(execs, 0.5) * 1000.0
        layers["service.wait_ms_p50"] = percentile(waits, 0.5) * 1000.0
        layers["batching.ticks"] = delta["ticks"]
        layers["batching.mean_occupancy"] = pb_workloads.ratio(delta["rounds_fused"], delta["ticks"])
        layers["scheduler.absorbed"] = delta["absorbed"]
        layers["cache.bytes_written"] = delta["bytes"]
        layers["runtime.shards"] = 0.0
        computed = self.first_answers(records)
        queries = sum(r["response"]["explanations"][0]["num_queries"] for r in computed)
        layers["runtime.tally_gap"] = 1.0 - pb_workloads.ratio(session_queries, queries)

    def oracle_check(self, loop: ClosedLoop, server: ServerHandle) -> int:
        """Recompute a seeded subset of answers directly; count mismatches.

        The oracle is a direct session in the server process over the served
        model and its warm query cache (``replay``), so it sees the same
        predictions: features, precision, coverage and prediction must match
        bit for bit.  The subset is drawn from the last answers, whose rows the
        query cache still holds.

        A cold direct session in this process is compared too, as a
        diagnostic: Ithemal's predictions depend on batch composition in the
        last bits, so a served answer computed against a warm query cache can
        differ from a cold recomputation where a sample lands on the
        tolerance boundary.  Those differences are reported, not failed.  A
        served ``num_queries`` may not exceed the cold count.
        """
        from repro.reporting.export import explanation_to_dict
        from repro.runtime.session import ExplanationSession

        done = [r for r in loop.records if r["response"].get("status") == "done"]
        recent = done[-ORACLE_WINDOW:]
        picker = np.random.default_rng(self.seed)
        picked = [
            recent[i]
            for i in sorted(picker.choice(len(recent), size=min(ORACLE_REQUESTS, len(recent)), replace=False))
        ]
        items = [(self.blocks[r["item"][0]].text, r["item"][1]) for r in picked]
        replays = server.ask(("replay", items))
        mismatches = 0
        cold_differences = []
        for record, replayed in zip(picked, replays):
            served = record["response"]["explanations"][0]
            if any(served[key] != replayed[key] for key in COMPARED):
                mismatches += 1
            block_index, request_seed, _repeat = record["item"]
            with ExplanationSession(pickle.loads(server.model_bytes), CONFIG, backend="serial") as cold:
                expected = explanation_to_dict(cold.explain(self.blocks[block_index], rng=request_seed))
            differing = [key for key in COMPARED if served[key] != expected[key]]
            if not differing and served["num_queries"] > expected["num_queries"]:
                mismatches += 1
            if differing:
                cold_differences.append({"block": block_index, "seed": request_seed, "fields": differing})
        self.oracle_report = {
            "replay_queries": [r["num_queries"] for r in replays],
            "cold_differences": cold_differences,
        }
        return mismatches


if __name__ == "__main__":
    # ``python3 pb_serve.py FD CACHE_PATH TINY``: the server process.
    server_main(Connection(int(sys.argv[1])), sys.argv[2], sys.argv[3] == "1")
