"""Pinned uiCA simulator output: throughput and ``simulate()`` bit for bit.

``uica_goldens.json`` holds ``float.hex()`` of the pipeline simulator's
steady-state throughput for a fixed corpus of synthesized blocks (plus a
handful of hand-written idiom blocks) on both micro-architectures under
four simulator configurations, and the full :meth:`simulate` result — port
pressure, the three bounds and the bottleneck label — for a subset.  The
numbers were recorded from the simulator's previous, uncompiled loop, so
they are the oracle any rewrite of the loop must reproduce exactly: the
block-wise path, the instruction-row kernel and the model's batch path
alike.  The file is data, not something this test rewrites: a change that
alters the simulator's semantics on purpose re-records it and justifies
the new numbers in its own diff.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.bb.block import BasicBlock, BlockCategory
from repro.data.oracle import ORACLE_SIMULATION_CONFIG
from repro.data.synthesis import BlockSynthesizer
from repro.models.pipeline import PipelineSimulator, SimulationConfig
from repro.models.uica import UiCACostModel

GOLDEN_PATH = Path(__file__).parent / "uica_goldens.json"

UARCHS = ("hsw", "skl")
CONFIGS = {
    "uica_default": UiCACostModel.DEFAULT_CONFIG,
    "oracle": ORACLE_SIMULATION_CONFIG,
    "plain": SimulationConfig(),
    "cold_narrow": SimulationConfig(warmup_iterations=0, frontend_bandwidth=2),
}

#: Renamer idioms, divisions, memory forms and stack ops the synthesizer
#: draws rarely or never in these combinations.
IDIOM_BLOCKS = (
    "xor eax, eax\nadd rax, rbx\nimul rax, rcx",
    "mov rax, rbx\nmov rbx, rax\nadd rax, 1",
    "pxor xmm1, xmm1\naddps xmm1, xmm2\nmovaps xmm2, xmm1",
    "vxorps xmm0, xmm1, xmm1\nvaddps xmm0, xmm0, xmm2",
    "sub rax, rax\nadd rax, rcx\nmov rcx, rax",
    "movaps xmm2, xmm3\nmulps xmm3, xmm2\nvmovaps xmm4, xmm3",
    "div rcx\nmov rdx, rcx\nimul rax, rcx",
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx",
    "mov qword ptr [rdi], rax\nmov rax, qword ptr [rdi]\nadd rax, 1",
    "add qword ptr [rsi + 8], rax\nmov rbx, qword ptr [rsi + 8]",
    "push rbx\npop rcx\nadd rcx, rbx",
    "xor eax, eax",
    "mov rax, rbx",
    "div rcx",
)

#: Every ``SIMULATE_STRIDE``-th block also pins the full simulate() result.
SIMULATE_STRIDE = 8


def corpus():
    """~200 block texts: profile-drawn, category-drawn, then idiom blocks."""
    synthesizer = BlockSynthesizer(rng=2026)
    rng = np.random.default_rng(2026)
    texts = []
    for index in range(126):
        size = int(rng.integers(1, 17))
        source = ("clang", "openblas")[index % 2]
        texts.append(synthesizer.generate(size, source=source, rng=rng).text)
    categories = list(BlockCategory)
    for index in range(60):
        size = int(rng.integers(2, 13))
        category = categories[index % len(categories)]
        texts.append(synthesizer.generate_category(category, size, rng=rng).text)
    texts.extend(IDIOM_BLOCKS)
    return texts


def _hex(value) -> str:
    return float(value).hex()


def _simulate_record(result):
    return {
        "throughput": _hex(result.throughput),
        "total_cycles": _hex(result.total_cycles),
        "port_pressure": {p: _hex(v) for p, v in result.port_pressure.items()},
        "frontend_bound": _hex(result.frontend_bound),
        "port_bound": _hex(result.port_bound),
        "dependency_bound": _hex(result.dependency_bound),
        "bottleneck": result.bottleneck,
    }


def _lane(uarch, name):
    return f"{uarch}/{name}"


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def blocks(goldens):
    return [BasicBlock.from_text(text) for text in goldens["blocks"]]


LANES = [(uarch, name) for uarch in UARCHS for name in CONFIGS]
LANE_IDS = [_lane(uarch, name) for uarch, name in LANES]


class TestUiCAGoldens:
    def test_corpus_is_the_recorded_one(self, goldens):
        # The block texts are stored, so synthesizer drift cannot silently
        # change what the numbers below pin; this only flags that drift.
        assert corpus() == goldens["blocks"]
        assert len(goldens["blocks"]) >= 200

    @pytest.mark.parametrize("uarch,name", LANES, ids=LANE_IDS)
    def test_throughput_bit_for_bit(self, goldens, blocks, uarch, name):
        simulator = PipelineSimulator(uarch, CONFIGS[name])
        expected = goldens["throughput"][_lane(uarch, name)]
        assert [_hex(simulator.throughput(b)) for b in blocks] == expected
        rows = simulator.throughput_rows([b.instructions for b in blocks])
        assert [_hex(value) for value in rows] == expected

    @pytest.mark.parametrize("uarch,name", LANES, ids=LANE_IDS)
    def test_simulate_bit_for_bit(self, goldens, blocks, uarch, name):
        simulator = PipelineSimulator(uarch, CONFIGS[name])
        expected = goldens["simulate"][_lane(uarch, name)]
        got = [
            _simulate_record(simulator.simulate(b))
            for b in blocks[::SIMULATE_STRIDE]
        ]
        assert got == expected

    @pytest.mark.parametrize("uarch", UARCHS)
    def test_model_batch_path_bit_for_bit(self, goldens, blocks, uarch):
        model = UiCACostModel(uarch)
        expected = goldens["throughput"][_lane(uarch, "uica_default")]
        assert [_hex(v) for v in model.predict_batch(blocks)] == expected

    def test_concurrent_first_compiles_agree(self, goldens):
        """Threads racing to compile the same fresh instructions' records
        (the thread backend's fan-out) still reproduce the goldens."""
        fresh = [BasicBlock.from_text(text) for text in goldens["blocks"]]
        simulator = PipelineSimulator("hsw", CONFIGS["uica_default"])
        expected = goldens["throughput"][_lane("hsw", "uica_default")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(simulator.throughput_rows, [b.instructions for b in fresh])
                    for _ in range(8)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for values in results:
            assert [_hex(value) for value in values] == expected
