"""The uiCA row kernel's structure memo is exact.

``PipelineSimulator.throughput_rows`` relabels each row's locations to
dense slots and memoises steady-state throughput on the resulting
structure key, so rows that differ only by register names or addresses
are simulated once.  These tests pin that the memo never changes a
result: seeded Γ rows of the golden corpus give the same ``float.hex``
whether simulated by a fresh simulator, a warm one, or the unmemoised
per-block :meth:`~PipelineSimulator.throughput` oracle; and the key is
independent of the per-process hash seed.
"""

import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.models.pipeline as pipeline
from repro.bb.block import BasicBlock
from repro.models.pipeline import PipelineSimulator
from repro.models.uica import UiCACostModel
from repro.perturb.algorithm import BlockPerturber
from repro.perturb.batch import row_refs

from .test_uica_goldens import CONFIGS, GOLDEN_PATH, LANE_IDS, LANES

ROOT = Path(__file__).resolve().parents[2]

#: Γ rows drawn per golden block.
ROWS_PER_BLOCK = 6


def gamma_rows(texts, seed=7):
    """Seeded Γ perturbation rows (instruction tuples) of ``texts``."""
    rows = []
    for index, text in enumerate(texts):
        batch = BlockPerturber(BasicBlock.from_text(text)).perturb_batch(
            ROWS_PER_BLOCK, rng=np.random.default_rng(seed + index)
        )
        rows.extend(tuple(row_refs(row)) for row in batch.rows)
    return rows


def _hex(values):
    return [float(value).hex() for value in values]


@pytest.fixture(scope="module")
def rows():
    texts = json.loads(GOLDEN_PATH.read_text())["blocks"]
    return gamma_rows(texts)


@pytest.fixture(scope="module")
def row_blocks(rows):
    return [BasicBlock(row) for row in rows]


def _rows(*texts):
    return [BasicBlock.from_text(text).instructions for text in texts]


class TestMemoExactness:
    @pytest.mark.parametrize("uarch,name", LANES, ids=LANE_IDS)
    def test_fresh_warm_and_block_oracle_agree(self, rows, row_blocks, uarch, name):
        fresh = PipelineSimulator(uarch, CONFIGS[name])
        expected = _hex(fresh.throughput_rows(rows))
        # Γ rows repeat structures under different register names.
        assert 0 < len(fresh._memo) < len(set(rows))

        order = list(range(len(rows))) * 2
        random.Random(13).shuffle(order)
        warm = _hex(fresh.throughput_rows([rows[i] for i in order]))
        assert warm == [expected[i] for i in order]

        oracle = PipelineSimulator(uarch, CONFIGS[name])
        assert _hex(oracle.throughput(block) for block in row_blocks) == expected
        assert oracle._memo == {}

    def test_rename_keeping_dependencies_shares_one_entry(self):
        simulator = PipelineSimulator("hsw", UiCACostModel.DEFAULT_CONFIG)
        original, renamed = _rows(
            "add rax, rbx\nimul rcx, rax\nmov qword ptr [rsi + 8], rcx",
            "add rdx, rbx\nimul rdi, rdx\nmov qword ptr [r8 + 8], rdi",
        )
        values = simulator.throughput_rows([original, renamed])
        assert len(simulator._memo) == 1
        assert values[0] == values[1]
        plan = simulator._plan
        assert plan(simulator._records(original)).key == plan(simulator._records(renamed)).key

    def test_rename_breaking_a_raw_chain_gets_its_own_key(self):
        simulator = PipelineSimulator("hsw", UiCACostModel.DEFAULT_CONFIG)
        chained, broken = _rows(
            "imul rax, rbx\nimul rcx, rax\nimul rax, rcx",
            "imul rdx, rbx\nimul rcx, rax\nimul rax, rcx",
        )
        plan = simulator._plan
        assert plan(simulator._records(chained)).key != plan(simulator._records(broken)).key
        values = simulator.throughput_rows([chained, broken])
        assert len(simulator._memo) == 2
        oracle = PipelineSimulator("hsw", UiCACostModel.DEFAULT_CONFIG)
        assert values == [oracle.throughput(BasicBlock(r)) for r in (chained, broken)]
        assert values[0] > values[1]

    def test_memo_never_exceeds_its_limit(self, rows, row_blocks, monkeypatch):
        limit = 7
        monkeypatch.setattr(pipeline, "_STEADY_MEMO_LIMIT", limit)
        simulator = PipelineSimulator("skl", UiCACostModel.DEFAULT_CONFIG)
        got = []
        for row in rows[:200]:
            got.extend(simulator.throughput_rows([row]))
            assert len(simulator._memo) <= limit
        oracle = PipelineSimulator("skl", UiCACostModel.DEFAULT_CONFIG)
        assert _hex(got) == _hex(oracle.throughput(b) for b in row_blocks[:200])

    def test_pickles_carry_no_memo(self, rows):
        model = UiCACostModel("hsw")
        cold = pickle.dumps(model)
        expected = model.simulator.throughput_rows(rows[:300])
        assert model.simulator._memo
        assert len(pickle.dumps(model)) == len(cold)
        restored = pickle.loads(pickle.dumps(model)).simulator
        assert restored._memo == {} and restored._forms == {}
        assert restored.throughput_rows(rows[:300]) == expected


class TestShapes:
    def test_pickled_record_reinterns_its_shape(self):
        simulator = PipelineSimulator("hsw")
        (record,) = simulator._records(_rows("imul rax, qword ptr [rsi]")[0])
        foreign = record._replace(shape=-1)
        assert pickle.loads(pickle.dumps(foreign)) == record

    def test_concurrent_interning_never_shares_an_id(self):
        shapes = [(1, False, ((i,), 1.0), float(i)) for i in range(2000)]
        ids = [dict() for _ in range(4)]
        barrier = threading.Barrier(len(ids))

        def intern(out, order):
            barrier.wait()
            for shape in order:
                out[shape] = pipeline._shape_id(shape)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=intern, args=(out, random.Random(seed).sample(shapes, len(shapes)))
                )
                for seed, out in enumerate(ids)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == ids[0] for out in ids)
        assert len(set(ids[0].values())) == len(shapes)


_HASH_SEED_PROBE = """
import hashlib, json, sys
from pathlib import Path
from repro.models.pipeline import PipelineSimulator
from repro.models.uica import UiCACostModel
from tests.models.test_uica_memo import gamma_rows
texts = json.loads(Path(sys.argv[1]).read_text())["blocks"][:80]
rows = gamma_rows(texts)
simulator = PipelineSimulator("hsw", UiCACostModel.DEFAULT_CONFIG)
values = [v.hex() for v in simulator.throughput_rows(rows)]
keys = sorted(repr(key) for key in simulator._memo)
print(json.dumps({
    "memo": len(simulator._memo),
    "values": hashlib.sha256(repr(values).encode()).hexdigest(),
    "keys": hashlib.sha256(repr(keys).encode()).hexdigest(),
}))
"""


def test_structure_keys_do_not_follow_the_hash_seed():
    """Two launches at different hash seeds key the same rows identically."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, str(GOLDEN_PATH)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["memo"] > 0
