"""uiCA-style simulation-based cost model.

Wraps the out-of-order :class:`~repro.models.pipeline.PipelineSimulator` in
the :class:`~repro.models.base.CostModel` query interface.  In the paper,
uiCA is the lowest-error throughput predictor; in this reproduction it plays
the same role against the synthetic hardware oracle (which is a more detailed
configuration of the same simulator family plus measurement noise), so its
error stays low while remaining non-zero.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bb.block import BasicBlock
from repro.models.base import CostModel
from repro.models.pipeline import PipelineSimulator, SimulationConfig, SimulationResult
from repro.runtime.backend import ExecutionBackend


class UiCACostModel(CostModel):
    """Simulation-based throughput predictor (uiCA stand-in)."""

    #: Default simulator configuration: register-move elimination is modelled
    #: (both Haswell and Skylake implement it); the renamer's zero-idiom
    #: handling and the longer measurement window are left to the hardware
    #: oracle, so uiCA keeps a small but non-zero error against "hardware".
    DEFAULT_CONFIG = SimulationConfig(move_elimination=True)

    def __init__(
        self,
        microarch="hsw",
        config: Optional[SimulationConfig] = None,
        *,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        super().__init__(microarch)
        self.config = config or self.DEFAULT_CONFIG
        self.simulator = PipelineSimulator(self.microarch, self.config)
        self.name = f"uica-{self.microarch.short_name}"
        if backend is not None:
            self.set_backend(backend)

    def _predict(self, block: BasicBlock) -> float:
        return self.simulator.throughput(block)

    def _predict_batch(self, blocks: Sequence[BasicBlock]) -> List[float]:
        # The simulator holds no mutable state across simulate() calls and is
        # picklable, so a batch can fan out across threads or processes
        # whenever an execution backend allows it.
        return self._fanout_predict_batch(blocks)

    def _rows_kernel(self):
        """Encoded batches simulate straight from instruction rows.

        Only when the batch stays in this process: with a multi-worker
        backend the batch fans out as blocks (``None`` here materialises
        it).  Process-sharded explanations run their shards on workers
        whose unpickled model has no backend, so their rows stay encoded.
        """
        if self._fanout_backend() is not None:
            return None
        return self.simulator.throughput_rows

    def analyze(self, block: BasicBlock) -> SimulationResult:
        """Full simulation result, including port pressure and the bottleneck.

        This mirrors uiCA's ability to report *where* in the pipeline the
        bottleneck lies (Appendix H.3); it is not used by COMET itself (which
        only needs query access) but is exposed for the example applications.
        """
        return self.simulator.simulate(block)
