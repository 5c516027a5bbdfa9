"""Out-of-order pipeline simulator (the simulation substrate behind uiCA).

The paper evaluates COMET on uiCA, a hand-engineered simulator of recent
Intel pipelines.  uiCA itself is not available offline, so this module
implements a simplified out-of-order core simulator with the components that
dominate basic-block throughput on Haswell/Skylake-class machines:

* an in-order front end issuing ``issue_width`` micro-ops per cycle,
* per-port execution with port contention (a uop occupies the least-loaded
  port among the ports its instruction class may use),
* non-pipelined execution units (division) occupying their port for the
  instruction's full reciprocal throughput,
* true (RAW) register and memory dependencies, including loop-carried
  dependencies, with load-to-use latency folded into the latency of
  instructions with a memory source (stores and loads of the same address
  are an ordinary RAW dependency: store-to-load forwarding is not modelled
  separately),
* optional idiom handling (register move elimination, zero idioms) used by
  the "hardware oracle" configuration of the dataset generator.

The simulator executes the block in a steady-state loop (the BHive
measurement methodology) and reports cycles per iteration.  Everything the
loop needs to know about one instruction is compiled once into an
:class:`_Record` and memoised on the immutable instruction itself, so the
explanation hot loop — thousands of perturbed blocks sharing a handful of
instruction objects — pays the table lookups once per instruction object,
not once per simulated block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.bb.dependencies import _tracked_accesses, raw_dependency_pairs
from repro.isa.instructions import Instruction, Location
from repro.isa.operands import RegisterOperand
from repro.uarch.microarch import MicroArchitecture, get_microarch
from repro.uarch.tables import instruction_cost_for


@dataclass(frozen=True)
class SimulationConfig:
    """Detail knobs of the pipeline simulator.

    ``measured_iterations``/``warmup_iterations`` control the steady-state
    measurement; the elimination flags model renamer idioms that the more
    detailed "hardware oracle" configuration enables.
    """

    measured_iterations: int = 12
    warmup_iterations: int = 3
    move_elimination: bool = False
    zero_idiom_elimination: bool = False
    frontend_bandwidth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.measured_iterations < 1:
            raise ValueError("measured_iterations must be >= 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")


@dataclass
class SimulationResult:
    """Outcome of simulating one block."""

    throughput: float
    total_cycles: float
    port_pressure: Dict[str, float]
    frontend_bound: float
    port_bound: float
    dependency_bound: float

    @property
    def bottleneck(self) -> str:
        """Which resource limits this block (``frontend``/``ports``/``dependencies``)."""
        bounds = {
            "frontend": self.frontend_bound,
            "ports": self.port_bound,
            "dependencies": self.dependency_bound,
        }
        return max(bounds, key=lambda k: bounds[k])


def _is_reg_move(instruction: Instruction) -> bool:
    return (
        instruction.mnemonic in ("mov", "movaps", "movups", "movdqa", "vmovaps", "vmovups")
        and len(instruction.operands) == 2
        and all(isinstance(op, RegisterOperand) for op in instruction.operands)
    )


def _is_zero_idiom(instruction: Instruction) -> bool:
    if instruction.mnemonic not in ("xor", "pxor", "xorps", "vpxor", "vxorps", "sub"):
        return False
    ops = instruction.operands
    if len(ops) == 2 and all(isinstance(op, RegisterOperand) for op in ops):
        return ops[0].register.root == ops[1].register.root
    if len(ops) == 3 and all(isinstance(op, RegisterOperand) for op in ops):
        return ops[1].register.root == ops[2].register.root
    return False


class _Record(NamedTuple):
    """What the steady-state loop reads of one instruction, compiled once.

    Hazard tracking ignores flags and stack-pointer updates (they are
    renamed away), exactly as the block's dependency analysis does, so the
    tracked reads/writes are the memoised
    :func:`~repro.bb.dependencies._tracked_accesses`.
    """

    #: Front-end slots the instruction takes (eliminated idioms still take
    #: one: they are renamed, just not executed).
    issue_uops: int
    eliminated: bool
    #: Tracked reads — empty when the instruction breaks dependencies (zero
    #: idioms do not wait for their sources).
    reads: Tuple[Location, ...]
    writes: Tuple[Location, ...]
    #: One ``(port indices in port-name order, occupancy)`` pair per uop
    #: copy.  The first uop of a non-pipelined instruction occupies its port
    #: for the instruction's reciprocal throughput.
    uops: Tuple[Tuple[Tuple[int, ...], float], ...]
    #: ``max(latency, 1.0)``: the cycles from dispatch to result.
    latency: float


class PipelineSimulator:
    """Steady-state loop simulator for one micro-architecture."""

    def __init__(self, microarch="hsw", config: Optional[SimulationConfig] = None) -> None:
        self.microarch: MicroArchitecture = get_microarch(microarch)
        self.config = config or SimulationConfig()
        config = self.config
        self._width = config.frontend_bandwidth or self.microarch.issue_width
        self._port_index = {port: i for i, port in enumerate(self.microarch.ports)}
        # Records depend on the micro-architecture and on which idioms the
        # renamer eliminates, so they are memoised on the instruction under
        # an attribute naming exactly those.  (Not a ``_cost_`` name: the
        # perturber copies those onto register renames, but a record's
        # reads, writes and idiom flags name concrete registers.)
        self._record_attr = (
            f"_pipeline_{self.microarch.short_name}"
            f"_{int(config.move_elimination)}{int(config.zero_idiom_elimination)}"
        )

    # ----------------------------------------------------------------- API

    def simulate(self, block: BasicBlock) -> SimulationResult:
        """Simulate ``block`` looped in steady state and return its metrics.

        Runs the same loop as :meth:`throughput`, additionally accumulating
        per-port busy cycles, and derives the front-end, port and dependency
        bounds used for bottleneck classification.
        """
        records = self._records(block.instructions)
        ports = self.microarch.ports
        port_busy = [0.0] * len(ports)
        throughput, total_cycles = self._steady_state(records, port_busy)
        iterations = self.config.warmup_iterations + self.config.measured_iterations
        return SimulationResult(
            throughput=throughput,
            total_cycles=total_cycles,
            port_pressure={
                port: busy / iterations for port, busy in zip(ports, port_busy)
            },
            frontend_bound=sum(r.issue_uops for r in records) / self._width,
            port_bound=max(port_busy) / iterations if port_busy else 0.0,
            dependency_bound=_dependency_bound(block.instructions, records),
        )

    def throughput(self, block: BasicBlock) -> float:
        """The steady-state throughput of ``block`` (cycles per iteration).

        All mutable simulation state lives in locals of the loop, and the
        memoised records are immutable, so concurrent calls (e.g.
        :class:`~repro.models.uica.UiCACostModel`'s thread fan-out) are safe.
        """
        return self._steady_state(self._records(block.instructions))[0]

    def throughput_rows(
        self, rows: Sequence[Sequence[Instruction]]
    ) -> List[float]:
        """Throughput of each instruction row (a block's instructions).

        The row kernel behind the uiCA model's batch path: encoded
        perturbation rows simulate straight from their instruction
        references, no block is constructed.
        """
        return [self._steady_state(self._records(row))[0] for row in rows]

    # ------------------------------------------------------------ internals

    def _records(self, instructions: Sequence[Instruction]) -> List[_Record]:
        attr = self._record_attr
        return [
            instruction.__dict__.get(attr) or self._compile(instruction)
            for instruction in instructions
        ]

    def _compile(self, instruction: Instruction) -> _Record:
        """Build (and memoise on ``instruction``) its :class:`_Record`."""
        config = self.config
        cost = instruction_cost_for(instruction, self.microarch)
        eliminated = False
        breaks_dependency = False
        if config.zero_idiom_elimination and _is_zero_idiom(instruction):
            eliminated = True
            breaks_dependency = True
        elif config.move_elimination and _is_reg_move(instruction):
            eliminated = True
        reads, writes = _tracked_accesses(instruction)
        uops: List[Tuple[Tuple[int, ...], float]] = []
        for uop_index, uop in enumerate(cost.uops):
            # Name order is the port tie-break (see _steady_state).
            ports = tuple(self._port_index[port] for port in sorted(uop.ports))
            occupancy = 1.0
            if uop_index == 0 and cost.throughput > 1.0:
                occupancy = float(cost.throughput)
            uops.extend([(ports, occupancy)] * uop.count)
        record = _Record(
            issue_uops=max(0 if eliminated else cost.total_uops, 1),
            eliminated=eliminated,
            reads=() if breaks_dependency else reads,
            writes=writes,
            uops=tuple(uops),
            latency=max(cost.latency, 1.0),
        )
        instruction.__dict__[self._record_attr] = record
        return record

    def _steady_state(
        self, records: Sequence[_Record], port_busy: Optional[List[float]] = None
    ) -> Tuple[float, float]:
        """Run the block's records in a steady-state loop.

        Returns ``(cycles per measured iteration, total cycles)``.  When
        ``port_busy`` is given (one slot per port, in microarch port order)
        each dispatched uop adds its occupancy to its port's slot.

        A uop goes to the port that frees up first; equally-loaded ports
        tie-break by port name (the first strict minimum over name-ordered
        indices).  The tie-break must not follow set iteration order: port
        sets are frozensets of str, whose order follows the per-process hash
        seed, and would make simulated throughput differ between interpreter
        launches (and between spawn-style backend workers).
        """
        config = self.config
        width = self._width
        warmup = config.warmup_iterations
        register_ready: Dict[Location, float] = {}
        ready_at = register_ready.get
        port_free = [0.0] * len(self._port_index)
        frontend_cycle = 0.0
        slots_left = width
        last_finish = 0.0
        end = warmup_end = 0.0
        for iteration in range(warmup + config.measured_iterations):
            for issue_uops, eliminated, reads, writes, uops, latency in records:
                # -- front end ------------------------------------------------
                issue_time = frontend_cycle
                remaining = issue_uops
                while remaining > 0:
                    take = remaining if remaining < slots_left else slots_left
                    remaining -= take
                    slots_left -= take
                    issue_time = frontend_cycle
                    if slots_left <= 0:
                        frontend_cycle += 1.0
                        slots_left = width

                # -- dependencies ---------------------------------------------
                ready = issue_time
                for loc in reads:
                    available = ready_at(loc, 0.0)
                    if available > ready:
                        ready = available

                if eliminated:
                    # Renamer handles the move/zero idiom: the result is
                    # ready as soon as its sources are (zero idioms have
                    # none), no execution port is used.
                    finish = ready
                else:
                    # -- execution ports --------------------------------------
                    dispatch_time = ready
                    for ports, occupancy in uops:
                        port = ports[0]
                        free = port_free[port]
                        for candidate in ports:
                            if port_free[candidate] < free:
                                port = candidate
                                free = port_free[candidate]
                        start = ready if ready > free else free
                        port_free[port] = start + occupancy
                        if port_busy is not None:
                            port_busy[port] += occupancy
                        if start > dispatch_time:
                            dispatch_time = start
                    finish = dispatch_time + latency

                for loc in writes:
                    register_ready[loc] = finish
                if finish > last_finish:
                    last_finish = finish
            end = frontend_cycle if frontend_cycle > last_finish else last_finish
            if iteration == warmup - 1:
                warmup_end = end
        # Without warm-up ``warmup_end`` stays 0.0 and the subtraction is exact.
        cycles = end - warmup_end
        throughput = cycles / config.measured_iterations
        return (throughput if throughput > 0.05 else 0.05), end


def _dependency_bound(
    instructions: Sequence[Instruction], records: Sequence[_Record]
) -> float:
    """Latency of the longest loop-carried RAW chain, per iteration.

    A cheap lower bound: sum of latencies along the longest RAW path when
    the path wraps around the loop (producer in one iteration feeding a
    consumer in the next).  Used only for bottleneck classification.
    """
    best = 0.0
    chain: Dict[int, float] = {}
    for source, destination in raw_dependency_pairs(instructions):
        candidate = chain.get(source, records[source].latency) + records[
            destination
        ].latency
        if candidate > chain.get(destination, 0.0):
            chain[destination] = candidate
        best = max(best, candidate)
    return best
