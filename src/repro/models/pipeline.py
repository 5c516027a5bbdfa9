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

Before it runs, a block's records are planned: every tracked location is
relabelled to a dense slot index by first occurrence.  The loop only ever
compares locations for equality, so two blocks whose records have equal
shapes and equal slot patterns — for example a block and a register rename
of it that keeps its dependencies — simulate identically.  The plan's
structure key says exactly that, and the row kernel memoises throughput
on it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bb.block import BasicBlock
from repro.bb.dependencies import _tracked_accesses, raw_dependency_pairs
from repro.isa.instructions import Instruction, Location
from repro.isa.operands import MemoryOperand, RegisterOperand
from repro.uarch.microarch import MicroArchitecture, get_microarch
from repro.uarch.tables import instruction_cost_for

#: Structure keys one simulator's throughput memo holds before it is cleared
#: wholesale (the policy of ``repro.explain.precision._BOUND_MEMO``): a
#: corpus pass needs a few thousand, so eviction order does not matter.
_STEADY_MEMO_LIMIT = 32768


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


def _operand_order(
    instruction: Instruction, locations: Tuple[Location, ...]
) -> Tuple[Location, ...]:
    """``locations`` ordered by the first operand that names them.

    An operand's address registers come before the memory location they
    address; locations no operand names (implicit registers) follow, by
    name.  Unlike the frozenset order the read/write sets come in, this
    order does not follow the per-process hash seed, and a register rename
    keeps it, so structure keys are the same in every interpreter launch.
    """
    if len(locations) < 2:
        return locations
    rank: Dict[Location, int] = {}
    for operand in instruction.operands:
        for register in operand.registers_read():
            rank.setdefault(("reg", register.root), len(rank))
        if isinstance(operand, RegisterOperand):
            rank.setdefault(("reg", operand.register.root), len(rank))
        elif isinstance(operand, MemoryOperand) and not operand.is_agen:
            rank.setdefault(("mem", operand.address_key()), len(rank))
    unnamed = len(rank)
    return tuple(
        sorted(locations, key=lambda loc: (rank.get(loc, unnamed), str(loc[1])))
    )


# One table per process, not per simulator: records are memoised on the
# instruction and shared by every simulator of the same uarch and idiom
# flags, so their shape ids must all come from the same table.
_SHAPE_IDS: Dict[tuple, int] = {}
_SHAPE_LOCK = threading.Lock()


def _shape_id(shape: tuple) -> int:
    """The interned id of a record shape ``(issue_uops, eliminated, uops, latency)``.

    Ids are assigned under a lock, so racing first compiles never hand one
    id to two different shapes.  They are process-local: see
    :meth:`_Record.__reduce__`.
    """
    shape_id = _SHAPE_IDS.get(shape)
    if shape_id is None:
        with _SHAPE_LOCK:
            shape_id = _SHAPE_IDS.setdefault(shape, len(_SHAPE_IDS))
    return shape_id


class _Record(NamedTuple):
    """What the steady-state loop reads of one instruction, compiled once.

    Hazard tracking ignores flags and stack-pointer updates (they are
    renamed away), exactly as the block's dependency analysis does, so the
    tracked reads/writes are the memoised
    :func:`~repro.bb.dependencies._tracked_accesses`, in operand order.
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
    #: Interned id of ``(issue_uops, eliminated, uops, latency)``.
    shape: int

    def __reduce__(self):
        # Records travel with pickled instructions, and shape ids are only
        # meaningful in the process that interned them: re-intern on load.
        return (_record, tuple(self[:6]))


def _record(issue_uops, eliminated, reads, writes, uops, latency) -> _Record:
    shape = _shape_id((issue_uops, eliminated, uops, latency))
    return _Record(issue_uops, eliminated, reads, writes, uops, latency, shape)


class _Slots(dict):
    """Location -> dense slot index, numbered by first lookup."""

    def __missing__(self, location: Location) -> int:
        slot = self[location] = len(self)
        return slot


class _Plan(NamedTuple):
    """A block's records with their locations relabelled to dense slots."""

    #: Per instruction, flattened: shape id, read slots, write slots.
    #: Blocks with equal keys simulate identically.
    key: tuple
    records: Sequence[_Record]
    slots: int


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
        # (mnemonic, loads_memory, stores_memory) -> (total uops, uops, latency)
        self._forms: Dict[tuple, tuple] = {}
        # Structure key -> steady-state throughput, read by throughput_rows
        # only.  A pure function of the key, so racing threads at worst
        # simulate one key twice.
        self._memo: Dict[tuple, float] = {}

    def __getstate__(self) -> dict:
        # The caches are rebuilt on demand; a pickled simulator (shipped to
        # process workers inside its model) carries neither.
        state = dict(self.__dict__)
        state["_forms"] = {}
        state["_memo"] = {}
        return state

    # ----------------------------------------------------------------- API

    def simulate(self, block: BasicBlock) -> SimulationResult:
        """Simulate ``block`` looped in steady state and return its metrics.

        Runs the same loop as :meth:`throughput`, additionally accumulating
        per-port busy cycles, and derives the front-end, port and dependency
        bounds used for bottleneck classification.
        """
        records = self._records(block.instructions)
        plan = self._plan(records)
        ports = self.microarch.ports
        port_busy = [0.0] * len(ports)
        throughput, total_cycles = self._steady_state(plan, port_busy)
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

        Always simulates: this is the per-block oracle the row kernel's
        memo is checked against.  Mutable simulation state lives in locals
        of the loop and the memoised records are immutable, so concurrent
        calls (e.g. :class:`~repro.models.uica.UiCACostModel`'s thread
        fan-out) are safe.
        """
        return self._steady_state(self._plan(self._records(block.instructions)))[0]

    def throughput_rows(
        self, rows: Sequence[Sequence[Instruction]]
    ) -> List[float]:
        """Throughput of each instruction row (a block's instructions).

        The row kernel behind the uiCA model's batch path: encoded
        perturbation rows simulate straight from their instruction
        references, no block is constructed.  Rows with equal structure
        keys are simulated once per simulator (bounded memo, cleared when
        full); the result is the float :meth:`throughput` returns.
        """
        memo = self._memo
        values = []
        for row in rows:
            plan = self._plan(self._records(row))
            value = memo.get(plan.key)
            if value is None:
                value = self._steady_state(plan)[0]
                if len(memo) >= _STEADY_MEMO_LIMIT:
                    memo.clear()
                memo[plan.key] = value
            values.append(value)
        return values

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
        form = (instruction.mnemonic, instruction.loads_memory, instruction.stores_memory)
        compiled = self._forms.get(form)
        if compiled is None:
            compiled = self._forms[form] = self._compile_form(instruction)
        total_uops, uops, latency = compiled
        eliminated = False
        breaks_dependency = False
        if config.zero_idiom_elimination and _is_zero_idiom(instruction):
            eliminated = True
            breaks_dependency = True
        elif config.move_elimination and _is_reg_move(instruction):
            eliminated = True
        reads, writes = _tracked_accesses(instruction)
        record = _record(
            max(0 if eliminated else total_uops, 1),
            eliminated,
            () if breaks_dependency else _operand_order(instruction, reads),
            _operand_order(instruction, writes),
            uops,
            latency,
        )
        instruction.__dict__[self._record_attr] = record
        return record

    def _compile_form(self, instruction: Instruction) -> tuple:
        """``(total uops, uops, latency)`` of the instruction's form.

        Costs depend only on the mnemonic and the memory-access flags, so
        register renames of one instruction share this part of the record.
        """
        cost = instruction_cost_for(instruction, self.microarch)
        uops: List[Tuple[Tuple[int, ...], float]] = []
        for uop_index, uop in enumerate(cost.uops):
            # Name order is the port tie-break (see _steady_state).
            ports = tuple(self._port_index[port] for port in sorted(uop.ports))
            occupancy = 1.0
            if uop_index == 0 and cost.throughput > 1.0:
                occupancy = float(cost.throughput)
            uops.extend([(ports, occupancy)] * uop.count)
        return cost.total_uops, tuple(uops), max(cost.latency, 1.0)

    @staticmethod
    def _plan(records: Sequence[_Record]) -> _Plan:
        """Relabel the records' locations to dense slots, by first occurrence."""
        slots = _Slots()
        label = slots.__getitem__
        key: list = []
        for record in records:
            key += (
                record.shape,
                tuple(map(label, record.reads)),
                tuple(map(label, record.writes)),
            )
        return _Plan(tuple(key), records, len(slots))

    def _steady_state(
        self, plan: _Plan, port_busy: Optional[List[float]] = None
    ) -> Tuple[float, float]:
        """Run a planned block in a steady-state loop.

        Returns ``(cycles per measured iteration, total cycles)``.  When
        ``port_busy`` is given (one slot per port, in microarch port order)
        each dispatched uop adds its occupancy to its port's slot.

        The front end is closed-form: with ``U`` issue uops per iteration
        and width ``W``, an instruction whose last uop is the block's
        ``n``-th (from 0) issues in iteration ``i`` at cycle
        ``(i·U + n) // W``, and iteration ``i`` leaves the front end at
        ``(i + 1)·U // W`` — exact integers, as the slot-by-slot front end
        they replace produced.  A never-written slot reads ``0.0``.

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
        key = plan.key
        steps = []
        block_uops = 0
        for record, reads, writes in zip(plan.records, key[1::3], key[2::3]):
            block_uops += record.issue_uops
            steps.append(
                (block_uops - 1, record.eliminated, reads, writes, record.uops, record.latency)
            )
        ready_at = [0.0] * plan.slots
        port_free = [0.0] * len(self._port_index)
        issued = 0
        last_finish = 0.0
        end = warmup_end = 0.0
        for iteration in range(warmup + config.measured_iterations):
            for last_uop, eliminated, reads, writes, uops, latency in steps:
                # -- front end and dependencies -------------------------------
                ready = (issued + last_uop) // width
                for slot in reads:
                    available = ready_at[slot]
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

                for slot in writes:
                    ready_at[slot] = finish
                if finish > last_finish:
                    last_finish = finish
            issued += block_uops
            frontend_cycle = issued // width
            end = frontend_cycle if frontend_cycle > last_finish else last_finish
            if iteration == warmup - 1:
                warmup_end = end
        # Without warm-up ``warmup_end`` stays 0.0 and the subtraction is
        # exact; integer cycle counts convert exactly.
        cycles = end - warmup_end
        throughput = cycles / config.measured_iterations
        return (throughput if throughput > 0.05 else 0.05), float(end)


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
