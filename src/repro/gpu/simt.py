"""The SIMT block-execution engine.

:class:`BlockEngine` is the substrate the device kernels'
*cost programs* (:mod:`repro.kernels.device`) run on.  A cost program is
ordinary Python that walks one thread block through its algorithm and

* reads and writes :class:`~repro.gpu.shared_memory.SharedMemory`
  objects allocated from the engine, at the word indices the block
  touches (so the race sanitizer sees the real protocol), and
* reports every hardware event (FLOP groups, shared accesses, syncs,
  global transfers) through the ``charge_*`` methods.

Because the paper's kernels are branch-free (no pivoting; fully unrolled
register code), *every block executes the identical instruction stream*.
The cycle cost is therefore accounted once per block, on a batch-1
engine, and depends on the problem shape alone; the numerics of the
whole batch run separately in :mod:`repro.kernels.batched`.

Cost model (this repo's "measured"):

* a group of ``k`` dependent FP ops per thread costs ``k * gamma``
  (plus the spill penalty if the kernel's registers exceed the
  architectural limit),
* a shared access costs the load-to-use latency plus bank-conflict
  replays,
* ``__syncthreads`` costs the Figure-2 curve at the block's thread count,
* global transfers cost the block's share of achieved DRAM bandwidth
  given how many blocks are resident (Table V's overlap effect),
* every charge call adds a small bookkeeping overhead (address
  arithmetic, loop remnants) -- the "measured overhead" wedge of
  Figure 8.  The analytic model of :mod:`repro.model` omits it; the gap
  between the two is part of the reproduction.

Host cost: the engine resolves its launch constants once at
construction -- FMA, divide and square-root cycles at its precision,
shared latency, the sync cost at its thread count, the spill fraction.
A cost program's column loop charges step by step only when its events
are observed (a tracer, the sanitizer, a recording engine); otherwise
it runs once inside :meth:`BlockEngine.fold`, its charges taking one
array of values per step, and :func:`~repro.gpu.clock.fold_steps` lays
the accumulators' increments out in one array, a column per sum, and
adds down it in charge order.  So the fixed cost of a launch,
not the cost of a charge, sets the host time of ``PerBlockApproach``
sweeps.  Traced device launches step each shape's program once, under
a recording tracer, and every traced launch of that shape replays the
recorded trace tape (:class:`~repro.observe.tracer.TraceTape`) onto its
tracer (:func:`repro.kernels.device.base.launch`); the sanitizer and an
engine-factory override still step on the live engine.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Literal, Optional

import numpy as np

from ..analyze.sanitizer import SharedSanitizer, sanitize_enabled
from ..errors import LaunchConfigurationError
from ..observe.counters import CounterRegistry
from ..observe.tracer import current_tracer
from .clock import CycleBreakdown, CycleClock, Tape, fold_steps
from .device import DeviceSpec
from .instructions import InstructionCosts, costs_for
from .memory_system import MemorySystem
from .occupancy import Occupancy, occupancy
from .registers import RegisterAllocation
from .shared_memory import SharedMemory

__all__ = ["BlockEngine", "LaunchResult"]

#: Cycles of bookkeeping (address arithmetic, loop tail) charged per
#: charge-event when overhead accounting is on.
OVERHEAD_PER_EVENT = 6
#: Cycles for reading the ``clock()`` register around a measured phase.
MEASUREMENT_OVERHEAD = 72
#: Cycles per spilled register-operand access.  Spilled slots live in
#: local memory behind the L1; in a dependent chain each access exposes a
#: large fraction of the L1 latency that register operands would hide.
SPILL_ACCESS_CYCLES = 30

#: The engine's event counts and their initial values (ints stay ints).
_COUNTS = {
    "_n_flop_groups": 0,
    "_flop_thread_ops": 0.0,
    "_spill_accesses": 0.0,
    "_useful_flops": 0.0,
    "_overhead_events": 0,
    "_div_count": 0,
    "_div_cycles": 0.0,
    "_sqrt_count": 0,
    "_sqrt_cycles": 0.0,
    "_n_shared_groups": 0,
    "_shared_transactions": 0.0,
    "_shared_replays": 0.0,
    "_shared_writes": 0.0,
    "_n_sync": 0,
    "_global_transfers": 0,
    "_global_bytes": 0.0,
    "_measurement_reads": 0,
}


def _negative(value) -> bool:
    """Whether a charge operand is negative: a number, or in a
    :meth:`BlockEngine.fold` an array with one number per step."""
    if isinstance(value, np.ndarray):
        return bool(value.min() < 0)
    return value < 0


@dataclasses.dataclass(frozen=True)
class LaunchResult:
    """Timing summary of one kernel execution."""

    device: DeviceSpec
    occupancy: Occupancy
    cycles: float
    breakdown: CycleBreakdown
    phase_totals: dict
    flops_per_block: float
    #: Per-launch hardware-event counts (flop groups, shared
    #: transactions, syncs, ...) -- the attribution layer's input.
    counters: Optional[CounterRegistry] = None
    #: Threads per block of the launch (alpha_sync lookup key).
    threads: int = 0
    #: Shared-memory sanitizer report
    #: (:class:`repro.analyze.sanitizer.SanitizeReport`) when the engine
    #: ran with ``sanitize=True``; ``None`` otherwise.
    sanitizer: Optional[Any] = None

    @property
    def seconds_per_block(self) -> float:
        return self.device.cycles_to_seconds(self.cycles)

    def throughput_gflops(self, num_problems: Optional[int] = None) -> float:
        """Whole-chip GFLOP/s processing ``num_problems`` problems.

        With ``num_problems=None`` the steady-state rate is returned
        (enough problems to fill every resident block slot).  Otherwise
        the batch is processed in waves of ``blocks_per_chip`` problems
        and partially-filled final waves lower the rate, exactly like a
        real launch.
        """
        if num_problems is None:
            resident = self.occupancy.blocks_per_chip
            return self.flops_per_block * resident / self.seconds_per_block / 1e9
        total_s = self.batch_seconds(num_problems)
        return self.flops_per_block * num_problems / total_s / 1e9

    def batch_seconds(self, num_problems: int) -> float:
        """Seconds to process ``num_problems`` problems in waves of
        ``blocks_per_chip`` resident blocks (a partial wave costs a full one)."""
        if num_problems < 1:
            raise ValueError("need at least one problem")
        waves = -(-num_problems // self.occupancy.blocks_per_chip)
        return waves * self.seconds_per_block


class BlockEngine:
    """Cost-accounting execution context for one batched thread block."""

    def __init__(
        self,
        device: DeviceSpec,
        threads_per_block: int,
        registers_per_thread: int,
        batch: int = 1,
        dtype=np.float32,
        fast_math: bool = True,
        account_overhead: bool = True,
        allow_spill: bool = True,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.device = device
        self.threads = int(threads_per_block)
        if self.threads < 1:
            raise LaunchConfigurationError("a block needs at least one thread")
        self.batch = int(batch)
        self.dtype = np.dtype(dtype)
        self.fast_math = bool(fast_math)
        self.account_overhead = bool(account_overhead)
        self.costs: InstructionCosts = costs_for(device)
        # GF100 executes double precision at half the single-precision
        # rate, and the SFU fast paths are SP-only -- DP divides/sqrts
        # take the precise path's latency regardless of fast_math.
        double = self.dtype in (np.dtype(np.float64), np.dtype(np.complex128))
        self.precision_factor = 2 if double else 1
        self.memory = MemorySystem(device)
        self.clock = CycleClock()
        self.registers = RegisterAllocation(device, registers_per_thread)
        if not allow_spill:
            self.registers.require_resident()
        # Launch constants, resolved once so a charge is a few scalar
        # operations.  Folding the precision factor (1 or 2, a power of
        # two) into a cost leaves every product's bits unchanged.
        fast = self.fast_math and self.precision_factor == 1
        self._op_cycles = self.precision_factor * self.costs.fma
        self._div_cost = self.costs.div(fast) * self.precision_factor
        self._sqrt_cost = self.costs.sqrt(fast) * self.precision_factor
        self._shared_latency = device.shared_latency
        self._sync_cycles = device.sync_latency(self.threads)
        self._spill_fraction = (
            self.registers.spill_fraction if self.registers.spills else 0.0
        )
        # Opt-in shared-memory race sanitizer (repro.analyze): the
        # default consults REPRO_SANITIZE / the sanitizing() override at
        # construction time, so the hot path stays a None check.
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: Optional[SharedSanitizer] = (
            SharedSanitizer(phase_of=lambda: self.current_phase)
            if sanitize
            else None
        )
        self._shared_words = 0
        self._shared_arrays: list[SharedMemory] = []
        # The tracer is bound at construction: engines are created one
        # per launch, inside any `tracing()` scope that should observe
        # them, and a per-charge thread-local lookup is too hot.
        self._tracer = current_tracer()
        # Hardware-event counts for this launch, always collected.  The
        # hot path pays only scalar `+=` on these slots; the registry the
        # attribution layer consumes (`self.counters`) is materialized
        # once from them.  The heavyweight event *tracing* stays opt-in
        # via repro.observe.tracing().
        self.__dict__.update(_COUNTS)
        #: The per-step panels of the panel phases while a :meth:`fold` runs.
        self._panels: Optional[list] = None

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def allocate_shared(
        self, words: int, dtype=None, name: Optional[str] = None
    ) -> SharedMemory:
        """Allocate a batched shared-memory array of ``words`` slots.

        ``name`` labels the array in sanitizer hazard reports; unnamed
        arrays are numbered in allocation order.
        """
        mem = SharedMemory(
            self.device, words, batch=self.batch, dtype=dtype or self.dtype
        )
        mem.label = name or f"shared{len(self._shared_arrays)}"
        if self.sanitizer is not None:
            mem.attach_sanitizer(self.sanitizer)
        self._shared_words += words * (2 if np.dtype(mem.dtype).kind == "c" else 1)
        self._shared_arrays.append(mem)
        return mem

    @property
    def shared_bytes(self) -> int:
        return self._shared_words * 4

    @property
    def occupancy(self) -> Occupancy:
        return occupancy(
            self.device,
            self.threads,
            self.registers.granted(),
            self.shared_bytes,
        )

    # ------------------------------------------------------------------
    # Cost charges
    #
    # Every charge method checks its operands, adds its cycles per
    # category with `CycleClock.add`, and counts its hardware events as
    # plain `+=` on the engine.  Only when a tracer is active does it also
    # mirror the counts into the tracer's stage-scoped registry and emit
    # a timeline event.  Inside a `fold` the operands may be arrays of
    # one value per step, and every `+=` lands on a tape.
    # ------------------------------------------------------------------
    def charge_flops(
        self,
        ops_per_thread: float,
        *,
        useful_flops: Optional[float] = None,
        count_spill: bool = True,
    ) -> None:
        """Charge a group of dependent FP instructions (FMA = one op).

        ``useful_flops`` is the algorithmic FLOP credit for the whole
        block (defaults to ``ops_per_thread * threads``; pass the real
        figure when threads are partially idle or an FMA does 2 FLOPs).
        """
        if _negative(ops_per_thread):
            raise ValueError("negative op count")
        tracer, clock = self._tracer, self.clock
        start = clock.now if tracer is not None else 0.0
        clock.add(ops_per_thread * self._op_cycles, "compute")
        self._n_flop_groups += 1
        self._flop_thread_ops += ops_per_thread
        spill_accesses = 0.0
        if count_spill and self._spill_fraction:
            spill_accesses = 2.0 * ops_per_thread * self._spill_fraction
            clock.add(spill_accesses * SPILL_ACCESS_CYCLES, "overhead")
            self._spill_accesses += spill_accesses
        useful = ops_per_thread * self.threads if useful_flops is None else useful_flops
        self._useful_flops += useful
        if self.account_overhead:
            clock.add(OVERHEAD_PER_EVENT, "overhead")
            self._overhead_events += 1
        if tracer is not None:
            c = tracer.counters
            c.add("flops.groups", 1)
            c.add("flops.per_thread_ops", ops_per_thread)
            c.add("flops.issue_ops", ops_per_thread * self.precision_factor)
            c.add("flops.useful", useful)
            if spill_accesses:
                c.add("spill.accesses", spill_accesses)
            if self.account_overhead:
                c.add("overhead.events", 1)
            tracer.complete(
                "charge_flops", "engine", ts=start, dur=clock.now - start,
                ops_per_thread=ops_per_thread,
            )

    def charge_div(self, count: int = 1, useful_flops: Optional[float] = None) -> None:
        cycles = self._charge_sfu("div", count, self._div_cost, useful_flops)
        self._div_count += count
        self._div_cycles += cycles

    def charge_sqrt(self, count: int = 1, useful_flops: Optional[float] = None) -> None:
        cycles = self._charge_sfu("sqrt", count, self._sqrt_cost, useful_flops)
        self._sqrt_count += count
        self._sqrt_cycles += cycles

    def _charge_sfu(
        self, op: str, count: int, cost: int, useful_flops: Optional[float]
    ) -> float:
        """Charge ``count`` SFU ops of ``cost`` cycles; return their cycles."""
        cycles = count * cost
        if _negative(cycles):
            raise ValueError(f"negative {op} count: {count}")
        tracer, clock = self._tracer, self.clock
        start = clock.now if tracer is not None else 0.0
        clock.add(cycles, "compute")
        self._useful_flops += useful_flops if useful_flops is not None else count
        if self.account_overhead:
            clock.add(OVERHEAD_PER_EVENT, "overhead")
            self._overhead_events += 1
        if tracer is not None:
            c = tracer.counters
            c.add(f"{op}.count", count)
            c.add(f"{op}.cycles", cycles)
            if self.account_overhead:
                c.add("overhead.events", 1)
            tracer.complete(
                f"charge_{op}", "engine", ts=start, dur=clock.now - start, count=count
            )
        return cycles

    def charge_shared(
        self, words_per_thread: float, degree: int = 1, writes: bool = False
    ) -> None:
        """Charge ``words_per_thread`` dependent shared accesses."""
        if _negative(words_per_thread):
            raise ValueError("negative word count")
        latency = self._shared_latency + (degree - 1)
        cycles = words_per_thread * latency
        if latency < 0 and _negative(cycles):
            raise ValueError(f"bank-conflict degree {degree} gives negative cycles")
        if self.sanitizer is not None:
            self.sanitizer.note_traffic()
        tracer, clock = self._tracer, self.clock
        start = clock.now if tracer is not None else 0.0
        clock.add(cycles, "shared")
        self._n_shared_groups += 1
        self._shared_transactions += words_per_thread
        if degree > 1:
            self._shared_replays += words_per_thread * (degree - 1)
        if writes:
            self._shared_writes += words_per_thread
        if self.account_overhead:
            clock.add(OVERHEAD_PER_EVENT, "overhead")
            self._overhead_events += 1
        if tracer is not None:
            c = tracer.counters
            c.add("shared.transactions", words_per_thread)
            if degree > 1:
                c.add("shared.bank_replays", words_per_thread * (degree - 1))
            if writes:
                c.add("shared.writes", words_per_thread)
            if self.account_overhead:
                c.add("overhead.events", 1)
            tracer.complete(
                "charge_shared", "engine", ts=start, dur=clock.now - start,
                words=words_per_thread, degree=degree,
            )

    def sync(self) -> None:
        """Charge one ``__syncthreads`` at this block's thread count.

        The barrier is charged unconditionally -- even back-to-back
        syncs pay full ``alpha_sync``, as on hardware; the sanitizer's
        wasted-sync diagnostic (``repro_sync_redundant``) is how such
        calls are audited, not elided.
        """
        if self.sanitizer is not None:
            self.sanitizer.on_sync()
        tracer, clock = self._tracer, self.clock
        start = clock.now if tracer is not None else 0.0
        clock.add(self._sync_cycles, "sync")
        self._n_sync += 1
        if tracer is not None:
            tracer.counters.add("sync.count", 1)
            tracer.complete(
                "sync", "engine", ts=start, dur=clock.now - start,
                threads=self.threads,
            )

    def charge_global(
        self,
        bytes_per_block: float,
        kind: Literal["read", "copy", "memcpy"] = "copy",
    ) -> None:
        """Charge a DRAM transfer, contended by all resident blocks.

        A kernel loads and stores once, so this charge is rare enough to
        take the clock's checked :meth:`CycleClock.charge`.
        """
        tracer = self._tracer
        start = self.clock.now if tracer is not None else 0.0
        resident = self.occupancy.blocks_per_chip
        cycles = self.memory.block_transfer_cycles(bytes_per_block, resident, kind=kind)
        self.clock.charge(cycles, "global")
        self._global_transfers += 1
        self._global_bytes += bytes_per_block
        if tracer is not None:
            c = tracer.counters
            c.add("global.transfers", 1)
            c.add("global.bytes", bytes_per_block)
            tracer.complete(
                "charge_global", "engine", ts=start, dur=self.clock.now - start,
                bytes=bytes_per_block, kind=kind, resident_blocks=resident,
            )

    def charge_measurement(self) -> None:
        """Charge the ``clock()``-readout overhead around a timed phase."""
        if self.account_overhead:
            self.clock.charge(MEASUREMENT_OVERHEAD, "overhead")
            self._measurement_reads += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.counters.add("measurement.reads", 1)

    @property
    def current_phase(self) -> str:
        """Innermost active :meth:`phase` label ("" outside any phase)."""
        return self.clock.phase_name or ""

    @contextmanager
    def phase(self, name: str, panel=None) -> Iterator[None]:
        """Label subsequent charges for per-phase breakdowns (Figure 8).

        With a ``panel`` the label is ``panel{panel}:{name}``; inside a
        :meth:`fold`, ``panel`` holds each step's panel.  When a tracer
        is active the phase additionally becomes a trace span and a
        counter-registry stage, so per-phase event totals ride along with
        the per-phase cycle totals.  The label is also what the
        shared-memory sanitizer stamps on hazards detected inside.
        """
        if isinstance(panel, np.ndarray):  # one panel per step, in a fold
            self._panels.append(panel)
            name = (name,)
        elif panel is not None:
            name = f"panel{panel}:{name}"
        tracer, clock = self._tracer, self.clock
        start = clock.now if tracer is not None else 0.0
        with clock.phase(name):
            if tracer is None:
                yield
            else:
                with tracer.counters.stage(name):
                    yield
        if tracer is not None:
            tracer.complete(f"phase:{name}", "phase", ts=start, dur=clock.now - start)

    @contextmanager
    def fold(self, steps: int) -> Iterator[None]:
        """Charge a loop of ``steps`` steps whose body runs once.

        The body passes each operand that changes from step to step as an
        array of one value per step.  Inside, every accumulator -- the
        clock's category and phase totals and the event counts -- is a
        :class:`~repro.gpu.clock.Tape`; on exit :func:`fold_steps` adds
        each tape to its accumulator step by step, in charge order: the
        same bits as running the body once per step.  The tapes that sum
        whole go to one :func:`fold_steps` call and the panel-split
        tapes to another, so a fold holds at most one full-size array of
        increments at a time.  A phase opened with
        per-step panels (one array for the whole body) sums panel by
        panel into ``panel{p}:{name}`` phases, created in the order the
        step-by-step run creates them.
        """
        clock, attrs = self.clock, vars(self)
        totals, phases = clock.totals, clock.phases
        counts = {name: attrs[name] for name in _COUNTS}
        clock.totals = defaultdict(Tape)
        clock.phases = defaultdict(lambda: defaultdict(Tape))
        attrs.update({name: Tape() for name in _COUNTS})
        self._panels = panels = []
        try:
            yield
            taped = clock.totals, clock.phases, {n: attrs[n] for n in _COUNTS}
        finally:
            clock.totals, clock.phases, self._panels = totals, phases, None
            attrs.update(counts)
        firsts, labels = [0], [None]
        if panels:
            if any(other is not panels[0] for other in panels):
                raise ValueError("the panel phases of a fold share one panel array")
            panel = panels[0].tolist()
            firsts += [j for j in range(1, steps) if panel[j] != panel[j - 1]]
            labels = [panel[j] for j in firsts]
        # Create the phases where stepping would: panel by panel, in body
        # order.
        for index, label in enumerate(labels):
            for key in taped[1]:
                if isinstance(key, tuple):
                    phases[f"panel{label}:{key[0]}"]
                elif index == 0:
                    phases[key]
        # Each tape with the accumulators its sums go to: one, or one per
        # panel for a panel phase over more than one panel.
        whole = [(tape, [totals], cat) for cat, tape in taped[0].items()]
        whole += [(tape, [attrs], name) for name, tape in taped[2].items() if tape.parts]
        split = []
        for key, cats in taped[1].items():
            if isinstance(key, str):
                dests = [phases[key]]
            else:
                dests = [phases[f"panel{label}:{key[0]}"] for label in labels]
            group = whole if len(dests) == 1 else split
            group += [(tape, dests, cat) for cat, tape in cats.items()]
        for group, segments in ((whole, [0]), (split, firsts)):
            if group:
                targets = [(dest, key) for _, dests, key in group for dest in dests]
                starts = [dest.get(key, 0.0) for dest, key in targets]
                sums = fold_steps(steps, [tape for tape, _, _ in group], starts, segments)
                for (dest, key), start, value in zip(targets, starts, sums):
                    dest[key] = type(start)(value)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def counters(self) -> CounterRegistry:
        """This launch's hardware-event counts as a registry.

        Materialized from the engine's scalar accumulators on each read;
        grab it once (or via :attr:`LaunchResult.counters`) rather than
        per event.
        """
        c = CounterRegistry()
        groups = self._n_flop_groups
        if groups:
            c.add_aggregate("flops.groups", groups, groups)
            c.add_aggregate("flops.per_thread_ops", self._flop_thread_ops, groups)
            c.add_aggregate(
                "flops.issue_ops",
                self._flop_thread_ops * self.precision_factor,
                groups,
            )
        if self._useful_flops:
            c.add_aggregate("flops.useful", self._useful_flops, groups or 1)
        if self._spill_accesses:
            c.add_aggregate("spill.accesses", self._spill_accesses)
        if self._overhead_events:
            c.add_aggregate(
                "overhead.events", self._overhead_events, self._overhead_events
            )
        if self._div_count:
            c.add_aggregate("div.count", self._div_count, self._div_count)
            c.add_aggregate("div.cycles", self._div_cycles, self._div_count)
        if self._sqrt_count:
            c.add_aggregate("sqrt.count", self._sqrt_count, self._sqrt_count)
            c.add_aggregate("sqrt.cycles", self._sqrt_cycles, self._sqrt_count)
        if self._n_shared_groups:
            c.add_aggregate(
                "shared.transactions",
                self._shared_transactions,
                self._n_shared_groups,
            )
        if self._shared_replays:
            c.add_aggregate("shared.bank_replays", self._shared_replays)
        if self._shared_writes:
            c.add_aggregate("shared.writes", self._shared_writes)
        if self._n_sync:
            c.add_aggregate("sync.count", self._n_sync, self._n_sync)
        if self._global_transfers:
            c.add_aggregate(
                "global.transfers", self._global_transfers, self._global_transfers
            )
            c.add_aggregate(
                "global.bytes", self._global_bytes, self._global_transfers
            )
        if self._measurement_reads:
            c.add_aggregate(
                "measurement.reads", self._measurement_reads, self._measurement_reads
            )
        return c

    def result(self, flops_per_block: Optional[float] = None) -> LaunchResult:
        launch = LaunchResult(
            device=self.device,
            occupancy=self.occupancy,
            cycles=self.clock.now,
            breakdown=self.clock.breakdown(),
            phase_totals=self.clock.phase_totals(),
            flops_per_block=(
                flops_per_block if flops_per_block is not None else self._useful_flops
            ),
            counters=self.counters,
            threads=self.threads,
            sanitizer=(
                self.sanitizer.finalize() if self.sanitizer is not None else None
            ),
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "launch.result", "engine",
                cycles=launch.cycles, threads=self.threads,
                flops_per_block=launch.flops_per_block,
                **{f"cycles.{k}": v for k, v in launch.breakdown.items()},
            )
        return launch
