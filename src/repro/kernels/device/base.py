"""Shared infrastructure for the one-problem-per-block device kernels.

A per-block device kernel has two halves:

* **numerics** -- the batch goes through its :mod:`repro.kernels.batched`
  routine, the one vectorized implementation of each algorithm;
* a **cost program** -- what one thread block of the Section V mapping
  does, replayed on a batch-1 :class:`~repro.gpu.simt.BlockEngine`: the
  Listing-4 load into 2D-cyclic register tiles, the shared-memory
  publishes and reductions of Listings 5-7, the syncs, the store.  It
  issues every charge and every functional ``sh_*`` read/write at the
  indices the block touches (the values are irrelevant), so the
  sanitizer still audits the full write/sync/read protocol.

The paper's kernels are branch-free, so a block's cost depends on the
problem shape alone -- :mod:`repro.analyze.costcheck` certifies exactly
that for every registry kernel.  :func:`run_program` runs a cost program
on a fresh block; :func:`launch` runs it once per (program, shape, dtype,
flags, block config, device) and hands every later launch of that shape
a copy of the memoized :class:`~repro.gpu.simt.LaunchResult`.

Whether a block is *observed* (:func:`observed`) -- under a tracer, with
the sanitizer on, or with a :func:`block_engine_factory` override --
decides how its program runs.  An observed block steps through each
column loop (:meth:`BlockKernel.steps`) on the engine, so traces,
sanitizer reports and certifier tapes see every event.  Any other block
runs each loop body once on arrays of per-step values and folds the
charges in charge order (:meth:`~repro.gpu.simt.BlockEngine.fold`): the
same bits at a few NumPy calls per loop.

A traced launch still takes the memo.  Its entry also holds the
launch's **trace tape** (:class:`~repro.observe.tracer.TraceTape`),
recorded the first time the shape runs under a tracer by stepping the
program once under a recording tracer; every traced launch, that first
one included, replays the tape onto the live tracer, which ends in the
state stepping would have left it in.  Launches with the sanitizer on or
a :func:`block_engine_factory` override need the live engine, so they
bypass the memo and step.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from ...analyze.sanitizer import sanitize_enabled
from ...errors import LaunchConfigurationError
from ...gpu.clock import CycleBreakdown
from ...gpu.device import QUADRO_6000, DeviceSpec
from ...gpu.simt import BlockEngine, LaunchResult
from ...model.block_config import BlockConfig, block_config
from ...observe.counters import CounterRegistry
from ...observe.metrics import counter_inc
from ...observe.tracer import TraceTape, current_tracer, record_tape

__all__ = [
    "BlockKernel",
    "DeviceKernelResult",
    "block_engine_factory",
    "launch",
    "observed",
    "run_program",
]

#: Override for the engine class a :class:`BlockKernel` constructs.
#: ``repro.analyze.costcheck`` swaps in a recording engine here to
#: interpret kernels abstractly without changing their call sites.
_ENGINE_FACTORY: ContextVar[Optional[Callable[..., BlockEngine]]] = ContextVar(
    "repro_block_engine_factory", default=None
)


@contextmanager
def block_engine_factory(factory: Callable[..., BlockEngine]) -> Iterator[None]:
    """Scope within which :class:`BlockKernel` builds engines via ``factory``.

    ``factory`` receives exactly the :class:`~repro.gpu.simt.BlockEngine`
    constructor arguments and must return an engine (typically a
    subclass).  The override is a contextvar, so concurrent kernels in
    other threads/tasks are unaffected.
    """
    token = _ENGINE_FACTORY.set(factory)
    try:
        yield
    finally:
        _ENGINE_FACTORY.reset(token)


def observed() -> bool:
    """Whether a block engine built now has its events observed: by a
    tracer, the sanitizer or a :func:`block_engine_factory` override."""
    return (
        current_tracer() is not None
        or sanitize_enabled()
        or _ENGINE_FACTORY.get() is not None
    )


def as_problems(a) -> np.ndarray:
    """``a`` as a ``(batch, m, n)`` array (a single matrix gains a batch axis)."""
    arr = np.asarray(a)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"expected (batch, m, n) input, got shape {arr.shape}")
    return arr


def as_rhs(b, a: np.ndarray, what: str) -> np.ndarray:
    """Right-hand sides for the ``(batch, m, n)`` problems ``a`` as a
    ``(batch, m, nrhs)`` array in ``a``'s dtype."""
    b_arr = np.asarray(b, dtype=a.dtype)
    if b_arr.ndim == 1:
        b_arr = b_arr[None]
    if b_arr.ndim == 2:
        b_arr = b_arr[..., None]
    if b_arr.shape[:2] != a.shape[:2]:
        raise ValueError(
            f"rhs shape {np.asarray(b).shape} does not match {what} {a.shape}"
        )
    return b_arr


@dataclasses.dataclass(frozen=True)
class DeviceKernelResult:
    """Output of a device-kernel run: numerics plus timing."""

    #: Numerical output, shape (batch, m, n) for factorizations.
    output: np.ndarray
    #: Engine timing for one block (identical across the batch).
    launch: LaunchResult
    #: Problems in the batch.
    batch: int
    #: Algorithmic FLOPs per problem (paper conventions).
    flops_per_problem: float
    #: Optional second output (e.g. solution vectors, taus).
    extra: Optional[np.ndarray] = None

    @property
    def cycles(self) -> float:
        return self.launch.cycles

    @property
    def breakdown(self) -> CycleBreakdown:
        return self.launch.breakdown

    @property
    def gflops(self) -> float:
        """Whole-chip throughput over this batch (Section V-D recipe)."""
        return self.launch.throughput_gflops(self.batch)

    def phase_cycles(self, prefix: str = "") -> dict[str, float]:
        """Phase totals, optionally filtered by label prefix."""
        return {
            k: v
            for k, v in self.launch.phase_totals.items()
            if k.startswith(prefix)
        }

    def panel_breakdown(self) -> list[dict[str, float]]:
        """Per-panel cycles per operation (Figure 8 left, 'measured').

        Phase labels are ``panel{p}:{op name}``.
        """
        panels: dict[int, dict[str, float]] = {}
        for label, cycles in self.launch.phase_totals.items():
            if not label.startswith("panel"):
                continue
            head, _, op = label.partition(":")
            index = int(head[len("panel") :])
            panels.setdefault(index, {})[op] = (
                panels.get(index, {}).get(op, 0.0) + cycles
            )
        return [panels[k] for k in sorted(panels)]


class BlockKernel:
    """A cost program's context: one block's engine and shared arrays.

    Construction allocates the shared vectors of Listings 5-7 and charges
    the Listing-4 load of an ``m x n`` matrix into the 2D-cyclic register
    tiles (``hreg x wreg`` elements per thread of the ``r x r`` grid).
    """

    def __init__(
        self,
        m: int,
        n: int,
        dtype,
        device: DeviceSpec = QUADRO_6000,
        config: Optional[BlockConfig] = None,
        fast_math: bool = True,
        account_overhead: bool = True,
    ) -> None:
        self.m, self.n = m, n
        self.dtype = np.dtype(dtype)
        self.complex = self.dtype.kind == "c"
        self.cfg = config or block_config(m, n, complex_dtype=self.complex)
        if (self.cfg.m, self.cfg.n) != (m, n):
            raise LaunchConfigurationError(
                f"a {self.cfg.m}x{self.cfg.n} config cannot launch a {m}x{n} block"
            )
        self.r, self.hreg, self.wreg = self.cfg.rdim, self.cfg.hreg, self.cfg.wreg
        # A complex MAC is 4 FMAs on 2 independent chains: with the
        # dual-issue pipeline its dependent cost is ~2 gamma, while the
        # algorithmic credit is 8 real FLOPs (4x the real MAC's 2).
        self.cost = 2 if self.complex else 1
        self.credit = 8.0 if self.complex else 2.0
        #: Word indices of a full column / row vector in shared memory.
        self.rows = np.arange(m)
        self.cols = np.arange(n)

        self.observed = observed()
        engine_cls = _ENGINE_FACTORY.get() or BlockEngine
        self.engine = engine_cls(
            device,
            threads_per_block=self.cfg.threads,
            registers_per_thread=self.cfg.registers_per_thread,
            batch=1,
            dtype=self.dtype,
            fast_math=fast_math,
            account_overhead=account_overhead,
        )
        # Shared memory: the l (column, length m) and u/w (row, length n)
        # vectors plus a scalar slot, as in Listings 5-7.
        self.sh_col = self.engine.allocate_shared(self.hreg * self.r, name="sh_col")
        self.sh_row = self.engine.allocate_shared(self.wreg * self.r, name="sh_row")
        self.sh_scalar = self.engine.allocate_shared(4, name="sh_scalar")
        # Loads and stores both run at the copy-stream rate: the loader's
        # strided pattern (Listing 4) does not reach the pure-read peak.
        with self.engine.phase("load"):
            self.engine.charge_global(self._matrix_bytes(), kind="copy")

    def _matrix_bytes(self) -> int:
        word = 8 if self.complex else 4
        return self.m * self.n * word

    def steps(self, count: int) -> Iterator:
        """The steps ``0 .. count - 1`` of a cost program's column loop.

        An observed launch (:func:`observed`) runs the loop body once per
        step, on the engine as it is.  Any other launch runs the body once,
        with ``j`` the array of every step, inside the engine's
        :meth:`~repro.gpu.simt.BlockEngine.fold`.  The body is therefore
        written array-safe: per-step operands come from ``j`` by array
        arithmetic, and panel phases pass their panel to ``phase``.
        """
        if self.observed:
            yield from range(count)
        elif count > 0:
            with self.engine.fold(count):
                yield np.arange(count)

    def column_tile_rows(self, j):
        """N: per-thread rows of the active column (Table VI's N), for a
        step or an array of steps.  N is a Python int when it is the same
        at every step, as a traced charge records it and so that a fold
        within one panel charges it as a number."""
        rows = self.hreg - j // self.r
        if not isinstance(rows, np.ndarray):
            return max(1, rows)
        if rows[0] == rows[-1]:
            return max(1, int(rows[0]))
        return np.maximum(1, rows)

    def panel(self, j):
        """The panel of step ``j``, or of each step in an array of steps
        (a Python int when they share one)."""
        panel = j // self.r
        if isinstance(panel, np.ndarray) and panel[0] == panel[-1]:
            return int(panel[0])
        return panel

    def serial_reduction(self) -> None:
        """Charge the serial cross-thread reduction of per-thread
        partials: Table VI's ``(1 + sqrt p) beta + sqrt p gamma``."""
        self.engine.charge_shared(self.r + 1)
        self.engine.charge_flops(self.r * self.cost, useful_flops=0)

    def store(self) -> None:
        """Charge the store of the tiles back to DRAM."""
        with self.engine.phase("store"):
            self.engine.charge_global(self._matrix_bytes(), kind="copy")


@dataclasses.dataclass
class _Memo:
    """A memoized launch and, once a traced launch has run, its trace tape."""

    launch: LaunchResult
    tape: Optional[TraceTape] = None


#: Memoized cost-program launches; see :func:`launch`.  The key set is a
#: handful of shapes per process, so the memo needs no bound.
_LAUNCHES: Dict[tuple, _Memo] = {}


def _own_copy(cached: LaunchResult) -> LaunchResult:
    """``cached`` with private copies of its mutable fields."""
    counters = CounterRegistry()
    counters.merge(cached.counters)
    return dataclasses.replace(
        cached,
        breakdown=CycleBreakdown(cached.breakdown),
        phase_totals=dict(cached.phase_totals),
        counters=counters,
    )


def run_program(
    program: Callable[..., None],
    m: int,
    n: int,
    dtype,
    *,
    flops_per_problem: float,
    params: Optional[dict] = None,
    **options,
) -> LaunchResult:
    """Run cost program ``program`` on a fresh ``m x n`` block.

    The block is a :class:`BlockKernel` built with ``options``; the
    program is called as ``program(kernel, **params)``.  Returns the
    engine's launch, crediting ``flops_per_problem`` FLOPs per block.
    """
    kernel = BlockKernel(m, n, dtype, **options)
    program(kernel, **(params or {}))
    return kernel.engine.result(flops_per_block=flops_per_problem)


def launch(
    program: Callable[..., None],
    m: int,
    n: int,
    dtype,
    output: np.ndarray,
    extra: Optional[np.ndarray] = None,
    *,
    flops_per_problem: float,
    device: DeviceSpec = QUADRO_6000,
    config: Optional[BlockConfig] = None,
    fast_math: bool = True,
    account_overhead: bool = True,
    **params,
) -> DeviceKernelResult:
    """Pair a batch's numerics with the launch of cost program ``program``.

    The :func:`run_program` launch is memoized per (program, m, n, dtype,
    fast_math, account_overhead, resolved config, device, flops, params);
    each caller gets its own copy of the mutable fields.  Under a tracer
    the entry also keeps the launch's trace tape, recorded on the first
    traced launch of the key, and every traced launch replays it onto the
    tracer.  With the sanitizer on or a :func:`block_engine_factory`
    override the program runs fresh on the live engine.  The launch
    metrics count every call, with the real batch ``output.shape[0]``.
    """
    dtype = np.dtype(dtype)
    cfg = config or block_config(m, n, complex_dtype=dtype.kind == "c")
    run = functools.partial(
        run_program, program, m, n, dtype, flops_per_problem=flops_per_problem,
        params=params, device=device, config=cfg, fast_math=fast_math,
        account_overhead=account_overhead,
    )
    if sanitize_enabled() or _ENGINE_FACTORY.get() is not None:
        result = run()
    else:
        key = (
            program, m, n, dtype, fast_math, account_overhead, cfg, device,
            flops_per_problem, tuple(sorted(params.items())),
        )
        memo = _LAUNCHES.get(key)
        tracer = current_tracer()
        if tracer is not None and (memo is None or memo.tape is None):
            # Stepped and folded launches are equal bit for bit, so an
            # entry keeps whichever launch filled it first.
            stepped, tape = record_tape(run)
            memo = _LAUNCHES.setdefault(key, _Memo(stepped))
            memo.tape = tape
        elif memo is None:
            memo = _LAUNCHES[key] = _Memo(run())
        if tracer is not None:
            memo.tape.replay(tracer)
        result = _own_copy(memo.launch)
    batch = output.shape[0]
    counter_inc("repro_kernel_launches_total", m=m, n=n, threads=cfg.threads)
    counter_inc("repro_kernel_problems_total", batch)
    counter_inc("repro_kernel_flops_total", flops_per_problem * batch)
    return DeviceKernelResult(
        output=output,
        launch=result,
        batch=batch,
        flops_per_problem=flops_per_problem,
        extra=extra,
    )
