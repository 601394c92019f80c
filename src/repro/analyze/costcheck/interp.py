"""Abstract interpretation of device kernels over witness inputs.

The device kernels are branch-free and data-oblivious by construction
(the paper's Section V point: every block executes the identical
instruction stream), so their charge-event sequence is a function of the
problem *shape* alone.  That property is exactly what lets a concrete
execution stand in for an abstract one: running a kernel on any witness
input *is* running it on the symbolic ``(op, m, n, batch)`` domain,
provided the event stream really is input-independent.

This module makes that proof obligation explicit.  :class:`AbstractEngine`
is a :class:`~repro.gpu.simt.BlockEngine` that records an ordered tape of
every charge event; :func:`interpret` executes a case on two independent
witnesses (different seeds *and* different batch sizes) and requires the
tapes to be identical before deriving a :class:`Footprint` -- a kernel
whose counts depend on data or batch size fails with
:class:`AbstractionError` instead of certifying a wrong footprint.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ...gpu.simt import BlockEngine
from ...kernels.device.base import block_engine_factory
from .footprint import Footprint, diff_terms

__all__ = ["AbstractEngine", "AbstractionError", "Interpretation", "interpret"]

#: Witness batch sizes: coprime and unequal, so any count that scales
#: with the batch (or depends on it at all) breaks the bisimulation.
WITNESS_BATCHES = (1, 3)
#: Seed offset between the two witnesses (independent input values).
WITNESS_SEED_STRIDE = 7919


class AbstractionError(RuntimeError):
    """A kernel's charge stream depends on its inputs -- the shape-only
    abstraction is unsound for it and no footprint can be certified."""


class AbstractEngine(BlockEngine):
    """A block engine that records an ordered charge-event tape.

    Accounting is inherited unchanged; the tape adds the event *order*
    and per-event arguments, so two runs compare as full instruction
    streams rather than mere totals.  Sanitizing and tracing are forced
    off: abstract runs must not pollute the process-global observability
    state they are later checked against.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs["sanitize"] = False
        super().__init__(*args, **kwargs)
        self._tracer = None
        self.tape: List[Tuple] = []

    def allocate_shared(self, words, dtype=None, name=None):
        self.tape.append(("alloc", name, int(words)))
        return super().allocate_shared(words, dtype=dtype, name=name)

    def charge_flops(self, ops_per_thread, *, useful_flops=None, count_spill=True):
        self.tape.append(("flops", self.current_phase, float(ops_per_thread)))
        super().charge_flops(
            ops_per_thread, useful_flops=useful_flops, count_spill=count_spill
        )

    def charge_div(self, count=1, useful_flops=None):
        self.tape.append(("div", self.current_phase, int(count)))
        super().charge_div(count, useful_flops=useful_flops)

    def charge_sqrt(self, count=1, useful_flops=None):
        self.tape.append(("sqrt", self.current_phase, int(count)))
        super().charge_sqrt(count, useful_flops=useful_flops)

    def charge_shared(self, words_per_thread, degree=1, writes=False):
        self.tape.append(
            ("shared", self.current_phase, float(words_per_thread), degree, writes)
        )
        super().charge_shared(words_per_thread, degree=degree, writes=writes)

    def sync(self):
        self.tape.append(("sync", self.current_phase))
        super().sync()

    def charge_global(self, bytes_per_block, kind="copy"):
        self.tape.append(("global", self.current_phase, float(bytes_per_block), kind))
        super().charge_global(bytes_per_block, kind=kind)


@dataclasses.dataclass(frozen=True)
class Interpretation:
    """Result of abstractly interpreting one case."""

    footprint: Footprint
    #: The certified charge-event tape (identical across witnesses).
    tape: Tuple[Tuple, ...]


def _run_witness(case, batch: int, seed: int):
    """Execute one witness under the recording engine factory."""
    engines: List[AbstractEngine] = []

    def factory(*args, **kwargs) -> AbstractEngine:
        engine = AbstractEngine(*args, **kwargs)
        engines.append(engine)
        return engine

    with block_engine_factory(factory):
        result = case.run(batch, seed)
    return result, engines


def _block_footprint(case, result, engine: AbstractEngine) -> Footprint:
    return Footprint(
        kernel=case.name,
        op=case.op,
        family=case.family,
        m=case.m,
        n=case.n,
        threads=engine.threads,
        registers=engine.registers.requested,
        flop_ops=engine._flop_thread_ops,
        divs=float(engine._div_count),
        sqrts=float(engine._sqrt_count),
        shared=engine._shared_transactions,
        shared_writes=engine._shared_writes,
        syncs=float(engine._n_sync),
        global_bytes=engine._global_bytes,
        shared_bytes=float(engine.shared_bytes),
        flops_per_problem=float(result.flops_per_problem),
    )


def _thread_footprint(case, result) -> Footprint:
    regs = result.registers
    return Footprint(
        kernel=case.name,
        op=case.op,
        family=case.family,
        m=case.m,
        n=case.n,
        threads=256,
        registers=regs.requested,
        global_bytes=result.dram_bytes / result.batch,
        spill_bytes=result.spill_bytes,
        flops_per_problem=float(result.flops_per_problem),
    )


def interpret(case) -> Interpretation:
    """Derive the certified static footprint of one case.

    Runs the kernel on two independent witnesses and requires bit-equal
    charge tapes (per-block family) or bit-equal per-problem derived
    quantities (per-thread family, which has no charge stream).
    """
    first_batch, second_batch = WITNESS_BATCHES
    result_a, engines_a = _run_witness(case, first_batch, case.seed)
    result_b, engines_b = _run_witness(
        case, second_batch, case.seed + WITNESS_SEED_STRIDE
    )

    if case.family == "per_thread":
        if engines_a or engines_b:
            raise AbstractionError(
                f"{case.name}: per-thread case unexpectedly built a block engine"
            )
        fp_a = _thread_footprint(case, result_a)
        fp_b = _thread_footprint(case, result_b)
        # Tolerance-based: dram_bytes is stored batch-multiplied, and the
        # divide back does not round-trip bit-exactly for spilled sizes.
        drift = diff_terms(fp_a.terms(), fp_b.terms())
        if drift:
            raise AbstractionError(
                f"{case.name}: per-problem footprint varies across witnesses "
                f"(batch {first_batch} vs {second_batch}): {sorted(drift)}"
            )
        # Certify the batch-1 witness: its per-problem division is exact.
        return Interpretation(footprint=fp_a, tape=())

    if len(engines_a) != 1 or len(engines_b) != 1:
        raise AbstractionError(
            f"{case.name}: expected exactly one engine per launch, got "
            f"{len(engines_a)} and {len(engines_b)}"
        )
    tape_a, tape_b = engines_a[0].tape, engines_b[0].tape
    if tape_a != tape_b:
        raise AbstractionError(
            f"{case.name}: charge tape differs between witnesses at event "
            f"{_first_divergence(tape_a, tape_b)} -- counts are input-dependent, "
            f"the shape-only abstraction is unsound for this kernel"
        )
    fp_a = _block_footprint(case, result_a, engines_a[0])
    fp_b = _block_footprint(case, result_b, engines_b[0])
    if fp_a.terms() != fp_b.terms():
        raise AbstractionError(
            f"{case.name}: accumulator totals differ between witnesses"
        )
    return Interpretation(footprint=fp_a, tape=tuple(tape_a))


def _first_divergence(tape_a: List[Tuple], tape_b: List[Tuple]) -> Optional[int]:
    for i, (a, b) in enumerate(zip(tape_a, tape_b)):
        if a != b:
            return i
    if len(tape_a) != len(tape_b):
        return min(len(tape_a), len(tape_b))
    return None
