"""Composed global-memory hierarchy: L1 -> L2 -> (TLB, DRAM rows).

This module answers the two questions the paper's Section II
microbenchmarks ask of real silicon:

* :meth:`MemorySystem.chase` -- average dependent-load latency of a
  pointer chase with a given stride (Figure 1's staircase, Table III's
  570-cycle plateau), obtained by *simulating* the chase against the L1,
  L2, DRAM row-buffer, and TLB state machines (a walk that never wraps
  can only hit what it touched last, so NumPy decides it from the same
  rules);
* :meth:`MemorySystem.stream_bandwidth` -- sustained bandwidth of read,
  copy, and ``cudaMemcpy`` streams (Table II).

It also provides the per-block DRAM cost used by the one-problem-per-block
engine (:meth:`block_transfer_cycles`), including the empirical overlap
factor the paper observes in Table V (per-block load timestamps imply
fewer than all resident blocks compete for bandwidth at once).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Literal

import numpy as np

from ..observe.tracer import current_tracer
from .device import DeviceSpec
from .dram import DramModel, DramTimings
from .l2cache import L1Cache, L2Cache
from .tlb import Tlb

__all__ = ["ChaseResult", "MemorySystem"]

#: Fraction of resident blocks that effectively compete for DRAM at any
#: instant during a load/store phase.  The warp scheduler interleaves one
#: block's global phase with other blocks' compute phases, so per-block
#: observed load time is shorter than a fair-share split (Table V text).
DEFAULT_OVERLAP_FACTOR = 0.59


#: The NumPy walk holds its stride and addresses in int64, where Python
#: ints would grow; larger ones take the stepped walk.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True where a key equals the key just before it."""
    out = np.zeros(keys.shape, dtype=bool)
    out[1:] = keys[1:] == keys[:-1]
    return out


@dataclasses.dataclass(frozen=True)
class ChaseResult:
    """Outcome of a simulated pointer chase."""

    stride_words: int
    hops: int
    avg_latency_cycles: float
    l1_hit_rate: float
    l2_hit_rate: float
    row_hit_rate: float
    tlb_hit_rate: float


class MemorySystem:
    """Functional+timing model of one GPU's global-memory path."""

    def __init__(self, device: DeviceSpec, timings: DramTimings | None = None):
        self.device = device
        self.dram = DramModel(device, timings)

    # ------------------------------------------------------------------
    # Latency: pointer chasing (Figure 1, Table III)
    # ------------------------------------------------------------------
    def access_latency(
        self, l1_hit: bool, l2_hit: bool, row_hit: bool, tlb_hit: bool
    ) -> float:
        """Latency of one dependent load given where it hit."""
        if l1_hit:
            return self.device.l1_latency
        if l2_hit:
            return self.device.l2_latency
        latency = self.dram.access_latency(row_hit)
        if not tlb_hit:
            latency += self.device.tlb_miss_penalty
        return latency

    def chase(
        self,
        stride_words: int,
        array_words: int,
        hops: int = 4096,
        word_bytes: int = 4,
        warmup: int | None = None,
    ) -> ChaseResult:
        """Simulate a dependent pointer chase and report average latency.

        The chase walks ``hops`` dependent loads through an
        ``array_words``-long array at ``stride_words`` spacing, wrapping
        at the end, exactly like Listing 3 run over global memory.  Cache
        and TLB state is warmed with ``warmup`` extra hops (default: one
        full wrap, capped at ``hops``) before measurement starts.

        Two paths give the same result.  A walk that never wraps
        (``(warmup + hops - 1) * stride_bytes < array_bytes``) visits
        strictly increasing addresses, so it is decided in NumPy from
        each hop's line, page and row (:meth:`_straight_walk`).  A walk
        that wraps can revisit what it touched before, so it steps the
        L1, L2 and TLB state machines hop by hop (:meth:`_step_walk`), as
        does a walk whose stride or addresses would overflow int64.
        """
        if stride_words <= 0:
            raise ValueError("stride must be positive")
        if array_words <= 0:
            raise ValueError("array must be non-empty")
        if hops < 1:
            raise ValueError("need at least one measured hop")
        if warmup is not None and warmup < 0:
            raise ValueError("warmup must be non-negative")
        if word_bytes < 1:
            raise ValueError("word_bytes must be positive")
        stride_bytes = stride_words * word_bytes
        array_bytes = array_words * word_bytes
        steps_per_wrap = max(1, array_bytes // max(1, stride_bytes))
        if warmup is None:
            warmup = min(hops, steps_per_wrap)
        last_addr = (warmup + hops - 1) * stride_bytes
        fits_int64 = max(last_addr, stride_bytes) <= _INT64_MAX
        if last_addr < array_bytes and fits_int64:
            walk = self._straight_walk
        else:
            walk = self._step_walk
        total, l1_hits, l2_hits, row_hits, tlb_hits = walk(
            stride_bytes, array_bytes, warmup, hops
        )

        result = ChaseResult(
            stride_words=stride_words,
            hops=hops,
            avg_latency_cycles=total / hops,
            l1_hit_rate=l1_hits / hops,
            l2_hit_rate=l2_hits / hops,
            row_hit_rate=row_hits / hops,
            tlb_hit_rate=tlb_hits / hops,
        )
        tracer = current_tracer()
        if tracer is not None:
            c = tracer.counters
            c.add("mem.chase_hops", hops)
            c.add("mem.l1_hits", l1_hits)
            c.add("mem.l1_misses", hops - l1_hits)
            c.add("mem.l2_hits", l2_hits)
            c.add("mem.l2_misses", hops - l1_hits - l2_hits)
            c.add("mem.dram_row_hits", row_hits)
            c.add("mem.dram_row_misses", hops - row_hits)
            c.add("mem.tlb_hits", tlb_hits)
            c.add("mem.tlb_misses", hops - tlb_hits)
            tracer.complete(
                "memory.chase", "memory", dur=total,
                stride_words=stride_words, hops=hops,
                avg_latency_cycles=result.avg_latency_cycles,
                l1_hit_rate=result.l1_hit_rate,
                l2_hit_rate=result.l2_hit_rate,
                row_hit_rate=result.row_hit_rate,
                tlb_hit_rate=result.tlb_hit_rate,
            )
        return result

    def _step_walk(
        self, stride_bytes: int, array_bytes: int, warmup: int, hops: int
    ) -> tuple[float, int, int, int, int]:
        """Any walk, hop by hop through the L1, L2 and TLB state machines.

        Returns the measured hops' total latency and their L1, L2, DRAM
        row and TLB hit counts.
        """
        l1 = L1Cache(self.device)
        l2 = L2Cache(self.device)
        tlb = Tlb(self.device)
        row_bytes = self.dram.timings.row_bytes
        open_row = -1

        addr = 0
        total = 0.0
        l1_hits = l2_hits = row_hits = tlb_hits = 0
        for i in range(warmup + hops):
            l1_hit = l1.access(addr)
            l2_hit = l2.access(addr) if not l1_hit else True
            tlb_hit = tlb.access(addr)
            row = addr // row_bytes
            row_hit = row == open_row
            if not (l1_hit or l2_hit):
                open_row = row
            if i >= warmup:
                total += self.access_latency(l1_hit, l2_hit, row_hit, tlb_hit)
                l1_hits += l1_hit
                l2_hits += l2_hit and not l1_hit
                row_hits += row_hit
                tlb_hits += tlb_hit
            addr = (addr + stride_bytes) % array_bytes
        return total, l1_hits, l2_hits, row_hits, tlb_hits

    def _straight_walk(
        self, stride_bytes: int, array_bytes: int, warmup: int, hops: int
    ) -> tuple[float, int, int, int, int]:
        """Decide a walk that never wraps in NumPy, as :meth:`_step_walk` would.

        Its addresses strictly increase, so each line, page and row is one
        run of consecutive hops, and an LRU structure can only hit on the
        line or page it touched last:

        * L1 (if it has any bytes) hits when a hop's line is the previous
          hop's line;
        * L2 sees the hops that miss L1 and hits when a line is that of
          the previous hop it saw (an L1 hit counts as an L2 hit, as in
          the loop);
        * the TLB (if it has an entry) hits when a hop's page is the
          previous hop's page;
        * the open row is the row of the last earlier hop that missed
          both caches (-1 before any), and a hop whose row is open hits.

        The measured hops' latencies are added in hop order with
        :func:`numpy.cumsum`, which keeps the loop's ``+=`` bits.
        """
        l1 = L1Cache(self.device)
        l2 = L2Cache(self.device)
        tlb = Tlb(self.device)
        addr = np.arange(warmup + hops, dtype=np.int64) * stride_bytes
        never = np.zeros(addr.shape, dtype=bool)

        l1_hit = _repeats(addr // l1.line_bytes) if l1.enabled else never
        l2_hit = l1_hit.copy()
        if l2.enabled:
            reached = np.flatnonzero(~l1_hit)
            l2_hit[reached] = _repeats(addr[reached] // l2.line_bytes)
        tlb_hit = _repeats(addr // tlb.page_bytes) if tlb.entries >= 1 else never
        # Rows never decrease, so the row that the last earlier hop to
        # reach DRAM opened is the largest row any earlier such hop opened.
        row = addr // self.dram.timings.row_bytes
        opened = np.maximum.accumulate(np.where(l2_hit, -1, row))
        row_hit = row == np.concatenate(([-1], opened[:-1]))

        # Look each hop's latency up among access_latency's 16 outcomes.
        verdicts = (l1_hit, l2_hit, row_hit, tlb_hit)
        latency = np.array(
            [self.access_latency(*flags)
             for flags in itertools.product((False, True), repeat=4)],
            dtype=np.float64,
        )
        outcome = np.zeros(addr.shape, dtype=np.intp)
        for hit in verdicts:
            outcome = 2 * outcome + hit
        measured = slice(warmup, None)
        total = float(latency[outcome[measured]].cumsum()[-1])
        l1_hits, l2_or_l1_hits, row_hits, tlb_hits = (
            int(np.count_nonzero(hit[measured])) for hit in verdicts
        )
        return total, l1_hits, l2_or_l1_hits - l1_hits, row_hits, tlb_hits

    # ------------------------------------------------------------------
    # Bandwidth (Table II)
    # ------------------------------------------------------------------
    def stream_bandwidth(
        self, kind: Literal["read", "copy", "memcpy"] = "copy"
    ) -> float:
        """Sustained bytes/second for the given streaming pattern."""
        if kind == "read":
            bw = self.dram.read_bandwidth()
        elif kind == "copy":
            bw = self.dram.copy_bandwidth()
        elif kind == "memcpy":
            bw = self.dram.memcpy_bandwidth()
        else:
            raise ValueError(f"unknown stream kind: {kind!r}")
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "memory.stream_bandwidth", "memory", kind=kind, bytes_per_s=bw
            )
        return bw

    # ------------------------------------------------------------------
    # Per-block transfer cost (Table V, Figure 9's DRAM term)
    # ------------------------------------------------------------------
    def block_transfer_cycles(
        self,
        nbytes: float,
        concurrent_blocks: int,
        overlap_factor: float = DEFAULT_OVERLAP_FACTOR,
        kind: Literal["read", "copy", "memcpy"] = "copy",
    ) -> float:
        """Observed cycles for one block to move ``nbytes`` to/from DRAM.

        ``concurrent_blocks`` is the number of blocks resident on the
        whole chip; each block sees the achieved bandwidth divided by the
        number of blocks *effectively* competing, which is
        ``concurrent_blocks * overlap_factor`` because global phases of
        different blocks overlap with compute phases of others.
        """
        if concurrent_blocks < 1:
            raise ValueError("need at least one resident block")
        bw = self.stream_bandwidth(kind)
        effective = max(1.0, concurrent_blocks * overlap_factor)
        return self.device.seconds_to_cycles(nbytes * effective / bw)
