"""Simulated GPU substrate (GF100-class).

This package replaces the paper's NVIDIA Quadro 6000: a deterministic
performance simulator with the same architectural structure -- SMs,
warps, per-thread register files, banked shared memory, a unified L2,
row-buffered DRAM, and an occupancy calculator.  Numerics run for real in
NumPy; the simulator supplies the cycle costs.
"""

from .clock import CycleBreakdown, CycleClock
from .device import G80, GTX480, QUADRO_6000, DeviceSpec
from .dram import DramModel, DramTimings
from .fastmath import (
    MANTISSA_BITS,
    fast_divide,
    fast_reciprocal,
    fast_rsqrt,
    fast_sqrt,
    truncate_mantissa,
)
from .instructions import InstructionCosts, costs_for
from .l2cache import L1Cache, L2Cache, TagCache
from .memory_system import ChaseResult, MemorySystem
from .occupancy import Occupancy, occupancy
from .registers import RegisterAllocation, registers_for_matrix
from .shared_memory import SharedMemory, conflict_degree
from .simt import BlockEngine, LaunchResult
from .tlb import Tlb

__all__ = [
    "CycleBreakdown",
    "CycleClock",
    "DeviceSpec",
    "QUADRO_6000",
    "G80",
    "GTX480",
    "DramModel",
    "DramTimings",
    "MANTISSA_BITS",
    "fast_divide",
    "fast_reciprocal",
    "fast_rsqrt",
    "fast_sqrt",
    "truncate_mantissa",
    "InstructionCosts",
    "costs_for",
    "TagCache",
    "L1Cache",
    "L2Cache",
    "ChaseResult",
    "MemorySystem",
    "Occupancy",
    "occupancy",
    "RegisterAllocation",
    "registers_for_matrix",
    "SharedMemory",
    "conflict_degree",
    "BlockEngine",
    "LaunchResult",
    "Tlb",
]
