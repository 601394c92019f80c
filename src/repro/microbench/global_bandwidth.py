"""Global-memory bandwidth microbenchmark (Listing 2).

Copies a 16 MB array device-to-device with an unrolled grid-stride loop
and reports bytes moved over wall time, host-timed like the paper (so a
kernel-launch overhead is included).  Also measures the vendor
``cudaMemcpy`` path for the comparison in Section II-B2.

The bandwidths come from the DRAM model alone; the functional copy only
proves the unrolled loop puts every word in place.  On the host it
streams through its one destination: the zeroed destination is the only
full-size array, and each unroll block's source words are made when that
block is copied, so at most one block of source is alive.  The check
then walks the whole destination, in slices of its own, against the
words it must hold.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.memory_system import MemorySystem

__all__ = ["GlobalBandwidthResult", "measure_global_bandwidth"]

#: Host-visible launch + timing overhead (gettimeofday around a launch).
LAUNCH_OVERHEAD_S = 8e-6
#: Words per slice of the destination check (1 MB): the check's own
#: slices, not the copy's unroll blocks.
CHECK_WORDS = 1 << 18


@dataclasses.dataclass(frozen=True)
class GlobalBandwidthResult:
    device: DeviceSpec
    copy_bandwidth: float
    memcpy_bandwidth: float
    copy_efficiency: float
    memcpy_efficiency: float
    bytes_moved: int
    checksum_ok: bool


def measure_global_bandwidth(
    device: DeviceSpec,
    array_bytes: int = 16 * 1024 * 1024,
    unroll: int = 8,
) -> GlobalBandwidthResult:
    """Copy ``array_bytes`` and report sustained bandwidth both ways.

    A real (NumPy) copy runs to keep the benchmark honest about what the
    kernel does; timing comes from the DRAM model's streaming rates plus
    the host-side launch overhead.  Source word ``i`` holds ``i + 1``, so
    every word is distinct and non-zero, and ``checksum_ok`` says the
    whole destination holds exactly those words: a dropped block or
    tail leaves zeros, and a misplaced block, or one written a second
    time into another block's slot, leaves wrong words.  ``array_bytes``
    must be a positive multiple of 4 (one ``uint32`` word) and
    ``unroll`` at least 1.
    """
    if array_bytes <= 0 or array_bytes % 4:
        raise ValueError(
            f"array_bytes must be a positive multiple of 4, got {array_bytes}"
        )
    if unroll < 1:
        raise ValueError(f"unroll must be at least 1, got {unroll}")
    ms = MemorySystem(device)
    words = array_bytes // 4

    # Functional copy, one contiguous block per unroll step of Listing 2
    # plus the tail, each block's source words made as it is copied.
    dst = np.zeros(words, dtype=np.uint32)
    size = words // unroll
    edges = [i * size for i in range(unroll + 1)] + [words]
    for lo, hi in zip(edges, edges[1:]):
        dst[lo:hi] = np.arange(lo + 1, hi + 1, dtype=np.uint32)
    checksum_ok = all(
        np.array_equal(
            dst[lo : lo + CHECK_WORDS],
            np.arange(lo + 1, min(lo + CHECK_WORDS, words) + 1, dtype=np.uint32),
        )
        for lo in range(0, words, CHECK_WORDS)
    )

    moved = 2 * words * 4  # read + write
    copy_time = moved / ms.stream_bandwidth("copy") + LAUNCH_OVERHEAD_S
    memcpy_time = moved / ms.stream_bandwidth("memcpy") + LAUNCH_OVERHEAD_S
    peak = device.global_bandwidth
    return GlobalBandwidthResult(
        device=device,
        copy_bandwidth=moved / copy_time,
        memcpy_bandwidth=moved / memcpy_time,
        copy_efficiency=moved / copy_time / peak,
        memcpy_efficiency=moved / memcpy_time / peak,
        bytes_moved=moved,
        checksum_ok=checksum_ok,
    )
