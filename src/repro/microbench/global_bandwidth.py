"""Global-memory bandwidth microbenchmark (Listing 2).

Copies a 16 MB array device-to-device with an unrolled grid-stride loop
and reports bytes moved over wall time, host-timed like the paper (so a
kernel-launch overhead is included).  Also measures the vendor
``cudaMemcpy`` path for the comparison in Section II-B2.

The bandwidths come from the DRAM model alone; the functional copy only
proves the unrolled loop puts every word in place, so on the host it is
one slice copy per unroll block, with no random draws or index arrays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.memory_system import MemorySystem

__all__ = ["GlobalBandwidthResult", "measure_global_bandwidth"]

#: Host-visible launch + timing overhead (gettimeofday around a launch).
LAUNCH_OVERHEAD_S = 8e-6


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
    the host-side launch overhead.
    """
    if array_bytes <= 0:
        raise ValueError("array must be non-empty")
    ms = MemorySystem(device)
    words = array_bytes // 4

    # Functional copy, one contiguous block per unroll step of Listing 2
    # plus the tail.  Source words are distinct and non-zero, so a dropped
    # or misplaced block fails the checksum against the zeroed destination.
    src = np.arange(1, words + 1, dtype=np.uint32)
    dst = np.zeros_like(src)
    size = words // unroll
    for i in range(unroll):
        dst[i * size:(i + 1) * size] = src[i * size:(i + 1) * size]
    dst[unroll * size:] = src[unroll * size:]
    checksum_ok = bool(np.array_equal(dst, src))

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
