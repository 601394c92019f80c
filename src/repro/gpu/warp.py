"""Warp-level helpers.

The engine charges dependent-chain latencies, the regime
register-resident factorizations run in.  It prices neither latency
hiding across resident warps nor issue serialization; what remains here
is a block's warp count.
"""

from __future__ import annotations

import math

from .device import DeviceSpec

__all__ = ["warps_in_block"]


def warps_in_block(device: DeviceSpec, threads: int) -> int:
    """Number of warps a block of ``threads`` threads occupies."""
    if threads < 1:
        raise ValueError("a block needs at least one thread")
    return math.ceil(threads / device.warp_size)
