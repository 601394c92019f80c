"""Set-associative cache simulators (L1 and L2 tag stores).

The GF100's 768 KB unified L2 acts as a "bandwidth amplifier" between the
SMs and DRAM; each SM additionally has a 16 KB L1 slice.  For the
pointer-chasing microbenchmark (Figure 1) what matters is *which
dependent loads hit which level*, so these are plain functional
set-associative tag stores with true-LRU replacement.

The simulators are deliberately storage-free: they track tags only,
because the functional data path of the engine keeps real values in NumPy
arrays and only needs the hit/miss verdicts for timing.  Each touched set
is an ordered dict of its resident lines, least recently used first, so
a lookup costs one dict probe whatever the cache's geometry.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from .device import DeviceSpec

__all__ = ["TagCache", "L2Cache", "L1Cache"]


class TagCache:
    """True-LRU set-associative tag store."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int):
        if line_bytes <= 0 or ways <= 0:
            raise ValueError("line size and associativity must be positive")
        self.size_bytes = int(size_bytes)
        self.line_bytes = int(line_bytes)
        self.ways = int(ways)
        self.num_sets = max(1, self.size_bytes // (self.line_bytes * self.ways))
        # set index -> {line address: None}, least recently used first
        self._sets = defaultdict(OrderedDict)
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        """A zero-byte cache never hits (pre-Fermi parts have no L2/L1)."""
        return self.size_bytes > 0

    def reset(self) -> None:
        self._sets.clear()
        self.hits = 0
        self.misses = 0

    def access(self, byte_address: int) -> bool:
        """Touch ``byte_address``; return True on hit, False on miss.

        A miss installs the line (allocate-on-miss, evicting the LRU way).
        """
        if byte_address < 0:
            raise ValueError("byte address must be non-negative")
        if not self.enabled:
            self.misses += 1
            return False
        line = byte_address // self.line_bytes
        lines = self._sets[line % self.num_sets]
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return True
        if len(lines) >= self.ways:
            lines.popitem(last=False)
        lines[line] = None
        self.misses += 1
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class L2Cache(TagCache):
    """The chip-wide L2, sized from a :class:`~repro.gpu.device.DeviceSpec`."""

    def __init__(self, device: DeviceSpec):
        super().__init__(device.l2_bytes, device.l2_line_bytes, device.l2_ways)
        self.device = device


class L1Cache(TagCache):
    """One SM's L1 slice (4-way on GF100)."""

    def __init__(self, device: DeviceSpec, ways: int = 4):
        super().__init__(device.l1_bytes, device.l2_line_bytes, ways)
        self.device = device
