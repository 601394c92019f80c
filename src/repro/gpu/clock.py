"""Cycle accounting for the simulated device.

:class:`CycleClock` is a simple tagged accumulator: every cost event adds
cycles under a *category* (``"compute"``, ``"shared"``, ``"sync"``,
``"global"``, ``"overhead"``) and optionally under a *phase* (the panel /
operation labels used to regenerate Figure 8's breakdown).  It performs no
scheduling itself -- the SIMT engine decides how many cycles an event
costs; the clock just remembers where they went.

Every total is a left fold in charge order (:func:`fold`), never the
builtin ``sum()``: Python 3.12 made float ``sum()`` compensated, which
would move cycle counts by an ulp between interpreter versions.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional

__all__ = ["CycleClock", "CycleBreakdown", "fold"]


def fold(values: Iterable[float]) -> float:
    """``values`` added left to right: the same bits on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


class CycleBreakdown(dict):
    """A ``{category: cycles}`` mapping with a few convenience helpers."""

    @property
    def total(self) -> float:
        return fold(self.values())

    def __add__(self, other: "CycleBreakdown") -> "CycleBreakdown":
        out = CycleBreakdown(self)
        for key, value in other.items():
            out[key] = out.get(key, 0.0) + value
        return out

    def scaled(self, factor: float) -> "CycleBreakdown":
        return CycleBreakdown({k: v * factor for k, v in self.items()})


class CycleClock:
    """Tagged cycle accumulator with nested phase labels.

    ``totals`` holds the cycles per category in first-charge order;
    ``phases`` the same per phase label, each created by its phase's
    first charge; ``phase_name`` is the innermost active phase (``None``
    outside any).  Hot callers -- the SIMT engine's charge methods -- add
    straight into ``totals`` and ``phases[phase_name]``; :meth:`charge` is
    the same two additions behind a negative-charge check.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.phases: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.phase_name: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Total cycles accumulated so far."""
        return fold(self.totals.values())

    def charge(self, cycles: float, category: str) -> None:
        """Add ``cycles`` under ``category`` (and the current phase)."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        self.totals[category] += cycles
        if self.phase_name is not None:
            self.phases[self.phase_name][category] += cycles

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Tag all charges inside the ``with`` body with phase ``name``."""
        outer, self.phase_name = self.phase_name, name
        try:
            yield
        finally:
            self.phase_name = outer

    # ------------------------------------------------------------------
    def breakdown(self) -> CycleBreakdown:
        """Cycles per category (categories never charged are omitted)."""
        return CycleBreakdown(self.totals)

    def phase_breakdown(self, name: str) -> CycleBreakdown:
        """Cycles per category charged while phase ``name`` was active."""
        return CycleBreakdown(self.phases.get(name, {}))

    def phase_totals(self) -> Dict[str, float]:
        """Total cycles per phase label, in first-charge order."""
        return {name: fold(cats.values()) for name, cats in self.phases.items()}

    def category(self, name: str) -> float:
        return float(self.totals.get(name, 0.0))

    def reset(self) -> None:
        self.totals.clear()
        self.phases.clear()
        self.phase_name = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.0f}" for k, v in self.totals.items())
        return f"CycleClock({parts}; total={self.now:.0f})"
