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
:func:`fold_steps` is the same fold for a loop whose steps charged
arrays, one value per step: it lays every sum's increments out once, in
one array with a column per sum, and adds down the columns left to right
too, with no second full-size array.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["CycleClock", "CycleBreakdown", "Tape", "fold", "fold_steps"]


def fold(values: Iterable[float]) -> float:
    """``values`` added left to right: the same bits on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


class Tape:
    """An accumulator that records each increment instead of adding it."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list = []

    def __iadd__(self, value) -> "Tape":
        self.parts.append(value)
        return self


def fold_steps(steps: int, tapes: Sequence[Tape], starts: list, firsts: list) -> list:
    """Add what each tape recorded in one step to its starts, step by step.

    A tape lists one step's increments to an accumulator, in charge
    order: numbers, and arrays of one value per step.  ``firsts`` splits
    the steps into segments, each starting at its first step; ``starts``
    holds each tape's start for each segment, tape by tape.  A sum adds
    the tape's increments of its segment's first step, then of the next
    step, and so on, left to right: the bits of ``+=`` in a loop.
    Returns the sums in the order of ``starts``.

    The increments are laid out once, in the only full-size array: a
    column per sum, in the order of ``starts``, and a row per position
    (step by step, part by part).  :func:`numpy.add.reduce` down the
    rows adds them one row at a time when there are two or more columns;
    a single column is summed in place with :func:`numpy.cumsum`,
    because a one-column reduce adds pairwise.
    """
    if len(firsts) == 1:
        longest, rows, segment = steps, slice(None), 0
    else:  # each step's position in its segment, and its segment
        counts = np.diff(firsts + [steps])
        longest = counts.max()
        rows = np.arange(steps) - np.repeat(firsts, counts)
        segment = np.repeat(np.arange(len(firsts)), counts)
    # Position (step in segment, part) by sum (tape, segment), zero past
    # the end of a shorter tape or segment.
    width = max(len(tape.parts) for tape in tapes)
    added = np.zeros((longest, width, len(tapes), len(firsts)))
    for t, tape in enumerate(tapes):
        for p, part in enumerate(tape.parts):
            added[rows, p, t, segment] = part
    added = added.reshape(-1, len(starts))
    added[0] += starts
    if added.shape[1] == 1:
        return np.cumsum(added, axis=0, out=added)[-1].tolist()
    return np.add.reduce(added, axis=0).tolist()


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
    outside any).  :meth:`charge` adds to both behind a negative-charge
    check; the SIMT engine's charge methods check their operands and
    call :meth:`add`.
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
        self.add(cycles, category)

    def add(self, cycles, category: str) -> None:
        """:meth:`charge` for a caller that has checked ``cycles``."""
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
