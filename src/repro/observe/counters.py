"""Hardware-event counter registry.

The engine and the instrumented subsystems report raw event *counts*
(FLOP groups, shared transactions, bank-conflict replays, syncs, spill
accesses, DRAM row hits/misses, cache hits...) into a
:class:`CounterRegistry`.  Counters are the quantities the paper's
Equations 1 and 2 multiply by the Table-IV latencies, so a registry
snapshot is exactly the input the attribution layer
(:mod:`repro.observe.attribution`) needs to evaluate the model against a
measured launch.

A registry aggregates three ways at once:

* **flat** -- every ``add`` lands under its counter name;
* **per stage** -- inside a ``with registry.stage("doppler"):`` scope the
  same adds are also credited to the active stage, giving the
  per-pipeline-stage totals the STAP pipeline reports;
* **statistics** -- each counter tracks total, event count, and maximum,
  so value-like observations (e.g. LU element growth) ride the same path
  as pure counts.

The registry is plain dictionaries and floats: cheap enough that the
:class:`~repro.gpu.simt.BlockEngine` keeps one per launch unconditionally.

A :class:`CounterTape` is what one run added to a registry, recorded by
a :class:`RecordingRegistry` and replayed onto any registry with the
bits those adds leave there (see :class:`~repro.observe.tracer.TraceTape`).
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from functools import reduce
from operator import add as _plus
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = ["CounterStat", "CounterRegistry", "CounterTape", "RecordingRegistry"]


@dataclasses.dataclass
class CounterStat:
    """Running statistics of one counter."""

    total: float = 0.0
    count: int = 0
    maximum: float = float("-inf")

    def add(self, value: float, events: int = 1) -> None:
        self.total += value
        self.count += events
        if value > self.maximum:
            self.maximum = value

    def as_dict(self) -> dict:
        """JSON-strict view: a never-observed maximum reports as ``None``.

        ``maximum`` starts at ``-inf`` (and stays there when every update
        came through :meth:`CounterRegistry.add_aggregate` without one);
        ``-Infinity`` is not valid strict JSON, so it must not reach the
        exporters.
        """
        maximum = self.maximum if math.isfinite(self.maximum) else None
        return {"total": self.total, "count": self.count, "max": maximum}


class CounterRegistry:
    """Named event counters with optional per-stage aggregation."""

    def __init__(self) -> None:
        self._stats: Dict[str, CounterStat] = {}
        self._stage_stack: list[str] = []
        self._by_stage: Dict[str, Dict[str, CounterStat]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` under ``name`` (and the active stage)."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = CounterStat()
        stat.add(value)
        if self._stage_stack:
            stage = self._by_stage.setdefault(self._stage_stack[-1], {})
            sstat = stage.get(name)
            if sstat is None:
                sstat = stage[name] = CounterStat()
            sstat.add(value)

    def observe(self, name: str, values) -> None:
        """Record a batch of value observations in one update.

        Unlike repeated :meth:`add` calls this is O(1) in Python work for
        an array: total/count/max are folded with NumPy.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        finite = arr[np.isfinite(arr)]
        if finite.size < arr.size:
            self.add(name + ".nonfinite", float(arr.size - finite.size))
        if finite.size == 0:
            return
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = CounterStat()
        stat.total += float(finite.sum())
        stat.count += int(finite.size)
        peak = float(finite.max())
        if peak > stat.maximum:
            stat.maximum = peak

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Credit all adds inside the body to pipeline stage ``name``."""
        self._stage_stack.append(name)
        try:
            yield
        finally:
            self._stage_stack.pop()

    def add_aggregate(
        self,
        name: str,
        total: float,
        events: int = 1,
        maximum: Optional[float] = None,
    ) -> None:
        """Install a pre-aggregated statistic in one update.

        Hot producers (the SIMT engine) accumulate plain scalars during a
        launch and ingest them here once at the end, instead of paying a
        registry update per hardware event.  ``maximum`` is recorded only
        when the producer actually tracked it.
        """
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = CounterStat()
        stat.total += total
        stat.count += int(events)
        if maximum is not None and maximum > stat.maximum:
            stat.maximum = maximum

    def merge(self, other: "CounterRegistry", prefix: str = "") -> None:
        """Fold ``other``'s totals into this registry (stages included).

        Merging is plain addition in iteration order, so folding the
        per-shard registries of a sharded launch **in submission order**
        reproduces the serial path's totals exactly -- the invariant the
        :mod:`repro.runtime` merge layer is tested against.
        """
        for name, stat in other._stats.items():
            dest = self._stats.get(prefix + name)
            if dest is None:
                dest = self._stats[prefix + name] = CounterStat()
            dest.total += stat.total
            dest.count += stat.count
            if stat.maximum > dest.maximum:
                dest.maximum = stat.maximum
        for stage, counters in other._by_stage.items():
            dest_stage = self._by_stage.setdefault(stage, {})
            for name, stat in counters.items():
                dest = dest_stage.get(prefix + name)
                if dest is None:
                    dest = dest_stage[prefix + name] = CounterStat()
                dest.total += stat.total
                dest.count += stat.count
                if stat.maximum > dest.maximum:
                    dest.maximum = stat.maximum

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        stat = self._stats.get(name)
        return stat.total if stat is not None else default

    def count(self, name: str) -> int:
        stat = self._stats.get(name)
        return stat.count if stat is not None else 0

    def maximum(self, name: str, default: float = float("nan")) -> float:
        stat = self._stats.get(name)
        return stat.maximum if stat is not None and stat.count else default

    def mean(self, name: str, default: float = float("nan")) -> float:
        stat = self._stats.get(name)
        if stat is None or stat.count == 0:
            return default
        return stat.total / stat.count

    def names(self) -> list[str]:
        return sorted(self._stats)

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{name: total}`` view (sorted for stable output)."""
        return {name: self._stats[name].total for name in sorted(self._stats)}

    def snapshot(self) -> Dict[str, dict]:
        """Full per-counter statistics view."""
        return {name: self._stats[name].as_dict() for name in sorted(self._stats)}

    def stages(self) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{stage: {name: total}}`` totals."""
        return {
            stage: {name: stat.total for name, stat in sorted(counters.items())}
            for stage, counters in self._by_stage.items()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v.total:g}" for k, v in sorted(self._stats.items()))
        return f"CounterRegistry({parts})"


def _unrecorded(entry: str) -> TypeError:
    return TypeError(f"a recording registry does not record {entry}()")


class RecordingRegistry(CounterRegistry):
    """A registry that records each add, with its stage, for a
    :class:`CounterTape`.

    :meth:`add` appends ``(stage, name, value)`` -- ``stage`` the
    innermost open :meth:`stage` or ``None`` -- and aggregates nothing.
    The entry points a tape cannot replay raise, so new instrumentation
    cannot silently fall off a tape.
    """

    def __init__(self) -> None:
        super().__init__()
        self.adds: list[tuple[Optional[str], str, float]] = []

    def add(self, name: str, value: float = 1.0) -> None:
        stack = self._stage_stack
        self.adds.append((stack[-1] if stack else None, name, value))

    def observe(self, name: str, values) -> None:
        raise _unrecorded("observe")

    def add_aggregate(self, name, total, events=1, maximum=None) -> None:
        raise _unrecorded("add_aggregate")

    def merge(self, other, prefix: str = "") -> None:
        raise _unrecorded("merge")


def _folds(adds) -> list:
    """Per counter, in first-add order: its values in charge order, and
    the total, count and maximum those values give a fresh statistic."""
    values: Dict[str, list] = {}
    for _, name, value in adds:
        values.setdefault(name, []).append(value)
    folds = []
    for name, run in values.items():
        fresh = CounterStat()
        for value in run:
            fresh.add(value)
        folds.append((name, tuple(run), fresh.total, fresh.count, fresh.maximum))
    return folds


def _replay_folds(stats: Dict[str, CounterStat], folds: list) -> None:
    """Add each fold to its statistic as one add per value would."""
    for name, values, total, count, maximum in folds:
        stat = stats.get(name)
        if stat is None:
            stats[name] = CounterStat(total, count, maximum)
            continue
        stat.total = reduce(_plus, values, stat.total)  # a left fold
        stat.count += count
        if maximum > stat.maximum:
            stat.maximum = maximum


class CounterTape:
    """The adds one run made on a registry, replayable onto any other.

    ``adds`` are a :class:`RecordingRegistry`'s ``(stage, name, value)``
    records in charge order.  :meth:`replay` leaves a registry exactly as
    those adds would -- totals, counts, maxima and the creation order of
    counters and stages -- but folds each counter's values at once: the
    values added left to right onto the running total, the count and the
    maximum added once.  Adds recorded outside any stage credit the
    registry's open stage, as they would have.
    """

    __slots__ = ("adds", "_flat", "_staged", "_stages")

    def __init__(self, adds: list) -> None:
        self.adds = adds
        self._flat = _folds(adds)
        by_stage: Dict[Optional[str], list] = {}
        for record in adds:
            by_stage.setdefault(record[0], []).append(record)
        self._staged = [(stage, _folds(run)) for stage, run in by_stage.items()]
        self._stages = frozenset(stage for stage in by_stage if stage is not None)

    def replay(self, registry: CounterRegistry) -> None:
        """Add the recorded adds to ``registry``."""
        stack = registry._stage_stack
        open_stage = stack[-1] if stack else None
        if open_stage in self._stages:
            # The open stage shares a recorded stage's statistics, so the
            # two runs of adds interleave: replay them one by one.
            for stage, name, value in self.adds:
                if stage is None:
                    registry.add(name, value)
                else:
                    stack.append(stage)
                    registry.add(name, value)
                    stack.pop()
            return
        _replay_folds(registry._stats, self._flat)
        for stage, folds in self._staged:
            if stage is None:
                if open_stage is None:
                    continue
                stage = open_stage
            _replay_folds(registry._by_stage.setdefault(stage, {}), folds)
