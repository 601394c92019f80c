"""Labeled fleet metrics: counters, gauges, and fixed-bucket histograms.

Where :class:`~repro.observe.counters.CounterRegistry` aggregates the
*hardware events of one launch* (the Eq. 1/Eq. 2 inputs), a
:class:`MetricsRegistry` aggregates the *fleet*: how many chunks ran on
which worker, how long they queued, how often the dispatch and
calibration caches hit, which roofline regime each launch landed in.
Metric families are Prometheus-shaped -- a name, a kind (``counter`` /
``gauge`` / ``histogram``), and a set of label-keyed series -- so one
exposition (:func:`prometheus_text`) serves both a scrape endpoint and
the golden-file tests, and :func:`parse_prometheus_text` round-trips it.

Design points, mirroring the rest of :mod:`repro.observe`:

* **zero-dependency** -- plain dicts and floats, stdlib only;
* **process-global default registry** -- instrumented call-sites use the
  module-level helpers (:func:`counter_inc`, :func:`gauge_set`,
  :func:`histogram_observe`), which cost one flag check when metrics are
  disabled (:func:`set_metrics_enabled`, or ``REPRO_METRICS=0``);
* **mergeable** -- per-worker registries fold into the launch registry
  with :meth:`MetricsRegistry.merge` (plain addition in submission
  order), exactly how the runtime folds ``CounterRegistry`` snapshots;
* **fixed buckets** -- histograms never rebucket, so merged histograms
  are exact, not approximate.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from .export import atomic_write_text
from .log import env_switch

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "counter_inc",
    "default_registry",
    "default_snapshot_path",
    "gauge_set",
    "histogram_observe",
    "load_metrics_snapshot",
    "metrics_enabled",
    "parse_prometheus_text",
    "prometheus_text",
    "set_default_registry",
    "set_metrics_enabled",
    "write_prometheus",
]

#: Default histogram buckets (seconds): spans sub-millisecond chunk
#: launches to multi-second batch walls.  Upper bounds, ``le`` semantics.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: A label set, normalized: sorted tuple of ``(name, value)`` strings.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclasses.dataclass
class HistogramValue:
    """One histogram series: per-bucket counts plus sum/count.

    ``counts[i]`` holds observations with ``value <= buckets[i]`` (and
    above the previous bound); the final slot is the ``+Inf`` overflow.
    Counts are stored *non-cumulative* and only cumulated at exposition,
    which keeps :meth:`merge` plain addition.
    """

    buckets: Tuple[float, ...]
    counts: list
    total: float = 0.0
    count: int = 0

    @classmethod
    def empty(cls, buckets: Tuple[float, ...]) -> "HistogramValue":
        return cls(buckets=buckets, counts=[0] * (len(buckets) + 1))

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            return
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list:
        """Cumulative counts per bound, Prometheus ``le`` convention."""
        out, running = [], 0
        for c in self.counts[:-1]:
            running += c
            out.append(running)
        return out

    def merge(self, other: "HistogramValue") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with buckets {self.buckets} "
                f"and {other.buckets}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile, Prometheus ``histogram_quantile``.

        Finds the bucket holding the ``q``-th observation and
        interpolates linearly inside it, assuming observations are
        uniform within a bucket.  The first bucket's lower bound is 0
        (these histograms hold non-negative latencies); a quantile
        landing in the ``+Inf`` overflow clamps to the highest finite
        bound.  Returns ``None`` when the series is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        running = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if running + bucket_count >= rank:
                if i >= len(self.buckets):
                    # Overflow bucket: no finite upper bound to
                    # interpolate toward; report the largest bound.
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i]
                within = (rank - running) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, within))
            running += bucket_count
        return self.buckets[-1]


@dataclasses.dataclass
class _Family:
    """One metric family: a name, a kind, and its labeled series."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    buckets: Optional[Tuple[float, ...]] = None
    series: Dict[LabelKey, Any] = dataclasses.field(default_factory=dict)


class MetricsRegistry:
    """Labeled metric families with Prometheus-style semantics.

    Counters only increase, gauges hold the last value set, histograms
    bucket observations against fixed bounds.  All three are keyed by a
    normalized label set, so ``inc("x", op="lu")`` and ``inc("x",
    op="qr")`` are independent series of one family.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Family management
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            bounds = None
            if kind == "histogram":
                bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
                if list(bounds) != sorted(set(bounds)):
                    raise ValueError(f"histogram buckets must be increasing: {bounds}")
            fam = self._families[name] = _Family(
                name=name, kind=kind, help=help, buckets=bounds
            )
            return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {fam.kind}, not a {kind}"
            )
        if kind == "histogram" and buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if bounds != fam.buckets:
                raise ValueError(
                    f"histogram {name!r} has fixed buckets {fam.buckets}; "
                    f"got {bounds}"
                )
        if help and not fam.help:
            fam.help = help
        return fam

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, help: str = "", **labels) -> None:
        """Increase counter ``name`` (for the given label set)."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount={amount})")
        fam = self._family(name, "counter", help)
        key = _label_key(labels)
        fam.series[key] = fam.series.get(key, 0.0) + float(amount)

    def set(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        value = float(value)
        if not math.isfinite(value):
            return
        fam = self._family(name, "gauge", help)
        fam.series[_label_key(labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels,
    ) -> None:
        """Record ``value`` into histogram ``name``."""
        fam = self._family(name, "histogram", help, buckets)
        key = _label_key(labels)
        hist = fam.series.get(key)
        if hist is None:
            hist = fam.series[key] = HistogramValue.empty(fam.buckets)
        hist.observe(float(value))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (the worker -> launch fold).

        Counters and histogram buckets add; gauges take ``other``'s value
        (last write wins, as if the sets had happened here).  Folding the
        per-worker registries of a sharded launch in submission order
        therefore reproduces the serial path's totals exactly.
        """
        for name, ofam in other._families.items():
            fam = self._family(name, ofam.kind, ofam.help, ofam.buckets)
            for key, value in ofam.series.items():
                if ofam.kind == "counter":
                    fam.series[key] = fam.series.get(key, 0.0) + value
                elif ofam.kind == "gauge":
                    fam.series[key] = value
                else:
                    hist = fam.series.get(key)
                    if hist is None:
                        fam.series[key] = HistogramValue.empty(fam.buckets)
                        hist = fam.series[key]
                    hist.merge(value)

    def clear(self) -> None:
        self._families.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """A counter/gauge series' value (``default`` when absent)."""
        fam = self._families.get(name)
        if fam is None or fam.kind == "histogram":
            return default
        return fam.series.get(_label_key(labels), default)

    def histogram_value(self, name: str, **labels) -> Optional[HistogramValue]:
        fam = self._families.get(name)
        if fam is None or fam.kind != "histogram":
            return None
        return fam.series.get(_label_key(labels))

    def histogram_quantile(
        self, name: str, q: float, **labels
    ) -> Optional[float]:
        """Interpolated quantile of histogram ``name`` for one label set.

        ``q`` is a fraction (``0.5`` = median, ``0.99`` = p99); see
        :meth:`HistogramValue.quantile` for the interpolation rules.
        Returns ``None`` when the series is absent or empty.
        """
        hist = self.histogram_value(name, **labels)
        if hist is None:
            return None
        return hist.quantile(q)

    def sum_series(self, name: str, **match) -> float:
        """Sum of every counter/gauge series whose labels contain ``match``."""
        fam = self._families.get(name)
        if fam is None or fam.kind == "histogram":
            return 0.0
        want = set(_label_key(match))
        return sum(v for key, v in fam.series.items() if want <= set(key))

    def merged_histogram(self, name: str, **match) -> Optional[HistogramValue]:
        """Every histogram series whose labels contain ``match``, merged.

        Buckets are fixed per family, so the merge is exact -- the result
        is the histogram that would have been recorded had all matching
        series shared one label set.  Returns ``None`` when the family is
        absent, not a histogram, or nothing matches.
        """
        fam = self._families.get(name)
        if fam is None or fam.kind != "histogram":
            return None
        want = set(_label_key(match))
        merged: Optional[HistogramValue] = None
        for key, hist in fam.series.items():
            if not want <= set(key):
                continue
            if merged is None:
                merged = HistogramValue.empty(hist.buckets)
            merged.merge(hist)
        return merged

    def label_values(self, name: str, label: str) -> list:
        """Sorted distinct values of ``label`` across ``name``'s series."""
        fam = self._families.get(name)
        if fam is None:
            return []
        values = set()
        for key in fam.series:
            for k, v in key:
                if k == label:
                    values.add(v)
        return sorted(values)

    def families(self) -> list:
        return sorted(self._families)

    def kind(self, name: str) -> Optional[str]:
        fam = self._families.get(name)
        return fam.kind if fam else None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        series = sum(len(f.series) for f in self._families.values())
        return f"MetricsRegistry({len(self._families)} families, {series} series)"


# ----------------------------------------------------------------------
# Process-global default registry
# ----------------------------------------------------------------------
_default = MetricsRegistry()
_enabled = env_switch("REPRO_METRICS", default=True)


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented call-sites write to."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the old one.

    The sharded runtime uses this to give each chunk execution a private
    registry that ships back with the outcome and folds into the launch
    registry in submission order.
    """
    global _default
    previous = _default
    _default = registry
    return previous


def metrics_enabled() -> bool:
    """Whether the module-level helpers record anything."""
    return _enabled


def set_metrics_enabled(flag: bool) -> bool:
    """Toggle the helpers on/off; returns the previous setting.

    Also settable at import time with ``REPRO_METRICS=0``.  Disabled
    helpers cost a single flag check -- the benchmark suite holds the
    enabled/disabled wall-time gap under 5%.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def counter_inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increase a counter on the default registry; no-op when disabled."""
    if _enabled:
        _default.inc(name, amount, **labels)


def gauge_set(name: str, value: float, **labels) -> None:
    """Set a gauge on the default registry; no-op when disabled."""
    if _enabled:
        _default.set(name, value, **labels)


def histogram_observe(
    name: str, value: float, buckets: Optional[Iterable[float]] = None, **labels
) -> None:
    """Observe into a histogram on the default registry; no-op when disabled."""
    if _enabled:
        _default.observe(name, value, buckets=buckets, **labels)


# ----------------------------------------------------------------------
# Prometheus text exposition + parser
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Families sorted by name, series sorted by label set, so the output
    is byte-stable for a given registry state -- the property the
    golden-file test pins down.
    """
    lines = []
    for name in sorted(registry._families):
        fam = registry._families[name]
        if fam.help:
            lines.append(f"# HELP {name} {_escape_label(fam.help)}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for key in sorted(fam.series):
            value = fam.series[key]
            if fam.kind == "histogram":
                cumulative = value.cumulative()
                for bound, cum in zip(fam.buckets, cumulative):
                    le = ("le", _format_value(bound))
                    lines.append(
                        f"{name}_bucket{_render_labels(key, le)} {cum}"
                    )
                lines.append(
                    f'{name}_bucket{_render_labels(key, ("le", "+Inf"))} '
                    f"{value.count}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(key)} {_format_value(value.total)}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {value.count}")
            else:
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from :func:`prometheus_text` output.

    Supports the subset this module emits: ``counter``, ``gauge``, and
    ``histogram`` families with ``_bucket``/``_sum``/``_count`` samples.
    Unknown or malformed lines raise ``ValueError`` -- a scrape either
    parses completely or fails loudly.
    """
    registry = MetricsRegistry()
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    # Histogram series accumulate across lines before reconstruction.
    hist: Dict[Tuple[str, LabelKey], dict] = {}

    # Split on "\n" alone: help and label text may hold any other line
    # break, and a help text's edge whitespace is part of it.
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if raw.startswith("# HELP "):
            name, _, help_text = raw[len("# HELP "):].partition(" ")
            helps[name] = _unescape_label(help_text)
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            kinds[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        sample, label_body, value_text = match.groups()
        labels = {
            k: _unescape_label(v)
            for k, v in _LABEL_RE.findall(label_body or "")
        }
        value = float(value_text)

        base, part = sample, "value"
        for suffix in ("_bucket", "_sum", "_count"):
            candidate = sample[: -len(suffix)] if sample.endswith(suffix) else None
            if candidate and kinds.get(candidate) == "histogram":
                base, part = candidate, suffix[1:]
                break
        kind = kinds.get(base)
        if kind is None:
            raise ValueError(f"sample {sample!r} has no # TYPE line")

        if kind == "histogram":
            le = labels.pop("le", None)
            key = _label_key(labels)
            state = hist.setdefault(
                (base, key), {"bounds": [], "cum": [], "sum": 0.0, "count": 0}
            )
            if part == "bucket":
                if le is None:
                    raise ValueError(f"histogram bucket without le: {raw!r}")
                if le != "+Inf":
                    state["bounds"].append(float(le))
                    state["cum"].append(int(value))
            elif part == "sum":
                state["sum"] = value
            elif part == "count":
                state["count"] = int(value)
        elif kind == "counter":
            registry.inc(base, value, help=helps.get(base, ""), **labels)
        elif kind == "gauge":
            registry.set(base, value, help=helps.get(base, ""), **labels)
        else:
            raise ValueError(f"unsupported metric kind {kind!r} for {base!r}")

    for (name, key), state in hist.items():
        bounds = tuple(state["bounds"])
        fam = registry._family(
            name, "histogram", helps.get(name, ""), bounds or None
        )
        value = HistogramValue.empty(fam.buckets)
        previous = 0
        for i, cum in enumerate(state["cum"]):
            value.counts[i] = cum - previous
            previous = cum
        value.counts[-1] = state["count"] - previous
        value.total = state["sum"]
        value.count = state["count"]
        fam.series[key] = value
    return registry


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def default_snapshot_path() -> Path:
    """``metrics.prom`` under the persistent cache root."""
    from ..runtime.cache import cache_dir

    return cache_dir() / "metrics.prom"


def write_prometheus(registry: MetricsRegistry, path=None) -> Path:
    """Write the Prometheus text exposition atomically; returns the path."""
    path = path or default_snapshot_path()
    return atomic_write_text(path, prometheus_text(registry))


def load_metrics_snapshot(path) -> Optional[MetricsRegistry]:
    """The registry a :func:`write_prometheus` file holds (``None`` on a miss).

    A missing, unreadable or malformed file is a miss.
    """
    try:
        return parse_prometheus_text(Path(path).read_text())
    except (OSError, ValueError, OverflowError):  # int("+Inf") overflows
        return None
