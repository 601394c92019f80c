"""Fleet metrics registry: semantics, merge parity, exposition."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    counter_inc,
    default_snapshot_path,
    gauge_set,
    histogram_observe,
    load_metrics_snapshot,
    parse_prometheus_text,
    prometheus_text,
    set_default_registry,
    set_metrics_enabled,
    write_prometheus,
)

GOLDEN = Path(__file__).parent / "golden_metrics.prom"


def golden_registry() -> MetricsRegistry:
    """The registry state pinned byte-for-byte by ``golden_metrics.prom``."""
    reg = MetricsRegistry()
    reg.inc(
        "repro_cache_requests_total", 3, help="Cache lookups by outcome.",
        cache="dispatch", outcome="hit",
    )
    reg.inc("repro_cache_requests_total", 1, cache="dispatch", outcome="miss")
    reg.inc("repro_cache_requests_total", 2, cache="calibration", outcome="hit")
    reg.set("repro_runtime_workers", 4, help="Configured pool size.")
    reg.set("repro_regime_share", 0.625, regime="compute-bound", op="qr")
    for value in (0.25, 0.75, 2.5):
        reg.observe(
            "repro_chunk_wall_seconds", value, help="Chunk wall time.",
            buckets=(0.5, 1.0), op="lu",
        )
    return reg


@pytest.fixture
def fresh_default():
    """A clean process-default registry with metrics forced on."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    previous_flag = set_metrics_enabled(True)
    yield registry
    set_default_registry(previous)
    set_metrics_enabled(previous_flag)


class TestCounter:
    def test_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("requests", 2, op="lu")
        reg.inc("requests", 3, op="lu")
        reg.inc("requests", op="qr")
        assert reg.value("requests", op="lu") == 5.0
        assert reg.value("requests", op="qr") == 1.0
        assert reg.value("requests", op="cholesky") == 0.0

    def test_negative_increment_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.inc("requests", -1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError, match="is a counter"):
            reg.set("x", 1.0)
        with pytest.raises(ValueError, match="is a counter"):
            reg.observe("x", 1.0)

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().inc("bad name")


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set("workers", 2)
        reg.set("workers", 4)
        assert reg.value("workers") == 4.0

    def test_nonfinite_value_ignored(self):
        reg = MetricsRegistry()
        reg.set("gflops", 100.0)
        reg.set("gflops", math.nan)
        reg.set("gflops", math.inf)
        assert reg.value("gflops") == 100.0


class TestHistogram:
    def test_bucket_placement_and_totals(self):
        reg = MetricsRegistry()
        for v in (0.25, 0.5, 0.75, 2.5):
            reg.observe("wall", v, buckets=(0.5, 1.0))
        hist = reg.histogram_value("wall")
        assert hist.counts == [2, 1, 1]  # le=0.5 inclusive, then le=1, +Inf
        assert hist.cumulative() == [2, 3]
        assert hist.count == 4
        assert hist.total == pytest.approx(4.0)

    def test_default_buckets_used_when_unspecified(self):
        reg = MetricsRegistry()
        reg.observe("wall", 0.1)
        assert reg.histogram_value("wall").buckets == DEFAULT_BUCKETS

    def test_fixed_buckets_enforced(self):
        reg = MetricsRegistry()
        reg.observe("wall", 0.1, buckets=(0.5, 1.0))
        with pytest.raises(ValueError, match="fixed buckets"):
            reg.observe("wall", 0.1, buckets=(0.25, 1.0))

    def test_non_increasing_buckets_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="increasing"):
            reg.observe("wall", 0.1, buckets=(1.0, 0.5))

    def test_nonfinite_observation_ignored(self):
        reg = MetricsRegistry()
        reg.observe("wall", math.nan, buckets=(1.0,))
        reg.observe("wall", 0.5, buckets=(1.0,))
        assert reg.histogram_value("wall").count == 1


class TestMerge:
    def test_worker_fold_matches_sequential_recording(self):
        # The runtime folds per-worker registries in submission order;
        # the result must be indistinguishable from recording everything
        # in one registry -- checked through the byte-stable exposition.
        sequential = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        for i, worker in enumerate(workers):
            for reg in (sequential, worker):
                reg.inc("chunks_total", 1, op="lu")
                reg.inc("problems_total", 10 * (i + 1), op="lu")
                reg.observe("wall", 0.1 * (i + 1), buckets=(0.15, 0.25))
                reg.set("workers", i)
        launch = MetricsRegistry()
        for worker in workers:
            launch.merge(worker)
        assert prometheus_text(launch) == prometheus_text(sequential)

    def test_merge_into_empty_copies_everything(self):
        launch = MetricsRegistry()
        launch.merge(golden_registry())
        assert prometheus_text(launch) == prometheus_text(golden_registry())

    def test_histogram_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("wall", 0.1, buckets=(0.5,))
        b.observe("wall", 0.1, buckets=(1.0,))
        with pytest.raises(ValueError, match="fixed buckets"):
            a.merge(b)


class TestReading:
    def test_sum_series_matches_label_subset(self):
        reg = golden_registry()
        assert reg.sum_series("repro_cache_requests_total", cache="dispatch") == 4.0
        assert reg.sum_series("repro_cache_requests_total", outcome="hit") == 5.0
        assert reg.sum_series("repro_cache_requests_total") == 6.0
        assert reg.sum_series("absent") == 0.0

    def test_label_values_sorted_distinct(self):
        reg = golden_registry()
        assert reg.label_values("repro_cache_requests_total", "cache") == [
            "calibration", "dispatch",
        ]
        assert reg.label_values("repro_cache_requests_total", "nope") == []
        assert reg.label_values("absent", "cache") == []

    def test_kind_contains_len(self):
        reg = golden_registry()
        assert reg.kind("repro_cache_requests_total") == "counter"
        assert reg.kind("repro_runtime_workers") == "gauge"
        assert reg.kind("repro_chunk_wall_seconds") == "histogram"
        assert reg.kind("absent") is None
        assert "repro_runtime_workers" in reg
        assert len(reg) == 4


# Registries of every kind with hostile help and label text.  Family
# names carry their index so no family is named like another's
# ``_bucket``/``_sum``/``_count`` sample, and histogram series take no
# ``le`` label: the exposition format reserves both.
_TEXT = st.text(max_size=12)
_LABEL_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)
_LABELS = st.dictionaries(_LABEL_NAMES.filter(lambda s: s != "le"), _TEXT, max_size=3)
_FINITE = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e17, max_value=1e17
)
_BUCKETS = st.lists(_FINITE, min_size=1, max_size=5, unique=True).map(sorted)


@st.composite
def registries(draw):
    reg = MetricsRegistry()
    for i in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
        name = f"m{i}_" + draw(st.from_regex(r"[a-z0-9_:]{0,6}", fullmatch=True))
        help_text = draw(_TEXT)
        buckets = draw(st.one_of(st.none(), _BUCKETS))
        for _ in range(draw(st.integers(1, 3))):
            labels = draw(_LABELS)
            if kind == "counter":
                reg.inc(name, draw(st.floats(0, 1e17)), help=help_text, **labels)
            elif kind == "gauge":
                reg.set(name, draw(_FINITE), help=help_text, **labels)
            else:
                for value in draw(st.lists(_FINITE, min_size=1, max_size=4)):
                    reg.observe(
                        name, value, help=help_text, buckets=buckets, **labels
                    )
    return reg


class TestSnapshot:
    """``metrics.prom`` is the one metrics file: its exposition rebuilds
    the registry exactly."""

    @settings(max_examples=200, deadline=None)
    @given(registries())
    def test_round_trip_preserves_exposition(self, reg):
        rebuilt = parse_prometheus_text(prometheus_text(reg))
        assert rebuilt.families() == reg.families()
        for name in reg.families():
            want, got = reg._families[name], rebuilt._families[name]
            assert (got.kind, got.help, got.buckets) == (
                want.kind, want.help, want.buckets
            )
            assert got.series.keys() == want.series.keys()
            for key, value in want.series.items():
                if want.kind == "histogram":
                    back = got.series[key]
                    assert (back.counts, back.total, back.count) == (
                        value.counts, value.total, value.count
                    )
                else:
                    assert got.series[key] == value

    def test_write_and_load_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(golden_registry(), path)
        loaded = load_metrics_snapshot(path)
        assert prometheus_text(loaded) == prometheus_text(golden_registry())

    def test_default_path_is_the_prom_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_snapshot_path() == tmp_path / "metrics.prom"
        assert write_prometheus(golden_registry()) == tmp_path / "metrics.prom"

    def test_load_missing_or_corrupt_is_none(self, tmp_path):
        assert load_metrics_snapshot(tmp_path / "absent.prom") is None
        bad = tmp_path / "bad.prom"
        bad.write_text("# TYPE x counter\nx{oops 1\n")
        assert load_metrics_snapshot(bad) is None
        bad.write_text("# TYPE h histogram\nh_count +Inf\n")
        assert load_metrics_snapshot(bad) is None

    def test_load_wrong_schema_is_none(self, tmp_path):
        # A JSON snapshot left by an older version is not an exposition.
        path = tmp_path / "metrics.json"
        path.write_text('{"schema": 1, "families": {}}')
        assert load_metrics_snapshot(path) is None


class TestExposition:
    def test_matches_golden_file(self):
        assert prometheus_text(golden_registry()) == GOLDEN.read_text()

    def test_parse_round_trips_byte_exact(self):
        text = prometheus_text(golden_registry())
        assert prometheus_text(parse_prometheus_text(text)) == text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("odd_labels", 1, device='Quadro "6000"\\v2', note="two\nlines")
        text = prometheus_text(reg)
        assert prometheus_text(parse_prometheus_text(text)) == text

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus_text("# TYPE x counter\nx{oops 1\n")

    def test_sample_without_type_raises(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus_text("mystery_metric 1\n")


class TestDefaultRegistry:
    def test_helpers_record_when_enabled(self, fresh_default):
        counter_inc("c_total", 2, op="lu")
        gauge_set("g", 7.0)
        histogram_observe("h", 0.5, buckets=(1.0,))
        assert fresh_default.value("c_total", op="lu") == 2.0
        assert fresh_default.value("g") == 7.0
        assert fresh_default.histogram_value("h").count == 1

    def test_helpers_noop_when_disabled(self, fresh_default):
        set_metrics_enabled(False)
        counter_inc("c_total")
        gauge_set("g", 1.0)
        histogram_observe("h", 0.5)
        assert len(fresh_default) == 0

    def test_set_default_registry_swaps_and_returns(self, fresh_default):
        other = MetricsRegistry()
        previous = set_default_registry(other)
        try:
            assert previous is fresh_default
            counter_inc("c_total")
            assert other.value("c_total") == 1.0
            assert fresh_default.value("c_total") == 0.0
        finally:
            set_default_registry(previous)

    def test_set_metrics_enabled_returns_previous(self, fresh_default):
        assert set_metrics_enabled(False) is True
        assert set_metrics_enabled(True) is False


class TestHistogramQuantile:
    """Bucket-interpolated quantiles against known distributions."""

    def _uniform_registry(self):
        # 100 observations spread uniformly over (0, 1]: with the
        # default buckets this fills each bucket proportionally.
        registry = MetricsRegistry()
        for i in range(100):
            registry.observe("h", (i + 0.5) / 100.0, op="lu")
        return registry

    def test_median_of_uniform_0_1(self):
        registry = self._uniform_registry()
        median = registry.histogram_quantile("h", 0.5, op="lu")
        # True median is 0.5, which is also a bucket bound.
        assert median == pytest.approx(0.5, abs=0.02)

    def test_p95_and_p99_of_uniform_0_1(self):
        registry = self._uniform_registry()
        assert registry.histogram_quantile("h", 0.95, op="lu") == pytest.approx(
            0.95, abs=0.03
        )
        assert registry.histogram_quantile("h", 0.99, op="lu") == pytest.approx(
            0.99, abs=0.03
        )

    def test_extremes(self):
        registry = self._uniform_registry()
        assert registry.histogram_quantile("h", 0.0, op="lu") == pytest.approx(
            0.0, abs=0.011
        )
        assert registry.histogram_quantile("h", 1.0, op="lu") == pytest.approx(
            1.0, abs=0.01
        )

    def test_point_mass_interpolates_within_its_bucket(self):
        registry = MetricsRegistry()
        for _ in range(10):
            registry.observe("h", 0.03)  # all in the (0.025, 0.05] bucket
        # Uniform-within-bucket assumption: quantiles interpolate the
        # bucket span linearly.
        assert registry.histogram_quantile("h", 0.5) == pytest.approx(0.0375)
        assert registry.histogram_quantile("h", 1.0) == pytest.approx(0.05)

    def test_first_bucket_lower_bound_is_zero(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.0005)
        registry.observe("h", 0.0007)
        q = registry.histogram_quantile("h", 0.5)
        assert 0.0 <= q <= DEFAULT_BUCKETS[0]

    def test_overflow_bucket_clamps_to_highest_bound(self):
        registry = MetricsRegistry()
        registry.observe("h", 99.0)
        assert registry.histogram_quantile("h", 0.5) == DEFAULT_BUCKETS[-1]

    def test_absent_series_returns_none(self):
        registry = MetricsRegistry()
        assert registry.histogram_quantile("h", 0.5) is None
        registry.observe("h", 0.1, op="lu")
        assert registry.histogram_quantile("h", 0.5, op="qr") is None

    def test_invalid_q_raises(self):
        registry = self._uniform_registry()
        with pytest.raises(ValueError):
            registry.histogram_quantile("h", 1.5, op="lu")

    def test_quantiles_survive_merge(self):
        a = self._uniform_registry()
        b = self._uniform_registry()
        a.merge(b)
        # Doubling every bucket count leaves the distribution unchanged.
        assert a.histogram_quantile("h", 0.95, op="lu") == pytest.approx(
            0.95, abs=0.03
        )

    def test_monotone_in_q(self):
        registry = self._uniform_registry()
        values = [
            registry.histogram_quantile("h", q, op="lu")
            for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        ]
        assert values == sorted(values)


class TestQuantileEdgeCases:
    """Degenerate histograms: empty, overflow-only, and the q bounds."""

    def test_empty_histogram_value_is_none_for_any_q(self):
        from repro.observe.metrics import HistogramValue

        hist = HistogramValue.empty(DEFAULT_BUCKETS)
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) is None

    def test_all_mass_in_overflow_clamps_every_q(self):
        # With every observation past the last finite bound there is
        # nothing to interpolate toward: any quantile reports the
        # highest finite bound, including both extremes.
        registry = MetricsRegistry()
        for _ in range(5):
            registry.observe("h", DEFAULT_BUCKETS[-1] * 10)
        for q in (0.0, 0.25, 1.0):
            assert registry.histogram_quantile("h", q) == DEFAULT_BUCKETS[-1]

    def test_q0_is_bucket_lower_bound(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.03)  # lone observation in (0.025, 0.05]
        assert registry.histogram_quantile("h", 0.0) == pytest.approx(0.025)

    def test_q1_is_bucket_upper_bound(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.03)
        assert registry.histogram_quantile("h", 1.0) == pytest.approx(0.05)

    def test_single_observation_median(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.03)
        # rank = 0.5 of one observation interpolates mid-bucket.
        assert registry.histogram_quantile("h", 0.5) == pytest.approx(0.0375)


class TestLabelEscaping:
    """Exposition-format label escaping survives a write/parse cycle."""

    def test_known_escapes(self):
        from repro.observe.metrics import _escape_label, _unescape_label

        assert _escape_label('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        assert _unescape_label('a\\\\b\\"c\\nd') == 'a\\b"c\nd'

    def test_escape_round_trips_hostile_values(self):
        from hypothesis import given
        from hypothesis import strategies as st

        from repro.observe.metrics import _escape_label, _unescape_label

        hostile = st.text(
            alphabet=st.sampled_from(list('\\"\n') + list("abc123 _-")),
            max_size=40,
        )

        @given(hostile)
        def round_trips(value):
            assert _unescape_label(_escape_label(value)) == value
            # The escaped form never contains a raw newline or quote,
            # so the exposition line stays parseable.
            escaped = _escape_label(value)
            assert "\n" not in escaped

        round_trips()

    def test_escaped_labels_survive_exposition_parse(self):
        registry = MetricsRegistry()
        registry.inc("requests", 2, op='lu\\qr "quoted"\nline')
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert parsed.sum_series("requests", op='lu\\qr "quoted"\nline') == 2


class TestMergedHistogram:
    def test_merges_matching_series_exactly(self):
        registry = MetricsRegistry()
        for value in (0.25, 0.75):
            registry.observe("h", value, buckets=(0.5, 1.0), op="lu")
        registry.observe("h", 0.25, buckets=(0.5, 1.0), op="qr")
        merged = registry.merged_histogram("h")
        assert merged is not None
        assert merged.count == 3
        assert merged.total == pytest.approx(1.25)
        narrowed = registry.merged_histogram("h", op="lu")
        assert narrowed.count == 2

    def test_absent_or_wrong_kind_is_none(self):
        registry = MetricsRegistry()
        assert registry.merged_histogram("h") is None
        registry.inc("requests", 1, op="lu")
        assert registry.merged_histogram("requests") is None
        registry.observe("h", 0.1, op="lu")
        assert registry.merged_histogram("h", op="qr") is None

    def test_merge_does_not_mutate_sources(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.25, buckets=(0.5, 1.0), op="lu")
        registry.observe("h", 0.75, buckets=(0.5, 1.0), op="qr")
        before = registry.histogram_value("h", op="lu").count
        registry.merged_histogram("h")
        assert registry.histogram_value("h", op="lu").count == before
