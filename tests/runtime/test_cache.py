"""Persistent calibration/dispatch caches: round trips and invalidation."""

import dataclasses
import json

import pytest

import repro.runtime.cache as cache_mod
from repro.approaches import Workload, best_approach, rank_approaches
from repro.gpu.device import G80, QUADRO_6000
from repro.microbench import calibrate
from repro.observe import tracing
from repro.observe.metrics import (
    MetricsRegistry,
    set_default_registry,
    set_metrics_enabled,
)
from repro.runtime import CalibrationCache, DispatchCache, device_fingerprint
from repro.runtime.cache import params_fingerprint


def _calibrate_spans(tracer):
    return [e for e in tracer.events if e.name == "calibrate" and e.ph == "X"]


@pytest.fixture
def metrics_registry():
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    previous_flag = set_metrics_enabled(True)
    yield registry
    set_default_registry(previous)
    set_metrics_enabled(previous_flag)


class TestCalibrationCache:
    def test_cold_load_is_none(self, tmp_path):
        assert CalibrationCache(tmp_path).load(QUADRO_6000) is None

    def test_round_trip(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        params = calibrate(QUADRO_6000)
        path = cache.store(QUADRO_6000, params)
        assert path.exists()
        loaded = cache.load(QUADRO_6000)
        assert loaded == params

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_keyed_by_device(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        assert cache.load(G80) is None
        assert cache.path_for(G80) != cache.path_for(QUADRO_6000)

    def test_invalidated_on_version_change(self, tmp_path, monkeypatch):
        cache = CalibrationCache(tmp_path)
        cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        assert cache.load(QUADRO_6000) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        path = cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        path.write_text("{ truncated")
        assert cache.load(QUADRO_6000) is None

    def test_tampered_parameters_are_a_miss(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        path = cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        doc = json.loads(path.read_text())
        del doc["parameters"]["gamma"]
        path.write_text(json.dumps(doc))
        assert cache.load(QUADRO_6000) is None

    def test_fingerprint_tracks_spec_fields(self):
        tweaked = dataclasses.replace(QUADRO_6000, l2_bytes=1024)
        assert device_fingerprint(tweaked) != device_fingerprint(QUADRO_6000)

    def test_fingerprint_memoized_per_spec(self):
        # An equal spec shares the memoized digest, not just its value.
        base = device_fingerprint(QUADRO_6000)
        assert device_fingerprint(dataclasses.replace(QUADRO_6000)) is base
        for field in dataclasses.fields(QUADRO_6000):
            value = getattr(QUADRO_6000, field.name)
            changed = value + "x" if isinstance(value, str) else value + 1
            tweaked = dataclasses.replace(QUADRO_6000, **{field.name: changed})
            assert device_fingerprint(tweaked) != base, field.name


class TestJsonStoreStatus:
    def test_miss_then_hit_then_stale(self, tmp_path):
        store = cache_mod._JsonStore(tmp_path / "doc.json")
        assert store.load_status() == (None, "miss")

        store.store({"x": 1})
        doc, outcome = store.load_status()
        assert outcome == "hit" and doc["x"] == 1

        store.path.write_text("{ truncated")
        assert store.load_status() == (None, "miss")

    def test_binary_garbage_is_a_miss_not_an_exception(self, tmp_path):
        store = cache_mod._JsonStore(tmp_path / "doc.json")
        store.path.write_bytes(b"\x80\x81\xfe\xff not json at all")
        assert store.load_status() == (None, "miss")

    def test_foreign_version_is_stale_not_miss(self, tmp_path):
        store = cache_mod._JsonStore(tmp_path / "doc.json")
        store.store({"x": 1})
        doc = json.loads(store.path.read_text())
        doc["version"] = "0.0.0/schema0"
        store.path.write_text(json.dumps(doc))
        assert store.load_status() == (None, "stale")


class TestParamsFingerprint:
    def test_stable_across_recalibration(self):
        assert params_fingerprint(calibrate(QUADRO_6000)) == params_fingerprint(
            calibrate(QUADRO_6000)
        )

    def test_tracks_measured_values(self):
        params = calibrate(QUADRO_6000)
        tweaked = dataclasses.replace(params, gamma=params.gamma * 2)
        assert params_fingerprint(tweaked) != params_fingerprint(params)

    def test_tracks_device(self):
        assert params_fingerprint(calibrate(G80)) != params_fingerprint(
            calibrate(QUADRO_6000)
        )


class TestCalibrateWithCache:
    def test_cold_measures_then_warm_skips(self, tmp_path):
        cache = CalibrationCache(tmp_path)
        with tracing() as cold:
            measured = calibrate(QUADRO_6000, cache=cache)
        assert len(_calibrate_spans(cold)) == 1

        with tracing() as warm:
            loaded = calibrate(QUADRO_6000, cache=cache)
        assert len(_calibrate_spans(warm)) == 0
        assert any(e.name == "calibrate.cache_hit" for e in warm.events)
        assert loaded == measured

    def test_cache_false_always_measures(self, tmp_path):
        with tracing() as tracer:
            calibrate(QUADRO_6000, cache=False)
            calibrate(QUADRO_6000, cache=False)
        assert len(_calibrate_spans(tracer)) == 2


class TestDispatchCache:
    def work(self):
        return Workload.square("qr", 56, 5000)

    def test_round_trip_matches_uncached(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        uncached = rank_approaches(self.work())
        first = rank_approaches(self.work(), cache=cache)
        second = rank_approaches(self.work(), cache=cache)
        names = [r.name for r in uncached]
        assert [r.name for r in first] == names
        assert [r.name for r in second] == names
        assert [r.gflops for r in second] == [r.gflops for r in uncached]
        assert cache.hits == 1 and cache.misses == 1

    def test_persists_across_instances(self, tmp_path):
        rank_approaches(self.work(), cache=DispatchCache(directory=tmp_path))
        fresh = DispatchCache(directory=tmp_path)
        assert fresh.lookup(self.work()) is not None

    def test_unknown_candidate_names_force_recompute(self, tmp_path):
        from repro.approaches import PerBlockApproach, PerThreadApproach

        cache = DispatchCache(directory=tmp_path)
        rank_approaches(self.work(), cache=cache)
        # A restricted roster no longer contains every cached name: the
        # entry must not leak approaches the caller did not supply.
        limited = rank_approaches(
            self.work(), [PerThreadApproach(), PerBlockApproach()], cache=cache
        )
        assert {r.name for r in limited} <= {"per-thread", "per-block"}

    def test_keys_include_batch_and_size(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        small = Workload.square("qr", 8, 100)
        big = Workload.square("qr", 56, 100000)
        assert cache.key(small) != cache.key(big)

    def test_best_approach_accepts_cache(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        winner = best_approach(self.work(), cache=cache)
        assert winner.name == best_approach(self.work(), cache=cache).name
        assert cache.hits == 1

    def test_version_change_invalidates_disk(self, tmp_path, monkeypatch):
        rank_approaches(self.work(), cache=DispatchCache(directory=tmp_path))
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        fresh = DispatchCache(directory=tmp_path)
        assert len(fresh) == 0

    def test_cache_hit_traced(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        rank_approaches(self.work(), cache=cache)
        with tracing() as tracer:
            rank_approaches(self.work(), cache=cache)
        assert any(e.name == "dispatch.cache_hit" for e in tracer.events)
        assert tracer.counters.value("dispatch.cache_hits") == 1

    def test_bind_params_scopes_keys(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        unbound_key = cache.key(self.work())
        assert unbound_key.endswith(":punbound")

        params = calibrate(QUADRO_6000)
        cache.bind_params(params)
        bound_key = cache.key(self.work())
        assert bound_key != unbound_key
        assert bound_key.endswith(":p" + params_fingerprint(params)[:12])

        cache.bind_params(None)
        assert cache.key(self.work()) == unbound_key

    def test_recalibration_invalidates_memos(self, tmp_path):
        # A ranking memoized under one set of Table-IV latencies must not
        # be served under another; rebinding the original restores it.
        cache = DispatchCache(directory=tmp_path)
        params = calibrate(QUADRO_6000)
        cache.bind_params(params)
        rank_approaches(self.work(), cache=cache)
        assert cache.lookup(self.work()) is not None

        cache.bind_params(dataclasses.replace(params, gamma=params.gamma * 2))
        assert cache.lookup(self.work()) is None

        cache.bind_params(params)
        assert cache.lookup(self.work()) is not None

    def test_undecodable_entry_counts_as_stale(self, tmp_path):
        cache = DispatchCache(directory=tmp_path)
        rank_approaches(self.work(), cache=cache)
        doc = json.loads(cache.path.read_text())
        doc["entries"][cache.key(self.work())] = 123  # not a ranking list
        cache.path.write_text(json.dumps(doc))

        fresh = DispatchCache(directory=tmp_path)
        assert fresh.lookup(self.work()) is None
        assert fresh.stale == 1
        assert fresh.misses == 1
        assert fresh.hits == 0


class TestCacheMetrics:
    def test_calibration_outcomes_counted(self, tmp_path, metrics_registry):
        cache = CalibrationCache(tmp_path)
        cache.load(QUADRO_6000)  # cold: miss
        cache.store(QUADRO_6000, calibrate(QUADRO_6000))
        cache.load(QUADRO_6000)  # warm: hit
        cache.path_for(QUADRO_6000).write_text("{ truncated")
        cache.load(QUADRO_6000)  # corrupt: cold miss + corrupt counter

        def requests(outcome):
            return metrics_registry.value(
                "repro_cache_requests_total", cache="calibration", outcome=outcome
            )

        assert requests("miss") == 2
        assert requests("hit") == 1
        assert metrics_registry.value(
            "repro_cache_corrupt_total", cache="calibration"
        ) == 1
        assert metrics_registry.value(
            "repro_cache_writes_total", cache="calibration"
        ) == 1

    def test_dispatch_outcomes_counted(self, tmp_path, metrics_registry):
        cache = DispatchCache(directory=tmp_path)
        work = Workload.square("qr", 56, 5000)
        rank_approaches(work, cache=cache)  # miss, then store
        rank_approaches(work, cache=cache)  # hit

        def requests(outcome):
            return metrics_registry.value(
                "repro_cache_requests_total", cache="dispatch", outcome=outcome
            )

        assert requests("miss") == 1
        assert requests("hit") == 1
        assert metrics_registry.value(
            "repro_cache_writes_total", cache="dispatch"
        ) == 1
        assert metrics_registry.value(
            "repro_dispatch_rankings_total", op="qr", outcome="computed"
        ) == 1
        assert metrics_registry.value(
            "repro_dispatch_rankings_total", op="qr", outcome="cache-hit"
        ) == 1
