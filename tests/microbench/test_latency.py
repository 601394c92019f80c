"""Latency microbenchmarks vs Table III, Figure 1, Figure 2."""

import dataclasses

import pytest

from repro.gpu import G80, QUADRO_6000
from repro.microbench import (
    measure_shared_latency,
    measure_sync_latency,
    plateau_latency,
    sweep_global_latency,
    sweep_sync_latency,
)


class TestSharedLatency:
    def test_gf100_byte_variant_is_27(self):
        res = measure_shared_latency(QUADRO_6000)
        assert res.byte_variant_cycles == 27

    def test_int_and_byte_variants_agree(self):
        # Section II-C1: "our byte pointer chasing benchmark yields the
        # exact same results as our other approach".
        res = measure_shared_latency(QUADRO_6000)
        assert res.int_variant_cycles == res.byte_variant_cycles

    def test_combined_shift_plus_load_is_45(self):
        res = measure_shared_latency(QUADRO_6000)
        assert res.combined_cycles == 45

    def test_generic_ld_penalty_is_14(self):
        res = measure_shared_latency(QUADRO_6000)
        assert res.generic_ld_penalty == 14

    def test_methodology_reproduces_volkov_on_g80(self):
        res = measure_shared_latency(G80)
        assert res.latency_cycles == 36

    def test_tiny_array_rejected(self):
        with pytest.raises(ValueError):
            measure_shared_latency(QUADRO_6000, words=1)


#: Every ``ChaseResult`` field of the default Figure-1 sweep: (stride_words,
#: hops, avg_latency_cycles, l1/l2/row/tlb hit rates).  The fig1 artefact
#: keeps only the latencies, so this pins the hit rates behind them.
FIG1_CHASES = (
    (1, 512, 107.00390625, 0.96875, 0.0, 0.998046875, 1.0),
    (2, 512, 118.0078125, 0.9375, 0.0, 0.99609375, 1.0),
    (4, 512, 140.015625, 0.875, 0.0, 0.9921875, 1.0),
    (8, 512, 184.03125, 0.75, 0.0, 0.984375, 1.0),
    (16, 512, 272.0625, 0.5, 0.0, 0.96875, 1.0),
    (32, 512, 448.2421875, 0.0, 0.0, 0.9375, 0.998046875),
    (64, 512, 456.484375, 0.0, 0.0, 0.875, 0.99609375),
    (128, 512, 472.96875, 0.0, 0.0, 0.75, 0.9921875),
    (256, 512, 505.9375, 0.0, 0.0, 0.5, 0.984375),
    (512, 512, 571.875, 0.0, 0.0, 0.0, 0.96875),
    (1024, 512, 573.75, 0.0, 0.0, 0.0, 0.9375),
    (2048, 512, 577.5, 0.0, 0.0, 0.0, 0.875),
    (4096, 512, 585.0, 0.0, 0.0, 0.0, 0.75),
    (8192, 512, 600.0, 0.0, 0.0, 0.0, 0.5),
    (16384, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
    (32768, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
    (65536, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
    (131072, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
    (262144, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
    (524288, 512, 630.0, 0.0, 0.0, 0.0, 0.0),
)

#: Every ``ChaseResult`` field of :func:`plateau_latency`'s chase (stride
#: 2048 words, 1024 measured hops after a 1024-hop warmup), the one walk
#: that calibration runs; and Table III's "Global memory" value.
PLATEAU_CHASE = (2048, 1024, 577.5, 0.0, 0.0, 0.0, 0.875)
TABLE3_GLOBAL = 577.5


class TestGlobalLatency:
    def test_default_sweep_is_pinned(self):
        sweep = sweep_global_latency(QUADRO_6000)
        assert sweep.array_words == 64 * 1024 * 1024
        got = tuple(dataclasses.astuple(r) for r in sweep.results)
        assert got == FIG1_CHASES

    def test_plateau_near_570(self):
        assert plateau_latency(QUADRO_6000) == pytest.approx(570, rel=0.02)

    def test_plateau_chase_is_pinned(self):
        from repro.gpu import MemorySystem
        from repro.microbench.global_latency import DEFAULT_ARRAY_WORDS
        from repro.reporting import run_experiment

        chase = MemorySystem(QUADRO_6000).chase(2048, DEFAULT_ARRAY_WORDS, hops=1024)
        assert dataclasses.astuple(chase) == PLATEAU_CHASE
        assert plateau_latency(QUADRO_6000) == PLATEAU_CHASE[2]
        assert run_experiment("table3").data["Global memory"] == TABLE3_GLOBAL

    def test_sweep_is_broadly_increasing(self):
        sweep = sweep_global_latency(
            QUADRO_6000, strides=[1, 8, 64, 512, 4096, 1 << 15], hops=256
        )
        lats = sweep.latencies
        assert lats[0] < 160
        assert lats[-1] > 600
        assert all(b >= a - 1e-9 for a, b in zip(lats, lats[1:]))

    def test_series_axes_are_log2(self):
        sweep = sweep_global_latency(QUADRO_6000, strides=[1, 2, 4], hops=64)
        assert [x for x, _ in sweep.series()] == [0, 1, 2]

    def test_figure1_range_matches_paper(self):
        # Figure 1's y-axis spans ~0-600 cycles.
        sweep = sweep_global_latency(
            QUADRO_6000, strides=[1, 1 << 10, 1 << 16], hops=256
        )
        assert max(sweep.latencies) < 700
        assert min(sweep.latencies) > 50


class TestSyncLatency:
    def test_64_threads_is_46_cycles(self):
        assert measure_sync_latency(QUADRO_6000, 64) == 46

    def test_sweep_monotone(self):
        sweep = sweep_sync_latency(QUADRO_6000, thread_counts=range(32, 513, 32))
        assert list(sweep.latencies) == sorted(sweep.latencies)

    def test_sweep_lookup(self):
        sweep = sweep_sync_latency(QUADRO_6000, thread_counts=[64, 128])
        assert sweep.at(64) == 46
        with pytest.raises(KeyError):
            sweep.at(96)

    def test_figure2_magnitude(self):
        sweep = sweep_sync_latency(QUADRO_6000, thread_counts=[1024])
        assert 150 <= sweep.latencies[0] <= 200

    def test_series_shape(self):
        sweep = sweep_sync_latency(QUADRO_6000, thread_counts=[64, 128])
        assert sweep.series() == [(64, 46.0), (128, sweep.at(128))]
