"""Composed memory-hierarchy behaviour: Table II/III and Figure 1 shapes."""

import pytest

from repro.gpu import QUADRO_6000, DramModel, MemorySystem

ARRAY_WORDS = 64 * 1024 * 1024  # the paper chases through up to 64M words


@pytest.fixture(scope="module")
def ms():
    return MemorySystem(QUADRO_6000)


class TestBandwidth:
    def test_copy_bandwidth_near_paper_108(self, ms):
        gbs = ms.stream_bandwidth("copy") / 1e9
        assert gbs == pytest.approx(108, rel=0.05)

    def test_memcpy_bandwidth_near_paper_84(self, ms):
        gbs = ms.stream_bandwidth("memcpy") / 1e9
        assert gbs == pytest.approx(84, rel=0.05)

    def test_copy_is_about_75_percent_of_peak(self, ms):
        eff = ms.stream_bandwidth("copy") / QUADRO_6000.global_bandwidth
        assert eff == pytest.approx(0.75, abs=0.03)

    def test_read_beats_copy_beats_memcpy(self, ms):
        read = ms.stream_bandwidth("read")
        copy = ms.stream_bandwidth("copy")
        memcpy = ms.stream_bandwidth("memcpy")
        assert read > copy > memcpy

    def test_nothing_exceeds_pin_bandwidth(self, ms):
        for kind in ("read", "copy", "memcpy"):
            assert ms.stream_bandwidth(kind) < QUADRO_6000.global_bandwidth

    def test_unknown_kind_rejected(self, ms):
        with pytest.raises(ValueError):
            ms.stream_bandwidth("teleport")


class TestChaseLatency:
    def test_row_miss_plateau_is_570(self, ms):
        # Table III: global latency 570 cycles (stride past the row size,
        # working set within TLB reach).
        r = ms.chase(2048, ARRAY_WORDS, hops=1024)
        assert r.avg_latency_cycles == pytest.approx(570, rel=0.02)

    def test_stride_one_is_cheap(self, ms):
        r = ms.chase(1, ARRAY_WORDS, hops=1024)
        assert r.avg_latency_cycles < 150
        assert r.l1_hit_rate > 0.9

    def test_latency_grows_with_stride(self, ms):
        lats = [
            ms.chase(s, ARRAY_WORDS, hops=512).avg_latency_cycles
            for s in (1, 8, 64, 512, 4096)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))

    def test_tlb_misses_at_huge_stride(self, ms):
        r = ms.chase(1 << 15, ARRAY_WORDS, hops=512)
        assert r.tlb_hit_rate < 0.05
        assert r.avg_latency_cycles > 600

    def test_figure1_dynamic_range(self, ms):
        # Figure 1 spans roughly 100 -> 600 cycles.
        low = ms.chase(1, ARRAY_WORDS, hops=512).avg_latency_cycles
        high = ms.chase(1 << 15, ARRAY_WORDS, hops=512).avg_latency_cycles
        assert high / low > 4

    def test_small_array_stays_cached(self, ms):
        # A 4KB working set lives in L1 after warmup: pure L1 latency.
        r = ms.chase(32, 1024, hops=256)
        assert r.avg_latency_cycles == pytest.approx(QUADRO_6000.l1_latency, rel=0.05)

    def test_l2_sized_working_set_hits_l2(self, ms):
        # Working set past L1 but within L2: latency near the L2 hit time.
        words = 512 * 1024 // 4  # 512 KB < 768 KB L2
        r = ms.chase(64, words, hops=2048)
        assert QUADRO_6000.l1_latency < r.avg_latency_cycles
        assert r.avg_latency_cycles <= QUADRO_6000.l2_latency * 1.1

    def test_invalid_args_rejected(self, ms):
        from repro.microbench import measure_global_latency

        with pytest.raises(ValueError):
            ms.chase(0, 1024)
        with pytest.raises(ValueError):
            ms.chase(1, 0)
        for hops in (0, -1):
            with pytest.raises(ValueError):
                ms.chase(32, 1 << 20, hops=hops)
        with pytest.raises(ValueError):
            ms.chase(32, 1 << 20, hops=10, warmup=-5)
        for word_bytes in (0, -4):
            with pytest.raises(ValueError, match="word_bytes"):
                ms.chase(32, 1 << 20, hops=10, word_bytes=word_bytes)
        with pytest.raises(ValueError):
            measure_global_latency(QUADRO_6000, 32, hops=0)


class TestBlockTransfer:
    def test_table_v_load_magnitude(self, ms):
        # Table V: a 56x56 SP matrix (12544 B) with 112 resident blocks
        # loads in ~8800-9100 cycles.
        cycles = ms.block_transfer_cycles(12544, concurrent_blocks=112)
        assert 8000 < cycles < 10000

    def test_scales_linearly_with_bytes(self, ms):
        one = ms.block_transfer_cycles(1000, 8)
        two = ms.block_transfer_cycles(2000, 8)
        assert two == pytest.approx(2 * one)

    def test_more_blocks_more_contention(self, ms):
        few = ms.block_transfer_cycles(4096, 8)
        many = ms.block_transfer_cycles(4096, 64)
        assert many > few

    def test_single_block_gets_full_bandwidth(self, ms):
        cycles = ms.block_transfer_cycles(4096, 1)
        expected = QUADRO_6000.seconds_to_cycles(4096 / ms.stream_bandwidth("copy"))
        assert cycles == pytest.approx(expected)

    def test_zero_blocks_rejected(self, ms):
        with pytest.raises(ValueError):
            ms.block_transfer_cycles(4096, 0)


class TestDramModel:
    def test_row_miss_costs_more_than_hit(self):
        d = DramModel(QUADRO_6000)
        assert d.access_latency(row_hit=False) > d.access_latency(row_hit=True)

    def test_row_miss_latency_is_global_latency(self):
        d = DramModel(QUADRO_6000)
        assert d.row_miss_latency == QUADRO_6000.global_latency

    def test_transfer_cycles_default_uses_copy_bandwidth(self):
        d = DramModel(QUADRO_6000)
        nbytes = 1 << 20
        expected = QUADRO_6000.seconds_to_cycles(nbytes / d.copy_bandwidth())
        assert d.transfer_cycles(nbytes) == pytest.approx(expected)
