"""Bandwidth microbenchmarks vs the paper's Table II."""

import pytest

from repro.gpu import G80, QUADRO_6000
from repro.microbench import measure_global_bandwidth, measure_shared_bandwidth


class TestSharedBandwidth:
    def test_total_matches_paper_880(self):
        res = measure_shared_bandwidth(QUADRO_6000)
        assert res.total_bandwidth / 1e9 == pytest.approx(880, rel=0.02)

    def test_per_sm_matches_paper_62_8(self):
        res = measure_shared_bandwidth(QUADRO_6000)
        assert res.per_sm_bandwidth / 1e9 == pytest.approx(62.8, rel=0.02)

    def test_efficiency_is_85_percent(self):
        res = measure_shared_bandwidth(QUADRO_6000)
        assert res.efficiency == pytest.approx(0.854, abs=0.01)

    def test_never_exceeds_theoretical_peak(self):
        res = measure_shared_bandwidth(QUADRO_6000)
        assert res.total_bandwidth < QUADRO_6000.peak_shared_bandwidth

    def test_deeper_unroll_is_more_efficient(self):
        shallow = measure_shared_bandwidth(QUADRO_6000, unroll=4)
        deep = measure_shared_bandwidth(QUADRO_6000, unroll=16)
        assert deep.efficiency > shallow.efficiency

    def test_partial_warp_thread_count_rejected(self):
        with pytest.raises(ValueError):
            measure_shared_bandwidth(QUADRO_6000, threads=100)

    def test_other_device_scales_with_banks_and_clock(self):
        g80 = measure_shared_bandwidth(G80, threads=128)
        q = measure_shared_bandwidth(QUADRO_6000, threads=128)
        assert g80.total_bandwidth != q.total_bandwidth
        assert g80.total_bandwidth < G80.peak_shared_bandwidth


class TestGlobalBandwidth:
    @pytest.mark.parametrize(
        "array_bytes", [16 * 1024 * 1024, 4 * 1003], ids=["default", "tail"]
    )
    def test_functional_copy_checks_out(self, array_bytes):
        # 1003 words over 8 unroll blocks leaves a 3-word tail.
        res = measure_global_bandwidth(QUADRO_6000, array_bytes=array_bytes)
        assert res.checksum_ok is True
        assert res.bytes_moved == 2 * array_bytes

    def test_copy_matches_paper_108(self):
        res = measure_global_bandwidth(QUADRO_6000)
        assert res.copy_bandwidth / 1e9 == pytest.approx(108, rel=0.05)

    def test_memcpy_matches_paper_84(self):
        res = measure_global_bandwidth(QUADRO_6000)
        assert res.memcpy_bandwidth / 1e9 == pytest.approx(84, rel=0.05)

    def test_copy_beats_memcpy(self):
        res = measure_global_bandwidth(QUADRO_6000)
        assert res.copy_bandwidth > res.memcpy_bandwidth

    def test_copy_efficiency_near_75_percent(self):
        res = measure_global_bandwidth(QUADRO_6000)
        assert res.copy_efficiency == pytest.approx(0.75, abs=0.04)

    def test_memcpy_efficiency_near_58_percent(self):
        res = measure_global_bandwidth(QUADRO_6000)
        assert res.memcpy_efficiency == pytest.approx(0.583, abs=0.04)

    def test_functional_copy_verified(self):
        assert measure_global_bandwidth(QUADRO_6000).checksum_ok

    def test_bytes_moved_counts_read_and_write(self):
        res = measure_global_bandwidth(QUADRO_6000, array_bytes=1 << 20)
        assert res.bytes_moved == 2 * (1 << 20)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            measure_global_bandwidth(QUADRO_6000, array_bytes=0)


class TestStreamingCopy:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("array_bytes", 0),
            ("array_bytes", -4),
            ("array_bytes", 3),
            ("array_bytes", 6),
            ("unroll", 0),
            ("unroll", -2),
        ],
    )
    def test_invalid_argument_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            measure_global_bandwidth(QUADRO_6000, **{name: value})

    def test_copy_holds_one_full_size_array(self, traced_peak):
        # The 16 MB destination plus one 2 MB unroll block of source; a
        # source and a mask beside the destination read 36 MB.
        assert traced_peak(lambda: measure_global_bandwidth(QUADRO_6000)) <= 20.0

    @pytest.mark.parametrize("unroll", [1, 3, 1000])
    def test_every_partition_checks_out(self, unroll):
        # 1003 words: blocks of 1003, 334 and 1 word(s), and tails of 0, 1
        # and 3 words (unroll 8 is the ``tail`` case above).
        res = measure_global_bandwidth(
            QUADRO_6000, array_bytes=4 * 1003, unroll=unroll
        )
        assert res.checksum_ok is True
        assert res.bytes_moved == 2 * 4 * 1003
