"""Warp helpers."""

import pytest

from repro.gpu import QUADRO_6000, warps_in_block


class TestWarpsInBlock:
    def test_exact_multiple(self):
        assert warps_in_block(QUADRO_6000, 64) == 2

    def test_partial_warp_rounds_up(self):
        assert warps_in_block(QUADRO_6000, 33) == 2

    def test_single_thread(self):
        assert warps_in_block(QUADRO_6000, 1) == 1

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            warps_in_block(QUADRO_6000, 0)

