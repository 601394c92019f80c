"""Launch-shape rule and register-tile geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LaunchConfigurationError
from repro.model import BlockConfig, block_config


class TestPaperShapes:
    def test_56x56_uses_64_threads(self):
        cfg = block_config(56, 56)
        assert cfg.threads == 64
        assert cfg.rdim == 8
        assert cfg.hreg == 7 and cfg.wreg == 7

    def test_switch_to_256_threads_at_80(self):
        # Figure 9: "The sharp drop from 64 to 80 happens because we
        # switch from 64 to 256 threads."
        assert block_config(72, 72).threads == 64
        assert block_config(80, 80).threads == 256

    def test_112x112_with_256_threads_is_7x7_tiles(self):
        # Section V: "256 threads can store a 112x112 single-precision
        # matrix ... each thread storing a 7x7 sub-matrix".
        cfg = BlockConfig(m=112, n=112, threads=256)
        assert cfg.hreg == 7 and cfg.wreg == 7

    def test_stap_80x16_fits_64_threads(self):
        cfg = block_config(80, 16, complex_dtype=True)
        assert cfg.threads == 64
        assert cfg.hreg == 10 and cfg.wreg == 2

    def test_panels_of_56x56(self):
        # "there are 7 panels in a 56x56 matrix with 64 threads".
        assert block_config(56, 56).panels == 7


class TestGeometry:
    def test_non_square_thread_count_rejected(self):
        with pytest.raises(LaunchConfigurationError):
            BlockConfig(m=8, n=8, threads=48)

    def test_zero_dims_rejected(self):
        with pytest.raises(LaunchConfigurationError):
            BlockConfig(m=0, n=8, threads=64)

    def test_zero_threads_rejected(self):
        # isqrt(0) ** 2 == 0, so the square check alone would admit it.
        with pytest.raises(LaunchConfigurationError):
            BlockConfig(m=4, n=4, threads=0)

    def test_registers_count_complex_double(self):
        real = BlockConfig(m=56, n=56, threads=64).registers_per_thread
        cplx = BlockConfig(m=56, n=56, threads=64, complex_dtype=True)
        assert cplx.registers_per_thread > real

    def test_column_tile_rows_shrink_by_panel(self):
        cfg = block_config(56, 56)
        assert cfg.column_tile_rows(0) == 7
        assert cfg.column_tile_rows(7) == 7  # still panel 0
        assert cfg.column_tile_rows(8) == 6  # panel 1
        assert cfg.column_tile_rows(55) == 1

    def test_column_tile_rows_floor_at_one(self):
        cfg = BlockConfig(m=16, n=64, threads=64)
        assert cfg.column_tile_rows(63) == 1

    def test_column_out_of_range(self):
        cfg = block_config(16, 16)
        with pytest.raises(ValueError):
            cfg.column_tile_rows(16)

    @given(
        m=st.integers(min_value=1, max_value=300),
        n=st.integers(min_value=1, max_value=300),
    )
    def test_tiles_cover_matrix(self, m, n):
        cfg = block_config(m, n)
        assert cfg.hreg * cfg.rdim >= m
        assert cfg.wreg * cfg.rdim >= n
        assert (cfg.hreg - 1) * cfg.rdim < m
        assert (cfg.wreg - 1) * cfg.rdim < n

    @given(n=st.integers(min_value=2, max_value=300))
    def test_register_need_grows_with_n(self, n):
        a = block_config(n, n)
        b = block_config(n - 1, n - 1)
        grows = a.registers_per_thread >= b.registers_per_thread
        assert grows or a.threads != b.threads
