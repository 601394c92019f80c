"""Banked shared-memory semantics: storage, conflicts, cost."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SharedMemoryOverflowError
from repro.gpu import QUADRO_6000, SharedMemory, conflict_degree


class TestConflictDegree:
    def test_stride_one_is_conflict_free(self):
        assert conflict_degree(list(range(32)), banks=32) == 1

    def test_same_word_broadcasts(self):
        assert conflict_degree([5] * 32, banks=32) == 1

    def test_stride_two_has_two_way_conflicts(self):
        assert conflict_degree([2 * i for i in range(32)], banks=32) == 2

    def test_stride_32_serializes_fully(self):
        assert conflict_degree([32 * i for i in range(32)], banks=32) == 32

    def test_odd_stride_is_conflict_free(self):
        # Classic trick: padding to an odd stride removes conflicts.
        assert conflict_degree([33 * i for i in range(32)], banks=32) == 1

    def test_empty_access_costs_one_pass(self):
        assert conflict_degree([], banks=32) == 1

    @pytest.mark.parametrize("stride, degree", [(1, 2), (8, 16), (16, 32)])
    def test_sixteen_banks(self, stride, degree):
        # G80 has 16 banks, so conflicts saturate at half the stride they
        # do on GF100 (the model serves the full 32-lane warp at once;
        # real G80 split it into half-warps, halving the worst degree --
        # a documented simplification).
        assert conflict_degree([stride * i for i in range(32)], banks=16) == degree

    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=32))
    def test_degree_bounds(self, addrs):
        d = conflict_degree(addrs, banks=32)
        assert 1 <= d <= 32


class TestStorage:
    def test_write_then_read_roundtrip(self):
        mem = SharedMemory(QUADRO_6000, words=16, batch=3)
        mem.write(np.arange(4), np.ones((3, 4), dtype=np.float32) * 2.5)
        out = mem.read(np.arange(4))
        np.testing.assert_array_equal(out, np.full((3, 4), 2.5, dtype=np.float32))

    def test_scalar_slot(self):
        mem = SharedMemory(QUADRO_6000, words=4, batch=2)
        mem.write(0, [1.0, 2.0])
        np.testing.assert_array_equal(mem.read(0), [1.0, 2.0])

    def test_initialized_to_zero(self):
        mem = SharedMemory(QUADRO_6000, words=8)
        assert np.all(mem.data == 0)

    def test_complex_dtype(self):
        mem = SharedMemory(QUADRO_6000, words=4, dtype=np.complex64)
        mem.write(1, 1 + 2j)
        assert mem.read(1)[0] == np.complex64(1 + 2j)

    def test_overflow_raises(self):
        words = QUADRO_6000.shared_mem_per_sm // 4 + 1
        with pytest.raises(SharedMemoryOverflowError):
            SharedMemory(QUADRO_6000, words=words)

    def test_complex_counts_double_footprint(self):
        words = QUADRO_6000.shared_mem_per_sm // 8 + 1
        with pytest.raises(SharedMemoryOverflowError):
            SharedMemory(QUADRO_6000, words=words, dtype=np.complex64)

    def test_bytes_property(self):
        assert SharedMemory(QUADRO_6000, words=10).bytes == 40
        assert SharedMemory(QUADRO_6000, words=10, dtype=np.complex64).bytes == 80


class TestAccessCycles:
    def test_conflict_free_costs_base_latency(self):
        mem = SharedMemory(QUADRO_6000, words=64)
        assert mem.access_cycles(degree=1) == QUADRO_6000.shared_latency

    def test_conflicts_add_replays(self):
        mem = SharedMemory(QUADRO_6000, words=64)
        assert mem.access_cycles(degree=4) == QUADRO_6000.shared_latency + 3

    def test_cycles_from_addresses(self):
        mem = SharedMemory(QUADRO_6000, words=2048)
        stride32 = [32 * i for i in range(32)]
        assert mem.access_cycles(stride32) == QUADRO_6000.shared_latency + 31

    def test_complex_words_span_two_banks(self):
        mem = SharedMemory(QUADRO_6000, words=2048, dtype=np.complex64)
        # Complex stride-16 slots = real stride-32 words: full serialization.
        degree = mem.conflict_degree([16 * i for i in range(32)])
        assert degree == 32

    def test_invalid_degree_rejected(self):
        mem = SharedMemory(QUADRO_6000, words=4)
        with pytest.raises(ValueError):
            mem.access_cycles(degree=0)
