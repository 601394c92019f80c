"""Tag-cache (L1/L2) and TLB state-machine behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import G80, QUADRO_6000, L1Cache, L2Cache, TagCache, Tlb


class ListLru:
    """Brute-force reference: each set is a list of lines, LRU first."""

    def __init__(self, size_bytes, line_bytes, ways):
        self.enabled = size_bytes > 0
        self.line_bytes, self.ways = line_bytes, ways
        num_sets = max(1, size_bytes // (line_bytes * ways))
        self.sets = [[] for _ in range(num_sets)]
        self.hits = self.misses = 0

    def access(self, byte_address):
        line = byte_address // self.line_bytes
        ways = self.sets[line % len(self.sets)]
        hit = self.enabled and line in ways
        if hit:
            ways.remove(line)
        elif self.enabled and len(ways) == self.ways:
            ways.pop(0)
        if self.enabled:
            ways.append(line)
        self.hits += hit
        self.misses += not hit
        return hit


class TestTagCache:
    def test_first_access_misses_second_hits(self):
        c = TagCache(1024, 128, 2)
        assert c.access(0) is False
        assert c.access(0) is True

    def test_same_line_different_offsets_hit(self):
        c = TagCache(1024, 128, 2)
        c.access(0)
        assert c.access(127) is True
        assert c.access(128) is False

    def test_lru_eviction_within_set(self):
        # 2 sets x 2 ways, 128B lines: lines 0,2,4 all map to set 0.
        c = TagCache(512, 128, 2)
        c.access(0)
        c.access(2 * 128)
        c.access(4 * 128)  # evicts line 0
        assert c.access(0) is False

    def test_lru_keeps_recently_used(self):
        c = TagCache(512, 128, 2)
        c.access(0)
        c.access(2 * 128)
        c.access(0)  # refresh line 0
        c.access(4 * 128)  # evicts line 2*128, not line 0
        assert c.access(0) is True

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        c = TagCache(64 * 1024, 128, 16)
        lines = [i * 128 for i in range(64 * 1024 // 128)]
        for a in lines:
            c.access(a)
        assert all(c.access(a) for a in lines)

    def test_zero_size_cache_never_hits(self):
        c = TagCache(0, 128, 1)
        c.access(0)
        assert c.access(0) is False
        assert not c.enabled

    def test_hit_rate_statistics(self):
        c = TagCache(1024, 128, 2)
        c.access(0)
        c.access(0)
        assert c.hit_rate == pytest.approx(0.5)

    def test_reset_clears_state(self):
        c = TagCache(1024, 128, 2)
        c.access(0)
        c.reset()
        assert c.access(0) is False
        assert c.misses == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            TagCache(1024, 0, 2)

    def test_negative_address_rejected(self):
        c = TagCache(1024, 128, 2)
        with pytest.raises(ValueError):
            c.access(-128)
        assert c.hits == c.misses == 0

    @given(
        size_lines=st.sampled_from([0, 1, 2, 3, 4, 8, 12, 64]),
        line_bytes=st.sampled_from([1, 4, 128]),
        ways=st.sampled_from([1, 2, 3, 4, 16]),
        touches=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 127)), max_size=200
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_list_based_lru(self, size_lines, line_bytes, ways, touches):
        # Zero size, one set (size_lines <= ways) and one way all occur.
        geometry = (size_lines * line_bytes, line_bytes, ways)
        cache, ref = TagCache(*geometry), ListLru(*geometry)
        addresses = [line * line_bytes + off % line_bytes for line, off in touches]
        verdicts = [cache.access(a) for a in addresses]
        assert verdicts == [ref.access(a) for a in addresses]
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)


class TestDeviceCaches:
    def test_l2_sized_from_device(self):
        l2 = L2Cache(QUADRO_6000)
        assert l2.num_sets * l2.ways * l2.line_bytes == 768 * 1024

    def test_g80_l2_disabled(self):
        l2 = L2Cache(G80)
        assert not l2.enabled

    def test_l1_sized_from_device(self):
        l1 = L1Cache(QUADRO_6000)
        assert l1.num_sets * l1.ways * l1.line_bytes == 16 * 1024


class TestTlb:
    def test_page_locality_hits(self):
        tlb = Tlb(QUADRO_6000)
        tlb.access(0)
        assert tlb.access(QUADRO_6000.page_bytes - 1) is True

    def test_new_page_misses(self):
        tlb = Tlb(QUADRO_6000)
        tlb.access(0)
        assert tlb.access(QUADRO_6000.page_bytes) is False

    def test_capacity_eviction_is_lru(self):
        tlb = Tlb(QUADRO_6000)
        page = QUADRO_6000.page_bytes
        for i in range(QUADRO_6000.tlb_entries + 1):
            tlb.access(i * page)
        assert tlb.access(0) is False  # page 0 was LRU and evicted
        assert tlb.access(QUADRO_6000.tlb_entries * page) is True

    def test_reach(self):
        tlb = Tlb(QUADRO_6000)
        assert tlb.reach_bytes == QUADRO_6000.tlb_entries * QUADRO_6000.page_bytes

    def test_reset(self):
        tlb = Tlb(QUADRO_6000)
        tlb.access(0)
        tlb.reset()
        assert tlb.access(0) is False
        assert tlb.hits == 0
