"""The pointer chase's two paths agree.

``MemorySystem.chase`` decides a walk that never wraps in NumPy
(``_straight_walk``) and steps the L1/L2/TLB state machines for any
other walk (``_step_walk``).  The state machines are the reference: on
every walk that never wraps, the chase must report the same
``ChaseResult``, tracer counters and ``memory.chase`` span either way.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import QUADRO_6000, DramTimings, MemorySystem
from repro.observe import tracing

#: Synthetic devices: caches of zero size, one way or one set, a TLB of
#: zero or one entry, small pages and rows, and latencies that are not
#: integers (the hop latencies must still add up in the loop's order).
devices = st.builds(
    lambda line, l1, l2_lines, ways, tlb, page, lat: dataclasses.replace(
        QUADRO_6000,
        l2_line_bytes=line,
        l1_bytes=l1,
        l2_bytes=l2_lines * line,
        l2_ways=ways,
        tlb_entries=tlb,
        page_bytes=page,
        l1_latency=lat[0],
        l2_latency=lat[1],
        tlb_miss_penalty=lat[2],
    ),
    line=st.sampled_from([4, 32, 128]),
    l1=st.sampled_from([0, 64, 16 * 1024]),
    l2_lines=st.sampled_from([0, 1, 4, 6144]),
    ways=st.sampled_from([1, 2, 16]),
    tlb=st.sampled_from([0, 1, 2, 64]),
    page=st.sampled_from([64, 512, 65536]),
    lat=st.sampled_from([(96, 280, 60), (0.1, 280.3, 60.7), (1e-3, 1e16, 3.3)]),
)


def traced_chase(ms, *args, **kwargs):
    with tracing() as tracer:
        result = ms.chase(*args, **kwargs)
    span = [(e.dur, e.args) for e in tracer.events if e.name == "memory.chase"]
    return repr(result), tracer.counters.snapshot(), repr(span)


@given(
    device=devices,
    row_bytes=st.sampled_from([16, 256, 2048]),
    stride_words=st.integers(min_value=1, max_value=16384),
    word_bytes=st.sampled_from([4, 8]),
    hops=st.integers(min_value=1, max_value=600),
    warmup=st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
    spare_words=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=120, deadline=None)
def test_straight_walk_matches_state_machines(
    device, row_bytes, stride_words, word_bytes, hops, warmup, spare_words
):
    # The smallest array this walk never wraps in, plus spare words.
    steps = (hops if warmup is None else warmup) + hops - 1
    array_words = steps * stride_words + 1 + spare_words
    stride_bytes = stride_words * word_bytes
    assert steps * stride_bytes < array_words * word_bytes
    ms = MemorySystem(device, DramTimings(row_bytes=row_bytes))
    args = (stride_words, array_words)
    kwargs = dict(hops=hops, word_bytes=word_bytes, warmup=warmup)

    with mock.patch.object(MemorySystem, "_step_walk", side_effect=AssertionError):
        got = traced_chase(ms, *args, **kwargs)
    with mock.patch.object(MemorySystem, "_straight_walk", MemorySystem._step_walk):
        want = traced_chase(ms, *args, **kwargs)
    assert got == want


def test_wrapping_walk_steps_the_state_machines():
    # Figure 1's stride 2^17 wraps its 64M-word array within 512 hops.
    ms = MemorySystem(QUADRO_6000)
    with mock.patch.object(MemorySystem, "_straight_walk", side_effect=AssertionError):
        result = ms.chase(1 << 17, 64 * 1024 * 1024, hops=512)
    assert result.avg_latency_cycles == 630.0


@pytest.mark.parametrize(
    "stride_words, hops",
    [(1 << 61, 1), (1 << 60, 3)],  # a 2**63-byte stride; a 2**63-byte last address
)
def test_walk_past_int64_steps_the_state_machines(stride_words, hops):
    # Neither walk wraps its 2**64-byte array, but NumPy's int64 cannot
    # hold the stride or the last address.
    ms = MemorySystem(QUADRO_6000)
    with mock.patch.object(MemorySystem, "_straight_walk", side_effect=AssertionError):
        result = ms.chase(stride_words, 1 << 62, hops=hops, warmup=0)
    assert result.avg_latency_cycles == 630.0
