"""Span trees, critical path, decomposition, flamegraph, flow arrows."""

import pytest

from repro.observe.profile import (
    PHASES,
    PROFILE_CATEGORY,
    ProfileEmitter,
    build_span_trees,
    collapsed_stacks,
    compute_profile,
    critical_path,
    flow_events,
    profiling_enabled,
    set_profiling_enabled,
)
from repro.observe.tracer import Event, Tracer


def _span(name, ts, dur, span_id, parent_id=None, **args):
    payload = dict(args)
    payload["span_id"] = span_id
    if parent_id is not None:
        payload["parent_id"] = parent_id
    return Event(
        name=name, category=PROFILE_CATEGORY, ph="X", ts=ts, dur=dur, args=payload
    )


def _batch_events():
    """A hand-built two-chunk batch: chunk 1 is the straggler."""
    return [
        _span("batch", 0.0, 1.0, "b", problems=8, chunks=2),
        _span("plan", 0.0, 0.1, "b/plan", "b"),
        _span("execute", 0.1, 0.8, "b/execute", "b"),
        _span("chunk", 0.1, 0.4, "b/chunk:0", "b/execute", chunk=0),
        _span("submit", 0.1, 0.02, "b/chunk:0/submit:0", "b/chunk:0", chunk=0),
        _span(
            "attempt",
            0.15,
            0.3,
            "b/chunk:0/attempt:0",
            "b/chunk:0",
            chunk=0,
            worker=11,
        ),
        _span("chunk", 0.12, 0.78, "b/chunk:1", "b/execute", chunk=1),
        _span("submit", 0.12, 0.03, "b/chunk:1/submit:0", "b/chunk:1", chunk=1),
        _span(
            "attempt",
            0.2,
            0.6,
            "b/chunk:1/attempt:0",
            "b/chunk:1",
            chunk=1,
            worker=12,
        ),
        _span("merge", 0.9, 0.1, "b/merge", "b"),
    ]


class TestToggle:
    def test_default_enabled(self):
        assert profiling_enabled()

    def test_toggle_round_trip(self):
        previous = set_profiling_enabled(False)
        try:
            assert previous is True
            assert not profiling_enabled()
        finally:
            set_profiling_enabled(previous)
        assert profiling_enabled()


class TestEmitter:
    def test_emit_records_span_with_edges(self):
        tracer = Tracer()
        emitter = ProfileEmitter(tracer, "batch:7")
        emitter.emit(
            "plan",
            0.1,
            0.3,
            span_id=emitter.span_id("plan"),
            parent_id=emitter.scope,
            chunks=4,
        )
        (ev,) = tracer.events
        assert ev.category == PROFILE_CATEGORY
        assert ev.args["span_id"] == "batch:7/plan"
        assert ev.args["parent_id"] == "batch:7"
        assert ev.dur == pytest.approx(0.2)

    def test_negative_width_clamps_to_zero(self):
        tracer = Tracer()
        emitter = ProfileEmitter(tracer, "b")
        emitter.emit("x", 0.5, 0.4, span_id="b/x", parent_id="b")
        assert tracer.events[0].dur == 0.0

    def test_at_converts_perf_stamps(self):
        tracer = Tracer()
        emitter = ProfileEmitter(tracer, "b")
        assert emitter.at(tracer.origin.perf) == pytest.approx(0.0)
        assert emitter.at(tracer.origin.perf + 1.5) == pytest.approx(1.5)


class TestTreeBuilding:
    def test_builds_single_rooted_tree(self):
        (root,) = build_span_trees(_batch_events())
        assert root.name == "batch"
        names = sorted(c.name for c in root.children)
        assert names == ["execute", "merge", "plan"]
        execute = root.find("execute")
        assert [c.args["chunk"] for c in execute.children] == [0, 1]

    def test_scope_filter_excludes_other_batches(self):
        events = _batch_events() + [_span("batch", 5.0, 1.0, "other")]
        roots = build_span_trees(events, scope="b")
        assert [r.span_id for r in roots] == ["b"]

    def test_orphans_become_roots(self):
        events = [_span("chunk", 0.0, 1.0, "b/chunk:0", "b/execute", chunk=0)]
        (root,) = build_span_trees(events)
        assert root.name == "chunk"

    def test_non_profile_events_ignored(self):
        events = _batch_events() + [
            Event(name="charge", category="engine", ph="X", ts=0.0, dur=1.0)
        ]
        assert len(build_span_trees(events)) == 1

    def test_children_sorted_by_start(self):
        (root,) = build_span_trees(_batch_events())
        starts = [c.start for c in root.children]
        assert starts == sorted(starts)

    def test_signature_erases_timing(self):
        (a,) = build_span_trees(_batch_events())
        shifted = [
            _span(e.name, e.ts + 3.0, e.dur * 2, e.args["span_id"],
                  e.args.get("parent_id"), **{
                      k: v for k, v in e.args.items()
                      if k not in ("span_id", "parent_id")
                  })
            for e in _batch_events()
        ]
        (b,) = build_span_trees(shifted)
        assert a.signature() == b.signature()


class TestCriticalPath:
    def test_path_follows_straggler_chunk(self):
        (root,) = build_span_trees(_batch_events())
        steps = critical_path(root)
        assert [s.name for s in steps] == [
            "plan", "submit", "queue", "attempt", "transfer", "merge",
        ]
        attempt = next(s for s in steps if s.name == "attempt")
        assert "chunk:1" in attempt.span_id  # the straggler, not chunk 0

    def test_queue_gap_is_submit_end_to_attempt_start(self):
        (root,) = build_span_trees(_batch_events())
        queue = next(s for s in critical_path(root) if s.name == "queue")
        assert queue.start == pytest.approx(0.15)
        assert queue.dur == pytest.approx(0.05)

    def test_generic_fallback_descends_last_finisher(self):
        events = [
            _span("outer", 0.0, 1.0, "o"),
            _span("fast", 0.0, 0.2, "o/fast", "o"),
            _span("slow", 0.1, 0.8, "o/slow", "o"),
        ]
        (root,) = build_span_trees(events)
        steps = critical_path(root)
        assert [s.name for s in steps] == ["outer", "slow"]


class TestDecomposition:
    def test_phases_partition_the_wall(self):
        (root,) = build_span_trees(_batch_events())
        profile = compute_profile(root)
        assert set(profile.phases) == set(PHASES)
        assert sum(profile.phases.values()) == pytest.approx(profile.wall_s)

    def test_phase_values_match_tree(self):
        # Sweep over the execute window [0.1, 0.9]: submits gate
        # [0.1, 0.15], chunk attempts cover [0.15, 0.8] (chunk 1's long
        # attempt absorbs chunk 0's transfer gap), and chunk 1's result
        # transfer gates [0.8, 0.9].
        (root,) = build_span_trees(_batch_events())
        p = compute_profile(root).phases
        assert p["plan"] == pytest.approx(0.1)
        assert p["serialize"] == pytest.approx(0.05)  # both submits
        assert p["queue"] == pytest.approx(0.0)  # overlapped by attempts
        assert p["compute"] == pytest.approx(0.65)
        assert p["transfer"] == pytest.approx(0.1)
        assert p["merge"] == pytest.approx(0.1)
        assert p["other"] == pytest.approx(0.0)

    def test_uncovered_queue_gap_counts_as_queue(self):
        # A lone chunk whose attempt starts late: the submitted-but-idle
        # gap [0.12, 0.3] is queue time, the post-attempt tail
        # [0.5, 0.6] is transfer, and execute slack [0.6, 0.7] is other.
        events = [
            _span("batch", 0.0, 1.0, "b"),
            _span("plan", 0.0, 0.1, "b/plan", "b"),
            _span("execute", 0.1, 0.6, "b/execute", "b"),
            _span("chunk", 0.1, 0.5, "b/chunk:0", "b/execute", chunk=0),
            _span("submit", 0.1, 0.02, "b/chunk:0/submit:0", "b/chunk:0", chunk=0),
            _span(
                "attempt",
                0.3,
                0.2,
                "b/chunk:0/attempt:0",
                "b/chunk:0",
                chunk=0,
                worker=9,
            ),
            _span("merge", 0.9, 0.1, "b/merge", "b"),
        ]
        (root,) = build_span_trees(events)
        p = compute_profile(root).phases
        assert p["serialize"] == pytest.approx(0.02)
        assert p["queue"] == pytest.approx(0.18)
        assert p["compute"] == pytest.approx(0.2)
        assert p["transfer"] == pytest.approx(0.1)
        assert sum(p.values()) == pytest.approx(1.0)

    def test_batch_wall_brackets_the_launch_wall(self):
        # A three-worker launch of six chunks.  The runtime clocks
        # report.wall_s from the execute start to the end of quarantine
        # (here [0.002, 0.055]); the batch span adds the plan and the
        # merge window, which stay within half of that.
        events = [
            _span("batch", 0.0, 0.060, "b"),
            _span("plan", 0.0, 0.002, "b/plan", "b"),
            _span("execute", 0.002, 0.052, "b/execute", "b"),
            _span("merge", 0.054, 0.006, "b/merge", "b"),
        ]
        for index in range(6):
            start = 0.002 + 0.001 * index
            begin = start + 0.001 + 0.023 * (index // 3)
            chunk = f"b/chunk:{index}"
            events += [
                _span(
                    "chunk",
                    start,
                    begin + 0.023 - start,
                    chunk,
                    "b/execute",
                    chunk=index,
                ),
                _span("submit", start, 0.001, f"{chunk}/submit:0", chunk, chunk=index),
                _span(
                    "attempt",
                    begin,
                    0.022,
                    f"{chunk}/attempt:0",
                    chunk,
                    chunk=index,
                    worker=11 + index % 3,
                ),
            ]
        (root,) = build_span_trees(events)
        profile = compute_profile(root)
        launch_wall = 0.055 - 0.002
        assert profile.wall_s == pytest.approx(0.060)
        assert sum(profile.phases.values()) == pytest.approx(profile.wall_s)
        assert launch_wall <= profile.wall_s <= launch_wall * 1.5
        assert profile.coverage > 0.5

    def test_straggler_index_is_max_over_median(self):
        (root,) = build_span_trees(_batch_events())
        profile = compute_profile(root)
        # walls: {0: 0.3, 1: 0.6}; median 0.45 -> 0.6 / 0.45
        assert profile.straggler_index == pytest.approx(0.6 / 0.45)

    def test_worker_busy_and_utilization(self):
        (root,) = build_span_trees(_batch_events())
        profile = compute_profile(root)
        assert profile.worker_busy_s == {11: pytest.approx(0.3), 12: pytest.approx(0.6)}
        assert profile.utilization[12] == pytest.approx(0.6 / 0.8)

    def test_queue_share(self):
        (root,) = build_span_trees(_batch_events())
        profile = compute_profile(root)
        queued = 0.03 + 0.05  # chunk0: 0.15-0.12? no: per-chunk gaps
        # chunk0: attempt.start 0.15 - submit end 0.12 = 0.03
        # chunk1: attempt.start 0.20 - submit end 0.15 = 0.05
        assert profile.queue_share == pytest.approx(queued / (queued + 0.9))

    def test_to_dict_round_trips_to_json(self):
        import json

        (root,) = build_span_trees(_batch_events())
        doc = json.loads(json.dumps(compute_profile(root).to_dict()))
        assert doc["scope"] == "b"
        assert set(doc["phases"]) == set(PHASES)
        assert len(doc["critical_path"]) == 6

    def test_summary_is_compact(self):
        (root,) = build_span_trees(_batch_events())
        summary = compute_profile(root).summary()
        assert set(summary) == {
            "phases", "wall_s", "straggler_index", "queue_share", "coverage",
        }


class TestFlamegraph:
    def test_collapsed_stacks_self_time(self):
        roots = build_span_trees(_batch_events())
        text = collapsed_stacks(roots)
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        # plan has no children: self time = 0.1s = 100000us.
        assert lines["batch;plan"] == "100000"
        # batch self = 1.0 - (0.1 + 0.8 + 0.1) = 0.
        assert lines["batch"] == "0"
        assert "batch;execute;chunk;attempt" in lines

    def test_empty_input_empty_output(self):
        assert collapsed_stacks([]) == ""


class TestFlowEvents:
    def test_arrows_link_submit_attempt_completion(self):
        arrows = flow_events(_batch_events())
        # Two chunks, three records each.
        assert len(arrows) == 6
        phases = [a["ph"] for a in arrows]
        assert phases.count("s") == 2 and phases.count("t") == 2
        step = next(a for a in arrows if a["ph"] == "t" and a["tid"] == 12)
        assert step["ts"] == pytest.approx(0.2)

    def test_chunks_without_attempts_skipped(self):
        events = [
            _span("batch", 0.0, 1.0, "b"),
            _span("execute", 0.0, 1.0, "b/execute", "b"),
            _span("chunk", 0.0, 0.5, "b/chunk:0", "b/execute", chunk=0),
        ]
        assert flow_events(events) == []
