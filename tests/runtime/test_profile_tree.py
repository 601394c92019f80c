"""Span trees from real runs: linkage, stability, serial/sharded parity."""

import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.observe import profile as _profile
from repro.observe import tracing
from repro.observe.profile import (
    build_span_trees,
    compute_profile,
    set_profiling_enabled,
)
from repro.runtime import BatchRuntime, ProblemBatch


def _runtime(tmp_path, **kwargs):
    kwargs.setdefault("cache_directory", tmp_path / "cache")
    kwargs.setdefault("history", False)
    return BatchRuntime(**kwargs)


def _traced_run(tmp_path, workers, matrices, chunk_cost):
    runtime = _runtime(tmp_path, workers=workers, chunk_cost=chunk_cost)
    with tracing() as tracer:
        report = runtime.run(ProblemBatch.single("lu", matrices))
    return report, tracer


def _batch_root(tracer, scope=None):
    roots = build_span_trees(tracer.events, scope=scope)
    batches = [r for r in roots if r.name == "batch"]
    assert len(batches) == 1, f"expected one batch root, got {batches}"
    return batches[0]


class TestTreeLinkage:
    def test_every_chunk_has_exactly_one_parent(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=3)
        report, tracer = _traced_run(tmp_path, 3, matrices, lu_flops(12) * 7)
        assert report.mode == "process"
        root = _batch_root(tracer)
        execute = root.find("execute")
        chunk_nodes = [n for n in root.walk() if n.name == "chunk"]
        assert len(chunk_nodes) == report.chunks
        for chunk in chunk_nodes:
            assert chunk.parent_id == execute.span_id
            assert chunk in execute.children
            # Worker-side spans hang off the chunk, nothing else.
            for child in chunk.children:
                assert child.name in ("submit", "deserialize", "attempt")
                assert child.parent_id == chunk.span_id

    def test_no_orphans_within_scope(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=3)
        report, tracer = _traced_run(tmp_path, 3, matrices, lu_flops(12) * 7)
        scope = report.profile.scope
        roots = build_span_trees(tracer.events, scope=scope)
        # Every profile span under the scope reached its parent: the
        # scope filter yields exactly the one batch root.
        assert [r.name for r in roots] == ["batch"]

    def test_chunks_stable_in_submission_order(self, tmp_path):
        matrices = diagonally_dominant_batch(48, 12, seed=4)
        report, tracer = _traced_run(tmp_path, 3, matrices, lu_flops(12) * 9)
        execute = _batch_root(tracer).find("execute")
        indices = [c.args["chunk"] for c in execute.children]
        assert indices == sorted(indices)

    def test_every_attempt_carries_its_worker_pid(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=5)
        report, tracer = _traced_run(tmp_path, 2, matrices, lu_flops(12) * 7)
        root = _batch_root(tracer)
        attempts = [n for n in root.walk() if n.name == "attempt"]
        assert attempts
        pids = {int(a.args["worker"]) for a in attempts}
        assert all(pid > 0 for pid in pids)
        assert len(pids) >= 2  # the pool really fanned out


class TestSerialShardedParity:
    def test_identical_tree_signature(self, tmp_path):
        # Same chunk plan, different execution: the span trees must be
        # structurally identical (timing and worker pids erased).
        matrices = diagonally_dominant_batch(40, 12, seed=6)
        chunk_cost = lu_flops(12) * 7
        serial_report, serial_tracer = _traced_run(
            tmp_path / "serial", 1, matrices, chunk_cost
        )
        sharded_report, sharded_tracer = _traced_run(
            tmp_path / "sharded", 2, matrices, chunk_cost
        )
        assert serial_report.mode == "serial"
        assert sharded_report.mode == "process"
        serial_root = _batch_root(serial_tracer, scope=serial_report.profile.scope)
        sharded_root = _batch_root(sharded_tracer, scope=sharded_report.profile.scope)
        assert serial_root.signature() == sharded_root.signature()


class TestReportProfile:
    def test_decomposition_sums_to_wall_within_5_percent(self, tmp_path):
        matrices = diagonally_dominant_batch(64, 16, seed=7)
        report, _ = _traced_run(tmp_path, 3, matrices, lu_flops(16) * 11)
        profile = report.profile
        assert profile is not None
        assert sum(profile.phases.values()) == pytest.approx(profile.wall_s, rel=1e-6)
        # The batch span encloses the reported wall: report.wall_s is
        # clocked up to the merge, the batch span also covers it.  How
        # much wider it is depends on the host's load, so the bracket
        # and the coverage floor are checked on a scripted trace
        # (tests/observe/test_profile.py).
        assert report.wall_s <= profile.wall_s
        assert profile.phases["compute"] > 0

    def test_critical_path_resolves_to_a_real_chunk(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=8)
        report, _ = _traced_run(tmp_path, 2, matrices, lu_flops(12) * 7)
        steps = {s.name for s in report.profile.critical_path}
        assert {"plan", "submit", "attempt", "merge"} <= steps
        attempt = next(s for s in report.profile.critical_path if s.name == "attempt")
        assert "/chunk:" in attempt.span_id

    def test_untraced_run_has_no_profile(self, tmp_path):
        matrices = diagonally_dominant_batch(24, 12, seed=9)
        runtime = _runtime(tmp_path, workers=1, chunk_cost=1e12)
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.profile is None

    def test_profiling_disabled_emits_no_spans(self, tmp_path):
        matrices = diagonally_dominant_batch(24, 12, seed=9)
        previous = set_profiling_enabled(False)
        try:
            report, tracer = _traced_run(tmp_path, 1, matrices, 1e12)
        finally:
            set_profiling_enabled(previous)
        assert report.profile is None
        assert not [e for e in tracer.events if e.category == "profile"]


class TestLaunchWindow:
    def test_tree_reads_only_its_launch_events(self, tmp_path, monkeypatch):
        """Under one long-lived tracer, each launch's profile tree reads
        that launch's events, not the whole ring buffer, and equals the
        tree the whole buffer gives."""
        examined, built = [], []

        def counting(events, scope=None):
            events = list(events)
            examined.append(len(events))
            built.append(build_span_trees(events, scope=scope))
            return built[-1]

        monkeypatch.setattr(_profile, "build_span_trees", counting)
        matrices = diagonally_dominant_batch(24, 12, seed=10)
        runtime = _runtime(tmp_path, workers=1, chunk_cost=lu_flops(12) * 7)
        runtime.parameters()
        with tracing() as tracer:
            for _ in range(6):
                report = runtime.run(ProblemBatch.single("lu", matrices))
                whole = build_span_trees(tracer.events, scope=report.profile.scope)
                assert built[-1] == whole
                root = next(r for r in whole if r.name == "batch")
                assert report.profile == compute_profile(root)
        # Every launch reads the same number of events, a sixth of the
        # buffer by the last one.
        assert len(set(examined)) == 1
        assert examined[-1] * 5 < len(tracer.events)
