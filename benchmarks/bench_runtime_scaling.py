"""Runtime scaling: sharded 4096-problem LU vs the legacy serial launch.

Demonstrates the three guarantees of ``repro.runtime`` on the headline
batch (4096 matrices, 56x56, single precision):

* the sharded result is bitwise-identical to the serial launch,
* the runtime is >= 2x faster wall-clock than the legacy unsharded
  launch (size-aware chunking alone wins on one core via locality;
  worker processes stack on top where cores exist),
* a warm calibration cache skips ``calibrate()`` entirely, asserted via
  the ``calibrate`` trace-span count,
* the fleet metrics registry is effectively free: enabling it costs
  < 5% wall time vs running with ``REPRO_METRICS=0``,
* the race sanitizer is pay-for-use: a default (sanitizer-off) launch
  stays within 2% of one with the sanitizer explicitly forced off, and
  a sanitized launch is bitwise-identical to an unsanitized one,
* the resilience layer costs < 2% on the failure-free path: the work
  it adds there (two payload checksums per chunk and one breakdown
  quarantine scan), timed directly, stays under 2% of a supervised
  launch's wall, and that launch is bitwise-identical to the serial one,
* the critical-path profiler rides along on the traced run (phase
  decomposition summing to the batch wall, a real chunk critical path,
  both exported under ``--json``), and with no tracer active it costs
  < 2% whether profiling is enabled or globally disabled,
* structured logging is pay-for-use: with ``REPRO_LOG`` unset a launch
  pays one flag check per instrumented site (< 2% vs a force-enabled
  launch into a tmp sink), a logged launch stays bitwise-identical, and
  the sink it leaves behind carries span-stamped JSONL records.

The workload shape (problems, n, op, dtype) comes from the declarative
``benchmarks/specs/runtime_scaling.toml`` spec -- the same cell the
experiment matrix engine runs -- so the benchmark and any engine sweep
measure the identical batch.

Run with ``pytest benchmarks/bench_runtime_scaling.py --benchmark-only``
(``--workers N`` to change the pool size, ``--json PATH`` to export).
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analyze.sanitizer import sanitizing
from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_block_lu
from repro.observe import tracing
from repro.observe.metrics import set_metrics_enabled
from repro.observe.profile import set_profiling_enabled
from repro.resilience.quarantine import quarantine_outcomes
from repro.resilience.supervisor import outcome_checksum
from repro.runtime import BatchRuntime, ChunkOutcome, ProblemBatch, plan_chunks

SPEC = Path(__file__).parent / "specs" / "runtime_scaling.toml"


def _workload_cell():
    """The single cell of the runtime_scaling spec (needs tomllib)."""
    from repro.experiments import expand_cells, load_spec

    cells, _pruned = expand_cells(load_spec(SPEC))
    assert len(cells) == 1, f"runtime_scaling spec expanded to {len(cells)} cells"
    return cells[0]


def _calibrate_spans(tracer):
    return [e for e in tracer.events if e.name == "calibrate" and e.ph == "X"]


def _overhead_rounds(
    run_with,
    run_without,
    ratio: float,
    slack: float,
    min_rounds: int = 3,
    max_rounds: int = 8,
    alternate: bool = False,
):
    """Interleaved A/B walls with early exit: ``(wall_with, wall_without)``.

    Interleaving makes machine drift (pool contention, turbo, a loaded
    single-core CI box) hit both sides equally; min-of-rounds filters
    contended outliers.  A *genuine* overhead shifts every round, so no
    number of extra samples lets it pass -- but noise only needs more
    samples, so rounds keep accruing until the min comparison clears
    ``ratio``/``slack`` or the budget runs out.  ``alternate`` swaps the
    A/B execution order on odd rounds, cancelling position bias (the
    first run of a round pays page-cache and pool-spawn warmup).
    """
    walls_with, walls_without = [], []
    for round_index in range(max_rounds):
        if alternate and round_index % 2:
            walls_without.append(run_without())
            walls_with.append(run_with())
        else:
            walls_with.append(run_with())
            walls_without.append(run_without())
        if round_index + 1 < min_rounds:
            continue
        if min(walls_with) <= min(walls_without) * ratio + slack:
            break
    return min(walls_with), min(walls_without)


def test_runtime_scaling(benchmark, runtime_workers, tmp_path):
    if sys.version_info < (3, 11):
        pytest.skip("TOML experiment specs need Python 3.11+ (stdlib tomllib)")
    # Wall-clock bounds are collected and asserted together at the end,
    # so one slow host reading never hides a later functional check.
    tripped = []

    def tripwire(ok: bool, message: str) -> None:
        if not ok:
            tripped.append(message)

    cell = _workload_cell()
    assert (cell.op, cell.precision, cell.approach) == ("lu", "float32", "runtime")
    problems, n = cell.policy.batch, cell.size
    matrices = diagonally_dominant_batch(problems, n, dtype=np.float32, seed=0)
    batch = ProblemBatch.single(cell.op, matrices)
    cache_dir = tmp_path / "cache"

    # Legacy serial path: one unsharded launch over the whole batch.
    start = time.perf_counter()
    serial = per_block_lu(matrices)
    serial_s = time.perf_counter() - start

    # Cold runtime: calibration runs (exactly one span) and is persisted.
    cold_runtime = BatchRuntime(workers=runtime_workers, cache_directory=cache_dir)
    with tracing() as cold_tracer:
        cold = cold_runtime.run(batch)
    assert len(_calibrate_spans(cold_tracer)) == 1

    # Warm runtime (fresh instance, same cache dir): no calibrate span.
    def _warm_run():
        runtime = BatchRuntime(workers=runtime_workers, cache_directory=cache_dir)
        with tracing() as tracer:
            report = runtime.run(batch)
        return report, tracer

    warm, warm_tracer = benchmark.pedantic(_warm_run, rounds=1, iterations=1)
    assert len(_calibrate_spans(warm_tracer)) == 0
    assert any(e.name == "calibrate.cache_hit" for e in warm_tracer.events)

    # The traced run carries its latency decomposition: phases partition
    # the batch-span wall exactly, and the critical path resolved to a
    # real chunk chain, not the generic fallback.
    profile = warm.profile
    assert profile is not None
    assert sum(profile.phases.values()) == pytest.approx(profile.wall_s, rel=1e-6)
    assert {s.name for s in profile.critical_path} >= {"plan", "attempt", "merge"}

    # Bitwise identity, sharded vs serial.
    for report in (cold, warm):
        assert np.array_equal(report.output, serial.output)
        assert np.array_equal(report.extra, serial.extra)

    speedup = serial_s / warm.wall_s
    print(
        f"\nlegacy serial: {serial_s:.2f}s | runtime ({warm.mode}, "
        f"{warm.workers} workers, {warm.chunks} chunks): {warm.wall_s:.2f}s "
        f"| speedup {speedup:.1f}x"
    )
    tripwire(
        speedup >= 2.0,
        f"runtime speedup {speedup:.2f}x < 2x "
        f"(serial {serial_s:.2f}s vs {warm.wall_s:.2f}s)",
    )

    # Metrics overhead: the fleet registry must ride along for free.
    # Interleaved full runs (warm caches) enabled vs disabled; the
    # instrumentation is a few hundred dict updates per launch, so any
    # real gap would point at an accidental hot-path regression.
    def _timed_run(enabled: bool) -> float:
        previous = set_metrics_enabled(enabled)
        try:
            runtime = BatchRuntime(
                workers=runtime_workers, cache_directory=cache_dir
            )
            t0 = time.perf_counter()
            runtime.run(batch)
            return time.perf_counter() - t0
        finally:
            set_metrics_enabled(previous)

    wall_on, wall_off = _overhead_rounds(
        lambda: _timed_run(True), lambda: _timed_run(False), 1.05, 0.02
    )
    overhead = wall_on / wall_off - 1.0
    print(
        f"metrics on: {wall_on:.3f}s | off: {wall_off:.3f}s "
        f"| overhead {overhead:+.1%}"
    )
    # 5% relative plus a small absolute slack for timer noise on short runs.
    tripwire(
        wall_on <= wall_off * 1.05 + 0.02,
        f"metrics overhead {overhead:+.1%} exceeds 5% "
        f"({wall_on:.3f}s vs {wall_off:.3f}s)",
    )

    # Sanitizer-off overhead: the off path's only addition is one
    # ``is None`` check per shared access, so a default launch and one
    # with the sanitizer explicitly forced off must be the same speed.
    # If the sanitizer ever becomes default-on (env parse bug, leaked
    # sanitizing() override) or grows work outside the None check, the
    # default side slows down and this trips.
    sample = matrices[:512]

    def _serial_run(forced_off: bool) -> float:
        t0 = time.perf_counter()
        if forced_off:
            with sanitizing(False):
                per_block_lu(sample)
        else:
            per_block_lu(sample)
        return time.perf_counter() - t0

    wall_default, wall_forced = _overhead_rounds(
        lambda: _serial_run(forced_off=False),
        lambda: _serial_run(forced_off=True),
        1.02,
        0.02,
    )
    sanitizer_overhead = wall_default / wall_forced - 1.0
    print(
        f"sanitizer default: {wall_default:.3f}s | forced off: "
        f"{wall_forced:.3f}s | overhead {sanitizer_overhead:+.1%}"
    )
    tripwire(
        wall_default <= wall_forced * 1.02 + 0.02,
        f"sanitizer-off overhead {sanitizer_overhead:+.1%} exceeds 2% "
        f"({wall_default:.3f}s vs {wall_forced:.3f}s)",
    )

    # A sanitized launch may cost more, but must not perturb numerics:
    # same outputs, same cycle totals, and the default launch carries no
    # sanitizer report at all.
    assert per_block_lu(sample).launch.sanitizer is None
    with sanitizing(True):
        sanitized = per_block_lu(sample)
    assert sanitized.launch.sanitizer is not None
    assert sanitized.launch.sanitizer.ok
    plain = per_block_lu(sample)
    assert np.array_equal(sanitized.output, plain.output)
    assert sanitized.cycles == plain.cycles

    # Resilience tripwire: on the failure-free path supervision adds two
    # CRC32 passes per chunk (the worker's checksum and the parent's
    # verification) and one quarantine scan over the batch; retries,
    # rebuilds and the inline rescue wait on failures that never happen
    # here.  Time that work directly and hold it under 2% of the
    # supervised launch's wall (min of 3), plus 20 ms for timer noise.
    walls_supervised = []
    for _ in range(3):
        runtime = BatchRuntime(workers=runtime_workers, cache_directory=cache_dir)
        t0 = time.perf_counter()
        supervised = runtime.run(batch)
        walls_supervised.append(time.perf_counter() - t0)
        runtime.close()
    wall_supervised = min(walls_supervised)
    assert np.array_equal(supervised.output, serial.output)
    assert np.array_equal(supervised.extra, serial.extra)
    assert supervised.failures == []
    chunks = plan_chunks(batch, runtime.chunk_cost)
    outcomes = [
        ChunkOutcome(
            output=supervised.output[chunk.start : chunk.stop],
            extra=supervised.extra[chunk.start : chunk.stop],
            launch=supervised.results[0].launch,
            wall_s=0.0,
            events=[],
            registry=None,
        )
        for chunk in chunks
    ]

    def _supervision_s() -> float:
        t0 = time.perf_counter()
        for outcome in outcomes:
            for _side in ("worker", "parent"):
                outcome_checksum(outcome.output, outcome.extra)
        assert quarantine_outcomes(batch, chunks, outcomes) == []
        return time.perf_counter() - t0

    supervision_s = min(_supervision_s() for _ in range(5))
    resilience_overhead = supervision_s / wall_supervised
    print(
        f"resilience: {supervision_s * 1e3:.1f} ms of checksums and quarantine "
        f"({len(chunks)} chunks) | supervised launch {wall_supervised:.3f}s "
        f"| overhead {resilience_overhead:+.1%}"
    )
    tripwire(
        supervision_s <= wall_supervised * 0.02 + 0.02,
        f"resilience overhead {resilience_overhead:+.1%} exceeds 2% "
        f"({supervision_s * 1e3:.1f} ms of a {wall_supervised:.3f}s launch)",
    )

    # Profiler-off tripwire: with no tracer active the profile layer must
    # be invisible -- its only hot-path residue is one enabled check per
    # run, so an untraced launch with profiling enabled (the default)
    # must match one with profiling globally disabled.
    def _untraced_run(profiled: bool) -> float:
        previous = set_profiling_enabled(profiled)
        try:
            runtime = BatchRuntime(
                workers=runtime_workers, cache_directory=cache_dir
            )
            t0 = time.perf_counter()
            runtime.run(batch)
            return time.perf_counter() - t0
        finally:
            set_profiling_enabled(previous)

    wall_profiled, wall_unprofiled = _overhead_rounds(
        lambda: _untraced_run(True),
        lambda: _untraced_run(False),
        1.02,
        0.02,
        alternate=True,
    )
    profiler_overhead = wall_profiled / wall_unprofiled - 1.0
    print(
        f"profiler default: {wall_profiled:.3f}s | disabled: "
        f"{wall_unprofiled:.3f}s | overhead {profiler_overhead:+.1%}"
    )
    tripwire(
        wall_profiled <= wall_unprofiled * 1.02 + 0.02,
        f"tracing-off profiler overhead {profiler_overhead:+.1%} exceeds 2% "
        f"({wall_profiled:.3f}s vs {wall_unprofiled:.3f}s)",
    )

    # Logging tripwire: REPRO_LOG is unset here, so the default launch
    # pays one module-flag check per instrumented site.  Force-enabling
    # the logger into a tmp sink must stay within 2% (the sink is ~a
    # dozen O_APPEND lines per launch) and must not perturb numerics.
    log_path = tmp_path / "events.jsonl"
    from repro.observe import log as obslog

    log_reports = {}

    def _logged_run(enabled: bool) -> float:
        previous_flag = obslog.set_log_enabled(enabled)
        previous_sink = obslog.set_default_logger(
            obslog.StructuredLogger(log_path) if enabled else None
        )
        try:
            runtime = BatchRuntime(
                workers=runtime_workers, cache_directory=cache_dir
            )
            t0 = time.perf_counter()
            log_reports[enabled] = runtime.run(batch)
            return time.perf_counter() - t0
        finally:
            obslog.set_log_enabled(previous_flag)
            obslog.set_default_logger(previous_sink)

    wall_unlogged, wall_logged = _overhead_rounds(
        lambda: _logged_run(False),
        lambda: _logged_run(True),
        1.02,
        0.02,
        alternate=True,
    )
    log_overhead = wall_unlogged / wall_logged - 1.0
    print(
        f"logging off: {wall_unlogged:.3f}s | on: {wall_logged:.3f}s "
        f"| off-path overhead {log_overhead:+.1%}"
    )
    tripwire(
        wall_unlogged <= wall_logged * 1.02 + 0.02,
        f"logging-off overhead {log_overhead:+.1%} exceeds 2% "
        f"({wall_unlogged:.3f}s vs {wall_logged:.3f}s)",
    )
    # The logged launch is bitwise-identical to the unlogged (and serial)
    # one, and its sink carries schema-stamped, span-stamped records.
    assert np.array_equal(log_reports[True].output, log_reports[False].output)
    assert np.array_equal(log_reports[True].output, serial.output)
    from repro.observe.log import read_log

    log_records = read_log(log_path)
    assert log_records, f"no structured records landed in {log_path}"
    launch_events = [r for r in log_records if r["event"] == "runtime.launch"]
    assert launch_events, "logged launch left no runtime.launch record"

    # A *traced* logged launch stamps its records with the profiler's
    # deterministic span ids, joining log lines to flamegraph spans.
    traced_log = tmp_path / "events_traced.jsonl"
    previous_flag = obslog.set_log_enabled(True)
    previous_sink = obslog.set_default_logger(obslog.StructuredLogger(traced_log))
    try:
        runtime = BatchRuntime(workers=runtime_workers, cache_directory=cache_dir)
        with tracing():
            runtime.run(batch)
    finally:
        obslog.set_log_enabled(previous_flag)
        obslog.set_default_logger(previous_sink)
    traced_records = read_log(traced_log)
    spanned = [
        r
        for r in traced_records
        if isinstance(r.get("span_id"), str) and r["span_id"].startswith("batch:")
    ]
    assert spanned, "traced logged launch left no span-stamped records"

    benchmark.extra_info["problems"] = problems
    benchmark.extra_info["n"] = n
    benchmark.extra_info["workers"] = warm.workers
    benchmark.extra_info["chunks"] = warm.chunks
    benchmark.extra_info["mode"] = warm.mode
    benchmark.extra_info["speedup_vs_serial"] = speedup
    benchmark.extra_info["metrics_overhead"] = overhead
    benchmark.extra_info["sanitizer_off_overhead"] = sanitizer_overhead
    benchmark.extra_info["resilience_overhead"] = resilience_overhead
    benchmark.extra_info["profiler_off_overhead"] = profiler_overhead
    benchmark.extra_info["logging_off_overhead"] = log_overhead
    benchmark.extra_info["profile"] = profile.to_dict()
    assert not tripped, "; ".join(tripped)
