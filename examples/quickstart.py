#!/usr/bin/env python
"""Quickstart: factor thousands of small matrices and see why the GPU wins.

This walks the library's main surfaces in one sitting:

1. batch-factor 5,000 56x56 single-precision matrices with the
   register-resident one-problem-per-block QR (the paper's headline
   workload) and verify the numerics,
2. compare the engine-measured throughput against the paper's analytic
   model (Table VI) and against the MKL-like CPU baseline, with the
   per-term model-vs-measured attribution table,
3. let the dispatcher pick the best approach for a few other workloads
   (memoized through the persistent dispatch cache),
4. ship a real batch through the sharded multi-process runtime
   (``repro.runtime``) and compare against the serial launch,
5. inspect the fleet telemetry the run left behind: per-launch regime
   classification, cache hit rates, and the metrics/history artifacts
   the ``python -m repro.observe.report`` dashboard reads.

Calibration goes through the persistent cache under ``~/.cache/repro``
(override with ``REPRO_CACHE_DIR``), so every run after the first skips
the Table-IV microbenchmark sweep.  Set ``REPRO_WORKERS`` to change the
runtime's pool size (default 2 here).

Set ``REPRO_TRACE=trace.json`` to run the whole walkthrough under the
event tracer and write a Chrome ``trace_event`` file (open it at
chrome://tracing or https://ui.perfetto.dev) -- see
docs/observability.md.  Set ``REPRO_LOG=1`` to also stream structured
JSONL log records (trace-correlated via span ids) to
``<cache dir>/events.jsonl``, ready for the SLO gate
``python -m repro.observe.alerts check``.
"""

import os

import numpy as np

from repro.approaches import Workload
from repro.kernels.batched import (
    QrFactors,
    diagonally_dominant_batch,
    orthogonality_error,
    qr_reconstruction_error,
    qr_unpack,
    random_batch,
    run_batched,
)
from repro.kernels.device import per_block_lu, per_block_qr
from repro.microbench import calibrate
from repro.model import predict_per_block
from repro.observe import attribute_launch, format_attribution, tracing
from repro.reporting import format_table
from repro.runtime import BatchRuntime


def main() -> None:
    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path:
        from repro.observe import write_chrome_trace

        with tracing() as tracer:
            _walkthrough()
        written = write_chrome_trace(tracer, trace_path)
        print(
            f"\nWrote {len(tracer.events)} trace events to {written} "
            "(open in chrome://tracing or https://ui.perfetto.dev)"
        )
    else:
        _walkthrough()


def _walkthrough() -> None:
    batch, n = 5000, 56

    # --- 1. Factor (numerics are computed for a sample of the batch;
    # cycle cost per block is identical across the batch). -------------
    print(f"Factoring {batch} {n}x{n} single-precision matrices (QR)...")
    sample = random_batch(16, n, n, dtype=np.float32, seed=0)
    result = per_block_qr(sample)

    factors = QrFactors(packed=result.output, taus=result.extra)
    q = qr_unpack(factors)
    rec_err = qr_reconstruction_error(sample, q, factors.r())
    print(f"  reconstruction error: {rec_err:.2e}")
    print(f"  orthogonality error:  {orthogonality_error(q):.2e}")

    # --- 2. Measured vs modeled vs CPU. --------------------------------
    # calibrate(cache=True) persists the Table-IV sweep per device: the
    # first run measures, every later run loads (~0 cost, no span).
    params = calibrate(cache=True)
    measured = result.launch.throughput_gflops(batch)
    prediction = predict_per_block(params, "qr", n)
    predicted = prediction.gflops
    from repro.approaches import CpuLapackApproach

    mkl = CpuLapackApproach().gflops(Workload.square("qr", n, batch))

    # Where do the cycles go, term by term?  (Eq. 2 vs the engine.)
    print()
    print(format_attribution(attribute_launch(
        params, result.launch, label=f"{n}x{n} per-block QR",
        prediction=prediction,
    )))
    print()
    print(format_table(
        ["source", "GFLOP/s"],
        [
            ["engine-measured (simulated Quadro 6000)", f"{measured:.1f}"],
            ["analytic model (Table VI)", f"{predicted:.1f}"],
            ["MKL baseline (i7-2600 model)", f"{mkl:.1f}"],
            ["speedup vs MKL", f"{measured / mkl:.1f}x (paper: 29x)"],
        ],
    ))

    # --- 3. The design space is not flat. -------------------------------
    # Rankings flow through the runtime's persistent dispatch cache, so a
    # repeated workload never re-evaluates the five candidate models.
    workers = int(os.environ.get("REPRO_WORKERS", "2"))
    runtime = BatchRuntime(workers=workers)
    print("\nBest approach by workload:")
    rows = []
    for kind, size, b in (("qr", 8, 64000), ("qr", 56, 5000), ("qr", 1024, 4),
                          ("lu", 32, 10000)):
        work = Workload.square(kind, size, b)
        ranked = runtime.rank(work)
        rows.append([kind, f"{size}x{size}", b, ranked[0].name,
                     f"{ranked[0].gflops:.1f}"])
    print(format_table(["kind", "size", "batch", "winner", "GFLOP/s"], rows))

    # --- 4. Execute a batch for real on the sharded runtime. ------------
    # 2,048 24x24 LUs, chunked size-aware and fanned across worker
    # processes; outputs and counters merge back bitwise-identical to the
    # serial launch.
    lu_batch = diagonally_dominant_batch(2048, 24, dtype=np.float32, seed=1)
    import time as _time

    t0 = _time.perf_counter()
    serial = per_block_lu(lu_batch)
    serial_s = _time.perf_counter() - t0
    # The runtime keeps its worker pool for later launches until closed.
    with BatchRuntime(workers=workers, chunk_cost=4e6) as sharded_runtime:
        report = run_batched("lu", lu_batch, runtime=sharded_runtime)
    identical = np.array_equal(report.output, serial.output)
    print(f"\nSharded runtime ({report.mode}, {report.workers} workers, "
          f"{report.chunks} chunks over {report.problems} problems):")
    print(format_table(
        ["path", "wall [s]", "simulated GFLOP/s", "identical"],
        [
            ["serial launch", f"{serial_s:.3f}", f"{serial.gflops:.1f}", "--"],
            ["sharded runtime", f"{report.wall_s:.3f}",
             f"{report.results[0].gflops:.1f}", str(identical)],
        ],
    ))
    if not identical:
        raise SystemExit("sharded output diverged from the serial launch")

    # Under REPRO_TRACE the run also carries its critical-path profile:
    # where the batch wall actually went, phase by phase.
    if report.profile is not None:
        profile = report.profile
        shares = profile.phase_shares()
        print(f"\nLatency decomposition (batch wall {profile.wall_s:.3f}s, "
              f"straggler index {profile.straggler_index:.2f}):")
        print(format_table(
            ["phase", "seconds", "share"],
            [[phase, f"{profile.phases[phase]:.4f}", f"{shares[phase]:.1%}"]
             for phase in sorted(profile.phases, key=lambda p: -profile.phases[p])],
        ))
        print("Timeline:          python -m repro.observe.timeline trace.json")

    # --- 5. Fleet telemetry. --------------------------------------------
    # Every instrumented layer above (kernels, caches, dispatch, the
    # sharded runtime) has been writing labeled metrics into the process
    # registry, and each runtime launch appended a history record with
    # its regime classification.  Snapshot both for the dashboard CLI.
    from repro.observe import default_registry, write_prometheus

    if report.regimes:
        print("\nRegime classification (dominant Eq. 1/Eq. 2 term shares):")
        print(format_table(
            ["op", "regime", "dominant term", "share"],
            [
                [c.label, c.regime, c.dominant_term,
                 f"{c.shares[c.regime]:.0%}"]
                for c in report.regimes
            ],
        ))

    registry = default_registry()
    rows = []
    for cache in registry.label_values("repro_cache_requests_total", "cache"):
        hits = registry.sum_series(
            "repro_cache_requests_total", cache=cache, outcome="hit")
        total = registry.sum_series("repro_cache_requests_total", cache=cache)
        rows.append([cache, int(hits), int(total),
                     f"{hits / total:.0%}" if total else "-"])
    if rows:
        print("\nCache traffic this run:")
        print(format_table(["cache", "hits", "requests", "hit rate"], rows))

    snapshot = write_prometheus(registry)
    history = sharded_runtime.history
    print(f"\nMetrics snapshot: {snapshot}")
    if history is not None:
        print(f"Run history:      {history.path} ({len(history)} records)")
    from repro.observe import log as obslog

    if obslog.log_enabled():
        print(f"Structured log:   {obslog.default_logger().path}")
        print("SLO gate:         python -m repro.observe.alerts check "
              "benchmarks/specs/slo_default.json --strict")
    print("Dashboard:        python -m repro.observe.report")


if __name__ == "__main__":
    main()
