"""Shared helpers for the per-artefact benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
regenerated tables/series).  Every benchmark regenerates one table or
figure of the paper via the experiment registry and records headline
numbers in ``extra_info`` so the saved benchmark JSON doubles as the
reproduction record.

Pass ``--json PATH`` to additionally append one flat metrics record per
benchmark to a JSON-array file via :mod:`repro.observe.export` -- the
repo's accumulating ``BENCH_*.json`` perf trajectory::

    pytest benchmarks/bench_fig9_per_block.py --benchmark-only \
        --json BENCH_fig9.json

With ``--json`` the session also writes the process-global fleet
metrics registry (``<stem>.metrics.prom`` next to the JSON file) so
cache hit rates and runtime histograms from the benchmark run are
inspectable with ``python -m repro.observe.report --metrics ...``.
"""

from pathlib import Path

import pytest

from repro.reporting import run_experiment


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="append each benchmark's regenerated data to this JSON file "
        "via the repro.observe metrics exporter",
    )
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=4,
        metavar="N",
        help="worker-process count for runtime-backed benchmarks "
        "(see bench_runtime_scaling.py); 1 forces the serial path",
    )


def pytest_sessionfinish(session, exitstatus):
    """Snapshot the fleet metrics the benchmark run accumulated."""
    json_path = session.config.getoption("--json", default=None)
    if not json_path:
        return
    from repro.observe.metrics import default_registry, write_prometheus

    registry = default_registry()
    if len(registry) == 0:
        return
    base = Path(json_path)
    write_prometheus(registry, base.parent / (base.stem + ".metrics.prom"))


@pytest.fixture
def runtime_workers(request):
    """Pool size requested via ``--workers`` (default 4)."""
    return request.config.getoption("--workers")


@pytest.fixture
def sweep(benchmark, request, tmp_path):
    """Run one experiment spec through the matrix engine under the timer.

    Loads ``benchmarks/specs/<name>.toml``, executes it with
    :func:`repro.experiments.run_spec` (fresh artifact dir per round, a
    shared calibration cache so warm rounds skip calibration), and
    returns the :class:`~repro.experiments.SweepResult`.  Under
    ``--json`` the per-cell gauges are exported the same way
    ``regenerate`` exports experiment series.
    """
    import sys

    if sys.version_info < (3, 11):
        pytest.skip("TOML experiment specs need Python 3.11+ (stdlib tomllib)")

    from repro.experiments import load_spec, run_spec

    state = {}
    specs_dir = Path(__file__).parent / "specs"

    def _run(spec_name: str, **run_kwargs):
        spec = load_spec(specs_dir / f"{spec_name}.toml")
        rounds = {"count": 0}

        def _once():
            rounds["count"] += 1
            return run_spec(
                spec,
                tmp_path / f"{spec.name}-{rounds['count']}",
                cache_dir=tmp_path / "cache",
                resume=False,
                **run_kwargs,
            )

        result = benchmark.pedantic(_once, rounds=3, iterations=1, warmup_rounds=0)
        state["result"] = result
        failed = [r.cell.id for r in result.records if r.status == "failed"]
        assert not failed, f"sweep cells failed: {failed}"
        return result

    yield _run

    json_path = request.config.getoption("--json")
    if json_path and state:
        from repro.observe.export import metrics_record, write_metrics

        result = state["result"]
        gauges = {}
        for record in result.records:
            if record.status == "ok":
                for key, value in record.gauges.items():
                    gauges[f"{record.cell.id}.{key}"] = value
        stats = {}
        if benchmark.stats is not None:
            stats = {
                "mean_s": benchmark.stats.stats.mean,
                "min_s": benchmark.stats.stats.min,
                "rounds": benchmark.stats.stats.rounds,
            }
        write_metrics(
            json_path,
            metrics_record(
                name=request.node.name,
                metrics=gauges,
                experiment_id=result.spec.name,
                title=result.spec.title,
                fingerprint=result.fingerprint,
                extra_info=dict(benchmark.extra_info),
                timing=stats,
            ),
        )


@pytest.fixture
def regenerate(benchmark, request):
    """Run one experiment under the benchmark timer and print its report."""
    state = {}

    def _run(experiment_id: str, **kwargs):
        result = benchmark.pedantic(
            lambda: run_experiment(experiment_id, **kwargs),
            rounds=3,
            iterations=1,
            warmup_rounds=0,
        )
        state["experiment_id"] = experiment_id
        state["result"] = result
        print()
        print(result.report)
        return result

    yield _run

    json_path = request.config.getoption("--json")
    if json_path and state:
        from repro.observe.export import metrics_record, write_metrics

        stats = {}
        if benchmark.stats is not None:  # populated after pedantic() ran
            stats = {
                "mean_s": benchmark.stats.stats.mean,
                "min_s": benchmark.stats.stats.min,
                "rounds": benchmark.stats.stats.rounds,
            }
        write_metrics(
            json_path,
            metrics_record(
                name=request.node.name,
                metrics=state["result"].data,
                experiment_id=state["experiment_id"],
                title=state["result"].title,
                extra_info=dict(benchmark.extra_info),
                timing=stats,
            ),
        )
