"""One scripted launch sequence, pinned with every telemetry sink on.

The scenario runs under a tracer with the JSONL log and the metrics
registry enabled:

1. the traced 2-worker LU batch of the alert join test, with ``crash@0``
   once and two singular problems;
2. the same batch on a runtime whose pool cannot start (an unknown start
   method), which degrades to serial execution;
3. a checkpointed run resumed from its journal;
4. a dispatch miss, then a hit;
5. a calibration miss, then a hit.

``golden_telemetry.json`` holds three views of what it leaves behind:
the Prometheus exposition, each log record's event, level, span ids and
sorted field names, and each host-fact instant's name and sorted arg
names.  Worker pids, batch sequence numbers and seconds-valued samples
are normalized, and the log and trace views are sorted, because worker
processes append to the log concurrently.  Regenerate (or write the
capture elsewhere, to compare two trees) with::

    PYTHONPATH=src python tests/observe/test_telemetry_golden.py [OUT]
"""

from __future__ import annotations

import json
import re
import sys
import warnings
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_telemetry.json")

#: Families whose samples are wall-clock readings or ratios of them.
TIMED = (
    "repro_batch_phase_seconds",
    "repro_batch_queue_share",
    "repro_batch_straggler_index",
    "repro_chunk_queue_wait_seconds",
    "repro_chunk_wall_seconds",
    "repro_runtime_wall_seconds",
)

#: Instant-name prefixes of host facts (device-level instants excluded).
HOST_PREFIXES = (
    "alert.",
    "calibrate.",
    "checkpoint.",
    "dispatch.",
    "experiment.",
    "observe.",
    "resilience.",
    "runtime.",
    "worker.",
)

_BATCH = re.compile(r"batch:(\d+)")


def run_scenario(root: Path):
    """Run the five steps; returns ``(exposition, log records, tracer)``."""
    from repro.approaches import Workload
    from repro.kernels.batched import diagonally_dominant_batch
    from repro.model.flops import lu_flops
    from repro.observe import log as obslog
    from repro.observe import metrics as metrics_mod
    from repro.observe import profile as profile_mod
    from repro.observe import tracing
    from repro.resilience import FaultSpec, batch_fingerprint
    from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks
    from repro.runtime.executor import Switches, _execute_chunk

    matrices = diagonally_dominant_batch(32, 6, seed=0)
    matrices[3] = 0.0  # planted singular victims -> quarantine
    matrices[20] = 0.0
    batch = ProblemBatch.single("lu", matrices)
    crash = FaultSpec(kind="crash", chunks=(0,), count=1)
    sink = root / "events.jsonl"

    def runtime(**kwargs):
        return BatchRuntime(
            use_caches=False,
            chunk_cost=lu_flops(6) * 8,
            history=root / "history.jsonl",
            **kwargs,
        )

    registry = metrics_mod.MetricsRegistry()
    previous_registry = metrics_mod.set_default_registry(registry)
    previous_metrics = metrics_mod.set_metrics_enabled(True)
    previous_profile = profile_mod.set_profiling_enabled(True)
    previous_flag = obslog.set_log_enabled(True)
    previous_sink = obslog.set_default_logger(obslog.StructuredLogger(sink))
    try:
        with tracing() as tracer:
            runtime(workers=2, faults=crash).run(batch)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runtime(
                    workers=2, faults=crash, start_method="no-such-method"
                ).run(batch)

            resumable = runtime(workers=1, checkpoint=root / "checkpoints")
            kwargs = {"device": resumable.device}
            fingerprint = batch_fingerprint(batch, resumable.chunk_cost, kwargs)
            chunks = plan_chunks(batch, resumable.chunk_cost)
            for index in (0, 2):
                chunk = chunks[index]
                outcome = _execute_chunk(
                    "lu",
                    matrices[chunk.start : chunk.stop],
                    kwargs,
                    False,
                    Switches.current(),
                )
                resumable.checkpoint.record(fingerprint, index, outcome)
            resumable.run(batch)

            work = Workload.square("lu", 8, 1000)
            for _ in range(2):
                BatchRuntime(
                    workers=1, cache_directory=root / "cache", history=False
                ).rank(work)
    finally:
        obslog.set_log_enabled(previous_flag)
        obslog.set_default_logger(previous_sink)
        profile_mod.set_profiling_enabled(previous_profile)
        metrics_mod.set_metrics_enabled(previous_metrics)
        metrics_mod.set_default_registry(previous_registry)
    return metrics_mod.prometheus_text(registry), obslog.read_log(sink), tracer


def normalize_exposition(text: str) -> list:
    """Exposition lines with pids folded and timed samples masked.

    Series that differ only in their ``worker`` pid fold into one
    ``worker="<pid>"`` series whose value is their sum.  Samples of
    :data:`TIMED` families read ``<s>``, except ``_count`` and the
    ``+Inf`` bucket, which count observations.
    """
    from repro.observe.metrics import _format_value

    lines: list = []
    position: dict = {}
    for line in text.splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        sample, value = line.rsplit(" ", 1)
        sample = re.sub(r'worker="\d+"', 'worker="<pid>"', sample)
        name = sample.split("{", 1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if family in TIMED and not (
            name.endswith("_count") or 'le="+Inf"' in sample
        ):
            value = "<s>"
        if sample in position:
            index = position[sample]
            if value != "<s>":
                total = float(lines[index].rsplit(" ", 1)[1]) + float(value)
                value = _format_value(total)
            lines[index] = f"{sample} {value}"
        else:
            position[sample] = len(lines)
            lines.append(f"{sample} {value}")
    return lines


def _renumber(batches: list):
    """Map each ``batch:N`` sequence number to its rank in the run."""
    order = {n: k for k, n in enumerate(sorted(set(batches)))}

    def rename(value):
        if not isinstance(value, str):
            return value
        return _BATCH.sub(lambda m: f"batch:{order[int(m.group(1))]}", value)

    return rename


def capture(root: Path) -> dict:
    """The three normalized views of one scenario run."""
    text, records, tracer = run_scenario(root)
    seen = [
        int(m.group(1))
        for r in records
        for key in ("span_id", "parent_id")
        for m in _BATCH.finditer(r.get(key) or "")
    ]
    rename = _renumber(seen)
    log = sorted(
        (
            [
                r["event"],
                r["level"],
                rename(r["span_id"]),
                rename(r["parent_id"]),
                sorted(r["fields"]),
            ]
            for r in records
        ),
        key=json.dumps,
    )
    trace = sorted(
        [e.name, sorted(e.args or {})]
        for e in tracer.events
        if e.ph == "i" and e.name.startswith(HOST_PREFIXES)
    )
    return {"metrics": normalize_exposition(text), "log": log, "trace": trace}


def test_scenario_telemetry_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    captured = capture(tmp_path)
    assert captured["metrics"] == golden["metrics"]
    assert captured["log"] == golden["log"]
    assert captured["trace"] == golden["trace"]


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        out.write_text(json.dumps(capture(Path(tmp)), indent=1) + "\n")
