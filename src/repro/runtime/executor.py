"""Sharded multi-process batch execution.

:class:`BatchRuntime` turns the serial one-launch-per-batch story into a
real execution runtime: a :class:`~repro.runtime.sharding.ProblemBatch`
is split into size-aware chunks, the chunks run on a
:class:`concurrent.futures.ProcessPoolExecutor`, each chunk's output
lands in its rows of the launch's result as it completes, and the
hardware counters and trace events merge back -- in submission order --
into a single :class:`~repro.runtime.merge.BatchReport`.

Guarantees the tests pin down:

* **bitwise determinism** -- chunk boundaries never depend on the worker
  count, every kernel is element-wise independent along the batch axis,
  and the merge is submission-ordered, so ``workers=4`` returns exactly
  the bytes ``workers=1`` does;
* **exact counters** -- merged registries equal the serial path's, by
  construction (same launches, same fold order);
* **graceful degradation** -- if the pool cannot be built or a worker
  dies, the launch falls back to in-process execution with a
  ``RuntimeWarning`` instead of crashing;
* **one pool per runtime** -- the pool starts at the runtime's first
  pooled launch, serves every later one, and shuts down with
  :meth:`BatchRuntime.close` (or the ``with`` block, or when the runtime
  is dropped); each chunk carries the launch's telemetry switches, so a
  worker records what the launch asks for, not what it was forked with;
* **zero-copy transport** -- beside its pool the runtime keeps one
  shared-memory :class:`~repro.runtime.arena.Arena`: a pooled chunk's
  input and output cross in its arena slot, never through a pipe, and
  the arena goes with the pool;
* **warm caches** -- the runtime's :class:`CalibrationCache` makes
  :func:`~repro.microbench.calibrate.calibrate` a once-per-device cost
  and its :class:`DispatchCache` memoizes approach rankings.

The convenience entry point :func:`run_batched` (re-exported from
:mod:`repro.kernels.batched`) covers the common one-op case::

    report = run_batched("lu", matrices, workers=4)
    report.output          # (batch, n, n) packed LU, identical to serial
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..analyze.sanitizer import sanitize_enabled, sanitizing
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..model.parameters import ModelParameters
from ..observe import log as _log
from ..observe import metrics as _metrics
from ..observe import profile as _profile
from ..observe.events import emit
from ..observe.history import RunHistory, run_record
from ..observe.tracer import current_tracer, tracing
from ..resilience.checkpoint import CheckpointStore, batch_fingerprint
from ..resilience.faults import resolve_faults
from ..resilience.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from ..resilience.quarantine import quarantine_chunk
from ..resilience.supervisor import (
    ChunkFailedError,
    WorkerPool,
    outcome_checksum,
    supervise_pool,
    supervise_serial,
)
from .arena import Arena, Slot, Slots, attach, unlink_attached
from .cache import CalibrationCache, DispatchCache, cache_dir
from .merge import BatchReport, ChunkOutcome, LaunchResults, merge_outcomes
from .sharding import DEFAULT_CHUNK_COST, ProblemBatch, plan_chunks

__all__ = ["BatchRuntime", "default_workers", "run_batched", "supported_ops"]


def supported_ops() -> list[str]:
    """Kernel names :func:`run_batched` accepts."""
    # Deferred: repro.kernels.device pulls in the whole kernel stack.
    from ..kernels.device.registry import RUNTIME_KERNELS

    return sorted(RUNTIME_KERNELS)


def default_workers() -> int:
    """Pool size when none is requested: the smaller of 4 and the CPUs."""
    return max(1, min(4, os.cpu_count() or 1))


#: Monotone batch sequence: every traced launch in this process gets a
#: unique profile scope (``batch:N``), so span ids never collide when
#: several launches fold into one tracer.
_BATCH_SEQ = itertools.count()


class Switches(NamedTuple):
    """The launch's telemetry switches, carried by each of its chunks.

    A kept worker was forked for an earlier launch, so its own globals
    may hold that launch's settings; :func:`_execute_chunk` sets these
    for the chunk and restores the process's own afterwards, inline and
    in a worker alike.
    """

    #: Whether fleet metrics record.
    metrics: bool
    #: The JSONL log's sink, or ``None`` with logging off.
    log: Optional[Path]
    #: Whether new engines attach the shared-memory sanitizer.
    sanitize: bool

    @classmethod
    def current(cls) -> "Switches":
        """The switches as this process has them set."""
        return cls(
            _metrics.metrics_enabled(),
            _log.default_logger().path if _log.log_enabled() else None,
            sanitize_enabled(),
        )

    @contextmanager
    def applied(self) -> Iterator[None]:
        """Set these switches for the body, then restore the previous."""
        was_metrics = _metrics.set_metrics_enabled(self.metrics)
        was_log = _log.set_log_enabled(self.log is not None)
        if self.log is not None:
            was_logger = _log.set_default_logger(_log.StructuredLogger(self.log))
        try:
            with sanitizing(self.sanitize):
                yield
        finally:
            if self.log is not None:
                _log.set_default_logger(was_logger)
            _log.set_log_enabled(was_log)
            _metrics.set_metrics_enabled(was_metrics)


def _execute_chunk(
    op: str,
    data: np.ndarray,
    kwargs: dict,
    traced: Union[bool, str],
    switches: Switches,
    chunk_index: int = 0,
    attempt: int = 0,
    nchunks: int = 1,
    faults=None,
) -> ChunkOutcome:
    """Run one chunk (in a worker or inline) and package the outcome.

    When fleet metrics are enabled, the chunk runs against a private
    :class:`~repro.observe.metrics.MetricsRegistry` that ships back with
    the outcome -- inline execution takes the same detour, so the
    launch-level fold (and therefore every metric total) is identical
    between the serial and sharded paths.

    ``switches`` are the launch's :class:`Switches`; the chunk runs
    under them whatever this process had set.

    ``traced`` is falsy (untraced), ``True`` (trace, no profile spans),
    or the batch's profile scope string: the worker then emits its side
    of the span tree -- a ``deserialize`` setup span and the ``attempt``
    span around the kernel -- stamped on the worker tracer's own clock,
    and ships the tracer's :class:`~repro.observe.tracer.ClockOrigin`
    back so the launch process can align the timelines at ingest.

    ``data`` is the chunk's input, or -- on the pool path -- the
    :class:`~repro.runtime.arena.Slot` holding it: the kernel then
    factors a view of the slot and the output is written back over it,
    and the outcome ships without one.

    ``chunk_index``/``attempt`` identify this execution to the optional
    :class:`~repro.resilience.faults.FaultPlan`, which fires its seeded
    crash/hang/corrupt injectors here -- in the worker, where the real
    failure would happen.  The outcome ships a content hash of the
    numerical payload so the supervisor can detect transport corruption.
    """
    entry = time.perf_counter()
    from ..kernels.device.registry import RUNTIME_KERNELS

    info = RUNTIME_KERNELS.get(op)
    if info is None:
        raise ValueError(f"unknown batched op {op!r}; supported: {supported_ops()}")
    if faults is not None:
        faults.apply_pre(chunk_index, attempt, nchunks)
    slot = None
    if isinstance(data, Slot):
        data = slot = attach(data)
    scope = traced if isinstance(traced, str) else None
    with switches.applied():
        local_metrics = previous_metrics = None
        if switches.metrics:
            local_metrics = _metrics.MetricsRegistry()
            previous_metrics = _metrics.set_default_registry(local_metrics)
        start = time.perf_counter()
        dropped = 0
        clock = None
        try:
            if traced:
                with tracing() as tracer:
                    kernel_start = tracer.now()
                    result = info.call(data, **kwargs)
                    if scope is not None:
                        _emit_worker_spans(
                            tracer,
                            scope,
                            chunk_index,
                            attempt,
                            op,
                            entry=entry,
                            start=start,
                            kernel_start=kernel_start,
                        )
                events = list(tracer.events)
                registry = tracer.counters
                dropped = tracer.dropped
                clock = tracer.origin
            else:
                result = info.call(data, **kwargs)
                events = []
                registry = None
        finally:
            if local_metrics is not None:
                _metrics.set_default_registry(previous_metrics)
        digest = outcome_checksum(result.output, result.extra)
        wall_s = time.perf_counter() - start
        # The trace holds this attempt as its ``attempt`` span (see
        # ``events.SPANNED``); the record carries that span's ids.
        chunk_id = f"{scope}/chunk:{chunk_index}" if scope else None
        emit(
            "worker.attempt",
            span_id=f"{chunk_id}/attempt:{attempt}" if chunk_id else None,
            parent_id=chunk_id,
            op=op,
            chunk=chunk_index,
            attempt=attempt,
            wall_s=wall_s,
            dropped=dropped,
        )
    output = result.output
    if faults is not None:
        # Corruption is injected *after* the checksum, simulating a
        # payload mangled in transit; the supervisor must catch it.
        output = faults.apply_corrupt(chunk_index, attempt, nchunks, output)
    if slot is not None:
        # The kernels copy their input first, so the output may overwrite it.
        slot[...] = output
        output = None
    return ChunkOutcome(
        output=output,
        extra=result.extra,
        launch=result.launch,
        wall_s=wall_s,
        events=events,
        registry=registry,
        pid=os.getpid(),
        dropped=dropped,
        metrics=local_metrics,
        checksum=digest,
        clock=clock,
    )


def _emit_worker_spans(
    tracer,
    scope: str,
    chunk_index: int,
    attempt: int,
    op: str,
    *,
    entry: float,
    start: float,
    kernel_start: float,
) -> None:
    """The worker's side of the batch span tree, on its own clock.

    ``deserialize`` covers chunk setup (fault hooks, metrics registry
    swap) from function entry to the traced block; ``attempt`` covers
    the kernel proper.  Both carry explicit ids under the chunk span, so
    retries land as sibling ``attempt:{k}`` spans.
    """
    pid = os.getpid()
    chunk_id = f"{scope}/chunk:{chunk_index}"
    attempt_id = f"{chunk_id}/attempt:{attempt}"
    origin = tracer.origin.perf
    tracer.complete(
        "deserialize",
        _profile.PROFILE_CATEGORY,
        ts=entry - origin,
        dur=max(0.0, start - entry),
        span_id=f"{chunk_id}/deserialize:{attempt}",
        parent_id=chunk_id,
        chunk=chunk_index,
        attempt=attempt,
        worker=pid,
    )
    tracer.complete(
        "attempt",
        _profile.PROFILE_CATEGORY,
        ts=kernel_start,
        dur=max(0.0, tracer.now() - kernel_start),
        span_id=attempt_id,
        parent_id=chunk_id,
        chunk=chunk_index,
        attempt=attempt,
        op=op,
        worker=pid,
    )


def _degrade(exc: Exception, scope: Optional[str]) -> None:
    """Warn that the pool failed and record the serial fallback."""
    warnings.warn(
        f"sharded execution failed ({exc!r}); "
        "degrading to serial in-process execution",
        RuntimeWarning,
        stacklevel=3,
    )
    emit(
        "runtime.serial_fallback",
        level="warning",
        span_id=scope,
        error=type(exc).__name__,
    )


def _release(pool: WorkerPool, arena: Arena) -> None:
    """Shut ``pool`` down and unlink ``arena``: what a runtime holds."""
    pool.close()
    arena.close()


class BatchRuntime:
    """Sharded executor with persistent calibration/dispatch caches.

    The runtime keeps one process pool for its whole life: the first
    launch with more than one chunk starts it, every later launch runs
    on it, and :meth:`close` -- or leaving a ``with BatchRuntime(...)``
    block, or dropping the runtime -- shuts it down.  The pool's
    shared-memory arena lives as long: made at the first pooled launch,
    grown when a launch needs more, unlinked by the same three exits.

    Parameters
    ----------
    workers:
        Process-pool size; ``None`` means :func:`default_workers`, and
        ``1`` executes the identical chunk plan in-process (the "serial
        path" every parallel guarantee is defined against).
    chunk_cost:
        Per-chunk FLOP budget handed to
        :func:`~repro.runtime.sharding.plan_chunks`.
    device:
        Simulated device kernels run against (also the cache key).
    use_caches:
        When ``False``, no cache files are read or written (calibration
        runs every time and dispatch rankings are not memoized).
    history:
        Run-history destination.  The default (``None``) co-locates a
        ``history.jsonl`` with the caches when ``use_caches`` is on and
        records nothing otherwise; pass ``False`` to disable, ``True``
        for the default location, a path, or a ready
        :class:`~repro.observe.history.RunHistory`.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``,
        falling back to the platform default where unavailable.  The
        pool starts once per runtime (and again after a rebuild or a
        :meth:`close`), so the method's startup cost is paid once, not
        per launch.
    retry_policy:
        Per-chunk :class:`~repro.resilience.policy.RetryPolicy`
        (deadline, retry count, backoff); the default retries twice with
        no deadline.
    faults:
        Deterministic fault injection: a
        :class:`~repro.resilience.faults.FaultPlan`, a single
        :class:`~repro.resilience.faults.FaultSpec`, or a spec string
        (``"crash@0;hang@2:sleep=30"``).  ``None`` reads
        ``REPRO_FAULTS`` from the environment; no faults otherwise.
    checkpoint:
        Opt-in chunk journal for resumable runs: ``True`` (under the
        cache root), a directory path, or a ready
        :class:`~repro.resilience.checkpoint.CheckpointStore`.
    params:
        Table-IV :class:`~repro.model.parameters.ModelParameters` the
        caller already holds for ``device`` (keyword-only); the runtime
        then never calibrates.  A sweep passes its one calibration to
        every runtime it builds.  ``None`` (the default) calibrates on
        first use (:meth:`parameters`).  ``params.device`` must equal
        ``device``, else ``ValueError``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_cost: float = DEFAULT_CHUNK_COST,
        device: DeviceSpec = QUADRO_6000,
        use_caches: bool = True,
        cache_directory=None,
        history=None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults=None,
        checkpoint=None,
        *,
        params: Optional[ModelParameters] = None,
    ) -> None:
        if params is not None and params.device != device:
            raise ValueError(
                f"params were calibrated for {params.device.name}, "
                f"not for the runtime's device {device.name}"
            )
        self.workers = default_workers() if workers is None else max(1, int(workers))
        self.chunk_cost = float(chunk_cost)
        self.device = device
        self.calibration_cache = (
            CalibrationCache(cache_directory) if use_caches else None
        )
        self.dispatch_cache = (
            DispatchCache(device, directory=cache_directory) if use_caches else None
        )
        self.history = self._resolve_history(history, use_caches, cache_directory)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.retry_policy = (
            DEFAULT_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.faults = resolve_faults(faults)
        self.checkpoint = self._resolve_checkpoint(
            checkpoint, cache_directory, self.faults
        )
        self._params = params
        self._pool = WorkerPool(self.workers, start_method, orphaned=unlink_attached)
        self._arena = Arena()
        # Shuts the pool down and unlinks the arena when the runtime is
        # dropped or the interpreter exits; ``close`` does it on demand.
        weakref.finalize(self, _release, self._pool, self._arena)

    def close(self) -> None:
        """Shut down the worker pool, wait for its workers, unlink the arena.

        Idempotent.  A closed runtime stays usable: its next pooled
        launch starts a fresh pool and a fresh arena.
        """
        _release(self._pool, self._arena)

    def __enter__(self) -> "BatchRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _resolve_checkpoint(
        checkpoint, cache_directory, faults
    ) -> Optional[CheckpointStore]:
        if checkpoint in (None, False):
            return None
        if isinstance(checkpoint, CheckpointStore):
            return checkpoint
        if checkpoint is True:
            root = Path(cache_directory) if cache_directory else cache_dir()
            return CheckpointStore(root / "checkpoints", faults=faults)
        return CheckpointStore(Path(checkpoint), faults=faults)

    @staticmethod
    def _resolve_history(
        history, use_caches: bool, cache_directory
    ) -> Optional[RunHistory]:
        if history is False:
            return None
        if isinstance(history, RunHistory):
            return history
        if history is True:
            return RunHistory()
        if history is not None:  # a path
            return RunHistory(history)
        # Default: ride with the caches (hermetic cache dir -> hermetic
        # history), and stay silent when caching is off entirely.
        if not use_caches:
            return None
        if cache_directory is not None:
            return RunHistory(Path(cache_directory) / "history.jsonl")
        return RunHistory()

    # ------------------------------------------------------------------
    # Cached decision products
    # ------------------------------------------------------------------
    def parameters(self) -> ModelParameters:
        """Table-IV parameters for this device, calibrating at most once.

        The ``params`` the runtime was built with, if any; otherwise a
        warm :class:`CalibrationCache` skips the microbenchmark sweep
        entirely (no ``calibrate`` span is emitted).  The result is
        memoized on the runtime instance.
        """
        if self._params is None:
            from ..microbench.calibrate import calibrate

            self._params = calibrate(self.device, cache=self.calibration_cache)
        return self._params

    def rank(self, work):
        """Approach ranking for ``work`` through the dispatch cache.

        The cache is first scoped to this runtime's calibrated
        parameters, so a recalibration (new device spec, hand-edited
        latencies) invalidates memos ranked under the old numbers.
        """
        from ..approaches.dispatch import rank_approaches

        if self.dispatch_cache is not None:
            self.dispatch_cache.bind_params(self.parameters())
        return rank_approaches(work, cache=self.dispatch_cache)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, batch: ProblemBatch, **kernel_kwargs) -> BatchReport:
        """Execute ``batch`` and merge everything into one report.

        ``kernel_kwargs`` (e.g. ``fast_math=False``) pass through to
        every kernel launch.  When a tracer is active in the calling
        thread, worker-side events and counters are folded back into it
        with per-chunk ``shard``/``worker`` tags.

        Failure handling (see :mod:`repro.resilience`): chunk attempts
        are supervised (deadline + retries + pool rebuild), numerical
        breakdowns quarantine their problem slot onto
        ``report.failures``, and an attached checkpoint store lets a
        killed run resume from its last journaled chunk.
        """
        known = supported_ops()
        for group in batch.groups:
            # Validate before submission: an unknown op must fail the
            # caller with a clean ValueError, not surface as a pickled
            # worker exception (and a spurious serial-fallback warning).
            if group.op not in known:
                raise ValueError(
                    f"unknown batched op {group.op!r}; supported: {known}"
                )
        kwargs = dict(kernel_kwargs)
        kwargs.setdefault("device", self.device)
        tracer = current_tracer()
        traced = tracer is not None
        emitter = None
        if traced and _profile.profiling_enabled():
            mark = tracer.appended
            emitter = _profile.ProfileEmitter(tracer, f"batch:{next(_BATCH_SEQ)}")
        batch_start = emitter.now() if emitter is not None else 0.0
        chunks = plan_chunks(batch, self.chunk_cost)
        scope = emitter.scope if emitter is not None else None
        # Workers receive the profile scope (a string) so their attempt
        # spans carry fully-scoped ids; plain ``True`` traces without
        # profile spans, ``False`` is the untraced hot path.
        trace_token: Union[bool, str] = scope if scope is not None else traced
        switches = Switches.current()
        payloads = [
            (
                batch.groups[chunk.group].op,
                batch.groups[chunk.group].data[chunk.start : chunk.stop],
                kwargs,
                trace_token,
                switches,
            )
            for chunk in chunks
        ]
        plan_id = emitter.span_id("plan") if emitter is not None else None
        if emitter is not None:
            emitter.emit(
                "plan",
                batch_start,
                span_id=plan_id,
                parent_id=scope,
                chunks=len(chunks),
                problems=batch.total_problems,
            )
        emit(
            "runtime.plan",
            span_id=plan_id,
            parent_id=scope,
            chunks=len(chunks),
            problems=batch.total_problems,
            workers=self.workers,
        )

        fingerprint = None
        resumed: dict[int, ChunkOutcome] = {}
        if self.checkpoint is not None:
            fingerprint = batch_fingerprint(batch, self.chunk_cost, kwargs)
            resumed = {
                index: outcome
                for index, outcome in self.checkpoint.resume(fingerprint).items()
                if index < len(chunks)
            }

        results = LaunchResults(batch)
        landed: dict[int, ChunkOutcome] = {}
        failures: list = []

        def land(index: int, outcome: ChunkOutcome, journal: bool = True) -> None:
            """Put a verified outcome in the result: copy, journal, scan."""
            chunk = chunks[index]
            outcome.output, outcome.extra = results.land(
                chunk, outcome.output, outcome.extra
            )
            landed[index] = outcome
            if journal and fingerprint is not None:
                # Journaled before the scan masks it: a resume re-scans
                # the raw output and finds the same reasons.
                self.checkpoint.record(fingerprint, index, outcome)
                emit(
                    "checkpoint.record",
                    level="debug",
                    span_id=f"{scope}/chunk:{index}" if scope else None,
                    parent_id=scope,
                    chunk=index,
                )
            op = batch.groups[chunk.group].op
            failures.extend(quarantine_chunk(op, chunk, outcome.output, outcome.extra))

        for index, outcome in resumed.items():
            land(index, outcome, journal=False)
        entries = [
            (index, payloads[index])
            for index in range(len(chunks))
            if index not in resumed
        ]

        execute_start = emitter.now() if emitter is not None else 0.0
        start = time.perf_counter()
        mode = "serial"
        if not entries:
            mode = "resumed"
        else:
            if self.workers > 1 and len(entries) > 1:
                try:
                    self._run_pool(entries, land, nchunks=len(chunks), profile=emitter)
                    mode = "process"
                except ChunkFailedError:
                    # Retries and the inline rescue are already spent;
                    # a serial re-run cannot fix this chunk and would
                    # re-execute completed ones.
                    raise
                except Exception as exc:
                    _degrade(exc, scope)
                    mode = "serial-fallback"
            if mode != "process":
                # Chunks a failed pool pass already landed stay landed.
                supervise_serial(
                    [entry for entry in entries if entry[0] not in landed],
                    execute=_execute_chunk,
                    policy=self.retry_policy,
                    faults=self.faults,
                    nchunks=len(chunks),
                    on_complete=land,
                    profile=emitter,
                )
        outcomes = [landed[index] for index in range(len(chunks))]
        failures.sort(key=lambda f: (f.group, f.index))
        if emitter is not None:
            emitter.emit(
                "execute",
                execute_start,
                span_id=emitter.span_id("execute"),
                parent_id=scope,
                chunks=len(chunks),
                mode=mode,
            )
        merge_start = emitter.now() if emitter is not None else 0.0
        wall_s = time.perf_counter() - start
        if self.checkpoint is not None:
            # Every outcome is in hand and in the result; the journal has
            # served its purpose.
            self.checkpoint.clear()

        if traced:
            for chunk, outcome in zip(chunks, outcomes):
                if outcome.registry is not None:
                    tracer.counters.merge(outcome.registry)
                tracer.ingest(
                    outcome.events,
                    dropped=outcome.dropped,
                    clock=outcome.clock,
                    shard=chunk.index,
                    worker=outcome.pid,
                )
        dropped = sum(outcome.dropped for outcome in outcomes)
        if dropped:
            emit(
                "runtime.trace_dropped",
                level="warning",
                span_id=scope,
                dropped=dropped,
            )
        if resumed:
            emit(
                "resilience.resume",
                span_id=scope,
                skipped=len(resumed),
                chunks=len(chunks),
            )
        quarantined = Counter((f.op, f.reason) for f in failures)
        for (op, reason), problems in sorted(quarantined.items()):
            emit(
                "runtime.quarantine",
                level="warning",
                span_id=scope,
                op=op,
                reason=reason,
                problems=problems,
            )
        emit(
            "runtime.launch",
            span_id=scope,
            mode=mode,
            chunks=len(chunks),
            workers=self.workers,
            problems=batch.total_problems,
            failures=len(failures),
            wall_s=wall_s,
        )

        report = merge_outcomes(
            batch,
            chunks,
            outcomes,
            workers=self.workers,
            mode=mode,
            wall_s=wall_s,
            results=results,
        )
        if emitter is not None:
            merge_end = emitter.now()
            emitter.emit(
                "merge",
                merge_start,
                merge_end,
                span_id=emitter.span_id("merge"),
                parent_id=scope,
                chunks=len(chunks),
            )
            emitter.emit(
                "batch",
                batch_start,
                merge_end,
                span_id=scope,
                parent_id=None,
                problems=batch.total_problems,
                chunks=len(chunks),
                workers=self.workers,
                mode=mode,
            )
            # Only this launch's events can hold its spans.
            roots = _profile.build_span_trees(tracer.since(mark), scope=scope)
            batch_root = next((r for r in roots if r.name == "batch"), None)
            if batch_root is not None:
                report.profile = _profile.compute_profile(batch_root)
        report.failures = failures
        report.params = self.parameters()
        self._observe_run(batch, chunks, outcomes, report)
        return report

    def _observe_run(self, batch, chunks, outcomes, report: BatchReport) -> None:
        """Fold chunk telemetry into the fleet registry + run history.

        Regime classification always lands on the report (it is part of
        the result); registry writes honor the global metrics flag, and
        the history append happens whenever this runtime carries a
        :class:`RunHistory`.  Telemetry failures never fail the launch.
        """
        from ..observe.regime import classify_regime, record_regime

        attributions = []
        try:
            from ..observe.attribution import attribute_launch

            for group_result in report.results:
                attributions.append(
                    attribute_launch(
                        report.params, group_result.launch, label=group_result.op
                    )
                )
            report.regimes = [classify_regime(a) for a in attributions]
        except (ValueError, KeyError, AttributeError) as exc:
            # Attribution is best-effort decoration, but a launch losing
            # its regimes must be *visible*, not silently blank.
            attributions = []
            emit(
                "observe.attribution_error",
                level="warning",
                error=type(exc).__name__,
                detail=str(exc)[:200],
            )

        if _metrics.metrics_enabled():
            registry = _metrics.default_registry()
            # Worker registries fold in submission order -- the same
            # fold the inline path takes, so serial == sharded totals.
            for outcome in outcomes:
                if outcome.metrics is not None:
                    registry.merge(outcome.metrics)
            for chunk, outcome in zip(chunks, outcomes):
                op = batch.groups[chunk.group].op
                registry.inc(
                    "repro_runtime_chunks_total",
                    help="Chunks executed, by op/mode/worker pid.",
                    op=op,
                    mode=report.mode,
                    worker=outcome.pid,
                )
                registry.observe(
                    "repro_chunk_wall_seconds",
                    outcome.wall_s,
                    help="Per-chunk kernel wall time.",
                    op=op,
                )
                registry.observe(
                    "repro_chunk_queue_wait_seconds",
                    outcome.queue_wait_s,
                    help="Per-chunk time between submission and execution.",
                    op=op,
                )
                registry.inc(
                    "repro_chunk_problems_total",
                    chunk.problems,
                    help="Problems executed per chunk, by op and shard.",
                    op=op,
                    shard=chunk.index,
                )
            for group_result, group in zip(report.results, batch.groups):
                registry.inc(
                    "repro_runtime_problems_total",
                    group_result.problems,
                    help="Problems factored, by op.",
                    op=group_result.op,
                )
                registry.inc(
                    "repro_runtime_flops_total",
                    group.cost,
                    help="Useful FLOPs executed, by op.",
                    op=group_result.op,
                )
                registry.inc(
                    "repro_runtime_bytes_total",
                    float(group.data.nbytes) * 2.0,
                    help="Operand bytes moved (read + write), by op.",
                    op=group_result.op,
                )
                registry.set(
                    "repro_runtime_gflops",
                    group_result.gflops,
                    help="Simulated throughput of the latest launch, by op.",
                    op=group_result.op,
                )
            for classification in report.regimes:
                record_regime(
                    classification, registry=registry, op=classification.label
                )
            if report.profile is not None:
                for phase, seconds in report.profile.phases.items():
                    registry.observe(
                        "repro_batch_phase_seconds",
                        max(0.0, seconds),
                        help="Batch latency decomposition, by phase.",
                        phase=phase,
                    )
                registry.set(
                    "repro_batch_straggler_index",
                    report.profile.straggler_index,
                    help="Max/median chunk compute time of the latest launch.",
                )
                registry.set(
                    "repro_batch_queue_share",
                    report.profile.queue_share,
                    help="Share of chunk time spent queued, latest launch.",
                )

        if self.history is not None:
            try:
                self.history.append(
                    run_record(
                        report.summary(),
                        regimes=report.regimes,
                        attribution=[
                            {
                                "label": a.label,
                                "residual_total": a.residual_total,
                                "measured_total": a.measured_total,
                                "eq_total": a.eq_total,
                            }
                            for a in attributions
                        ],
                        device=self.device.name,
                        # The profiler scope joins this record to its
                        # trace tree, log lines, and any alert raised
                        # over it -- one id across all three.
                        span_id=(
                            report.profile.scope
                            if report.profile is not None
                            else None
                        ),
                        profile=(
                            report.profile.summary()
                            if report.profile is not None
                            else None
                        ),
                    )
                )
            except OSError:
                pass

    def _run_pool(
        self,
        entries: list,
        record=None,
        nchunks: Optional[int] = None,
        profile=None,
    ) -> dict[int, ChunkOutcome]:
        """Supervised execution of ``(index, payload)`` entries on the pool.

        Each entry gets a slot in the runtime's arena (made or grown
        first: an ``OSError`` here means no shared memory, and the
        caller degrades).  ``record`` must copy each outcome's output out
        of its slot, which the next launch reuses.
        """
        if nchunks is None:
            nchunks = max(index for index, _ in entries) + 1
        outcomes, _ = supervise_pool(
            entries,
            execute=_execute_chunk,
            pool=self._pool,
            policy=self.retry_policy,
            faults=self.faults,
            nchunks=nchunks,
            on_complete=record,
            profile=profile,
            slots=Slots(self._arena, entries),
        )
        return outcomes


def run_batched(
    op: str,
    problems: Union[np.ndarray, Sequence[np.ndarray]],
    runtime: Optional[BatchRuntime] = None,
    workers: Optional[int] = None,
    **kernel_kwargs,
) -> BatchReport:
    """Factor ``problems`` under kernel ``op`` on a sharded runtime.

    ``problems`` is one ``(batch, m, n)`` array or a sequence of them
    (mixed sizes -> one group each).  Supply a configured ``runtime`` to
    reuse its pool and caches, or just a ``workers`` count for a
    throwaway runtime, whose pool is shut down before this returns.
    """
    if runtime is not None and workers is not None:
        raise ValueError("pass either runtime or workers, not both")
    if isinstance(problems, np.ndarray):
        batch = ProblemBatch.single(op, problems)
    else:
        batch = ProblemBatch.mixed(op, list(problems))
    if runtime is not None:
        return runtime.run(batch, **kernel_kwargs)
    with BatchRuntime(workers=workers) as throwaway:
        return throwaway.run(batch, **kernel_kwargs)
