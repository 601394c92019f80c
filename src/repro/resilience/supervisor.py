"""Per-chunk supervision: deadlines, retries, pool rebuilds, inline rescue.

A bare pool has one recovery path -- any worker exception throws away
every completed chunk and re-runs the whole batch serially.  The
supervisor makes failure *per chunk*:

* every attempt gets a wall-clock **deadline** (``RetryPolicy.timeout_s``;
  ``None`` disables) -- an overdue attempt's worker is killed and the
  chunk resubmitted;
* a failed attempt (worker exception, checksum mismatch, broken pool) is
  **retried** up to ``RetryPolicy.max_retries`` times; a pool
  resubmission first waits the policy's capped exponential backoff;
* a **broken pool** (worker died hard) is torn down and rebuilt; chunks
  that were merely in flight at teardown time are resubmitted without
  burning a retry, and the rebuilt pool is the one later launches use;
* a chunk that exhausts its retries runs **inline** in the launch
  process as a last resort; only an inline failure surfaces, as
  :class:`ChunkFailedError` -- and by then every other chunk's outcome
  is already safe (and journaled, when checkpointing is on).

:func:`supervise_serial` gives each chunk the same budget --
``max_retries`` retries, then the ``inline`` last resort -- so one fault
plan has one outcome at any worker count.  Its attempts all run in the
launch process, so they neither back off nor time out: there is no
worker or pool to wait for.

Completed chunks are never re-executed, and outcomes are keyed by chunk
index, so the submission-order merge -- and therefore bitwise output
determinism -- is untouched by any amount of retrying.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import zlib
from collections import Counter, deque
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..observe.events import emit
from .policy import RetryPolicy

__all__ = [
    "ChunkFailedError",
    "ChunkSpans",
    "SuperviseStats",
    "WorkerPool",
    "outcome_checksum",
    "supervise_pool",
    "supervise_serial",
]


class ChunkFailedError(RuntimeError):
    """A chunk failed its pool retries *and* the inline last resort.

    Deliberately not swallowed by the runtime's serial-fallback guard:
    re-running the whole batch cannot fix a chunk that already failed
    inline, and doing so would re-execute completed chunks.
    """

    def __init__(self, index: int, op: str, reason: str) -> None:
        super().__init__(
            f"chunk {index} ({op}) failed permanently after retries: {reason}"
        )
        self.index = index
        self.op = op
        self.reason = reason


@dataclasses.dataclass
class SuperviseStats:
    """Recovery events of one launch.

    Each noted event is emitted once, when it happens, as
    ``resilience.<kind>`` (:func:`~repro.observe.events.emit`).
    ``scope`` is the launch's profile scope (``batch:N``) when the run
    is profiled; the record is then stamped with the chunk's span id,
    so a retry in the log joins its ``attempt:k`` span in the
    flamegraph.
    """

    #: Events noted so far, by kind: ``retry`` / ``timeout`` /
    #: ``inline`` / ``rebuild``.
    counts: Counter = dataclasses.field(default_factory=Counter)
    scope: Optional[str] = None

    def note(self, kind: str, **args) -> None:
        self.counts[kind] += 1
        chunk = args.get("chunk")
        span_id = (
            f"{self.scope}/chunk:{chunk}"
            if self.scope is not None and chunk is not None
            else self.scope
        )
        emit(
            f"resilience.{kind}",
            level="warning",
            span_id=span_id,
            parent_id=self.scope,
            **args,
        )

    @property
    def retries(self) -> int:
        return self.counts["retry"]


def outcome_checksum(output: np.ndarray, extra: Optional[np.ndarray]) -> str:
    """Content checksum of a chunk's numerical payload.

    Computed in the worker before the outcome crosses the process
    boundary and verified by the supervisor after -- a mismatch means the
    payload was corrupted in transit (or by an injected fault) and the
    chunk must be retried, not merged.

    CRC32 over the raw array buffers, not a cryptographic hash: the
    adversary is a flipped bit, and the supervisor re-hashes every chunk
    on the launch process's critical path (a pooled chunk's over its
    arena slot), so throughput is what keeps the failure-free overhead
    tripwire (<2%) honest.
    """
    value = zlib.crc32(np.ascontiguousarray(output))
    if extra is not None:
        value = zlib.crc32(np.ascontiguousarray(np.asarray(extra)), value)
    return format(value, "08x")


def _verified(outcome) -> bool:
    checksum = getattr(outcome, "checksum", None)
    if checksum is None:
        return True
    return outcome_checksum(outcome.output, outcome.extra) == checksum


Entry = Tuple[int, tuple]  # (chunk index, payload for ``execute``)


def _exit_with_parent(orphaned: Optional[Callable[[], None]] = None) -> None:
    """Pool initializer: end this worker when its parent process dies.

    An idle worker blocks reading the call queue, whose write end it
    holds itself, so without this it would outlive a launch process
    killed by a signal.  ``orphaned`` runs first: what the dead parent
    can no longer release, the worker releases on its way out.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        if orphaned is not None:
            orphaned()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class WorkerPool:
    """The one process pool of a runtime, kept across its launches.

    :meth:`executor` builds the pool on first use and returns the same
    live pool to every later launch.  :meth:`kill` (a broken pool, a
    missed deadline, an error exit) and :meth:`close` drop it; the next
    :meth:`executor` call then builds a fresh one.  Nothing else builds,
    kills or shuts down a pool.  ``orphaned`` (a picklable callable)
    runs in a worker whose parent died, before it exits.
    """

    def __init__(
        self,
        max_workers: int,
        start_method: str,
        orphaned: Optional[Callable[[], None]] = None,
    ) -> None:
        self.max_workers = max_workers
        self.start_method = start_method
        self.orphaned = orphaned
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def executor(self) -> concurrent.futures.ProcessPoolExecutor:
        """The live pool, built if there is none."""
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_exit_with_parent,
                initargs=(self.orphaned,),
            )
        return self._executor

    @property
    def processes(self) -> list:
        """The live pool's worker processes (none before its first task)."""
        if self._executor is None:
            return []
        # ``_processes`` is a stable CPython internal; ``None`` once the
        # executor has shut down.
        return list((self._executor._processes or {}).values())

    def kill(self) -> None:
        """Kill the workers, wait until they are reaped, and drop the pool.

        ``shutdown`` alone would wait on (or leak) a hung worker; a
        deadline is only real if the worker actually dies.  Once every
        worker is dead, the executor's own thread fails what was in
        flight and reaps them, so the ``shutdown`` wait is short.
        """
        processes = self.processes
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for proc in processes:
            proc.kill()
        executor.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down and wait for its workers; idempotent."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class ChunkSpans:
    """Per-chunk profile bookkeeping for the supervisor paths.

    Wraps a :class:`~repro.observe.profile.ProfileEmitter` (or ``None``
    -- every method is then a no-op) and emits the parent-side spans of
    the batch tree: one ``submit`` span per submission (retries and
    forgiven resubmissions become visible siblings) and one ``chunk``
    span from first submission to final completion.
    """

    __slots__ = ("emitter", "first_submit", "seq")

    def __init__(self, emitter) -> None:
        self.emitter = emitter
        self.first_submit: Dict[int, float] = {}
        self.seq: Dict[int, int] = {}

    def chunk_id(self, index: int) -> str:
        return self.emitter.span_id(f"chunk:{index}")

    def submit(self, index: int, start: float, end: float, **args) -> None:
        if self.emitter is None:
            return
        seq = self.seq.get(index, 0)
        self.seq[index] = seq + 1
        self.first_submit.setdefault(index, start)
        self.emitter.emit(
            "submit",
            start,
            end,
            span_id=f"{self.chunk_id(index)}/submit:{seq}",
            parent_id=self.chunk_id(index),
            chunk=index,
            submission=seq,
            **args,
        )

    def complete(self, index: int, end: float, **args) -> None:
        if self.emitter is None:
            return
        start = self.first_submit.get(index, end)
        self.emitter.emit(
            "chunk",
            start,
            end,
            span_id=self.chunk_id(index),
            parent_id=self.emitter.span_id("execute"),
            chunk=index,
            **args,
        )

    def now(self) -> float:
        return self.emitter.now() if self.emitter is not None else 0.0


def _attempt_inline(
    execute: Callable,
    index: int,
    payload: tuple,
    attempt: int,
    *,
    nchunks: int,
    faults,
    spans: ChunkSpans,
    inline: bool,
) -> Tuple[object, Optional[str], Optional[BaseException]]:
    """One attempt of chunk ``index`` in the launch process.

    Returns ``(outcome, None, None)`` for a verified outcome, else
    ``(None, reason, exception)`` with ``reason`` ``"crash"`` or
    ``"corrupt"``.  The submission is an instantaneous hand-off, so its
    span is zero-width; ``inline`` marks the last-resort attempt.
    """
    start = spans.now()
    span_args = {"inline": True} if inline else {}
    spans.submit(index, start, start, attempt=attempt, op=payload[0], **span_args)
    try:
        outcome = execute(
            *payload,
            chunk_index=index,
            attempt=attempt,
            nchunks=nchunks,
            faults=faults,
        )
    except Exception as exc:  # noqa: BLE001 -- the caller retries or gives up
        return None, "crash", exc
    if not _verified(outcome):
        return None, "corrupt", None
    return outcome, None, None


def supervise_serial(
    entries: Sequence[Entry],
    *,
    execute: Callable,
    policy: RetryPolicy,
    faults=None,
    nchunks: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    profile=None,
) -> Tuple[Dict[int, object], SuperviseStats]:
    """Run chunks inline with the pool's attempt budget.

    A failed chunk is retried ``policy.max_retries`` times and then gets
    one last-resort attempt, noted as ``inline`` -- exactly what
    :func:`supervise_pool` gives it -- so a crash or corruption plan
    leaves the same output and the same ``retry``/``inline`` counts at
    any worker count.  Only a failed last resort raises
    :class:`ChunkFailedError`.  Every attempt runs at once: there is no
    worker to kill or pool to wait for, so ``backoff_s`` and
    ``timeout_s`` do not apply here.  ``profile`` is an optional
    :class:`~repro.observe.profile.ProfileEmitter`: inline execution
    emits the same ``chunk``/``submit`` span structure as the pool
    (submissions are instantaneous hand-offs, so their spans are
    zero-width), keeping serial and sharded trees comparable.
    """
    outcomes: Dict[int, object] = {}
    stats = SuperviseStats(scope=profile.scope if profile is not None else None)
    spans = ChunkSpans(profile)
    for index, payload in entries:
        op = payload[0]
        for attempt in range(policy.max_retries + 2):
            rescue = attempt > policy.max_retries
            if rescue:
                stats.note("inline", chunk=index, reason=reason, op=op)
            elif attempt:
                stats.note("retry", chunk=index, attempt=attempt, reason=reason, op=op)
            outcome, reason, exc = _attempt_inline(
                execute,
                index,
                payload,
                attempt,
                nchunks=nchunks,
                faults=faults,
                spans=spans,
                inline=rescue,
            )
            if reason is None:
                break
        else:
            raise ChunkFailedError(index, op, reason) from exc
        outcomes[index] = outcome
        spans.complete(index, spans.now(), op=op, attempts=attempt + 1)
        if on_complete is not None:
            on_complete(index, outcome)
    return outcomes, stats


def supervise_pool(
    entries: Sequence[Entry],
    *,
    execute: Callable,
    pool: WorkerPool,
    policy: RetryPolicy,
    faults=None,
    nchunks: int = 1,
    on_complete: Optional[Callable[[int, object], None]] = None,
    profile=None,
    slots=None,
) -> Tuple[Dict[int, object], SuperviseStats]:
    """Run chunks on a supervised process pool; see the module docstring.

    Returns ``(outcomes by chunk index, stats)``.  Raises
    :class:`ChunkFailedError` only when a chunk fails its retries *and*
    its inline last resort.  ``pool`` is borrowed: the launch runs on
    its live pool (building one if it has none), and a clean return
    leaves the pool alive -- the rebuilt one, after a broken pool or a
    missed deadline -- for the next launch.  Any error exit kills it.
    ``profile`` is an optional
    :class:`~repro.observe.profile.ProfileEmitter`; when set, every
    submission (including retries and forgiven resubmissions) and every
    chunk completion lands in the batch span tree.

    ``slots`` (a :class:`~repro.runtime.arena.Slots`) moves each pool
    attempt's input and output through shared memory: before every
    submission ``slots.load(index, payload)`` copies the chunk's input
    into its slot and gives the payload the worker runs, and a returned
    outcome's ``output`` is the slot (``slots.view(index)``), verified
    there.  The slot is reused, so ``on_complete`` must copy the output
    out.  A deadline or a broken pool kills the workers before any
    resubmission, so no stale attempt writes a reloaded slot.  Inline
    attempts run on the entries' own payloads.
    """
    outcomes: Dict[int, object] = {}
    stats = SuperviseStats(scope=profile.scope if profile is not None else None)
    if not entries:
        return outcomes, stats
    spans = ChunkSpans(profile)
    payloads = dict(entries)
    attempts = {index: 0 for index, _ in entries}
    ready: deque[int] = deque(index for index, _ in entries)
    #: future -> (index, submitted_ts, deadline, pool generation)
    inflight: Dict[
        concurrent.futures.Future, Tuple[int, float, Optional[float], int]
    ] = {}
    done_at: Dict[int, float] = {}
    #: chunks whose pool was torn down under them through no fault of
    #: their own -- resubmitted without consuming a retry.
    forgiven: set[int] = set()
    generation = 0

    def run_inline(index: int, reason: str) -> None:
        op = payloads[index][0]
        stats.note("inline", chunk=index, reason=reason, op=op)
        # The rescue is a fresh attempt, not a replay of the last failed
        # one -- fault plans count attempts, so a fault scoped to the
        # pool attempts (count = max_retries + 1) leaves this run clean.
        attempts[index] += 1
        outcome, failure, exc = _attempt_inline(
            execute,
            index,
            payloads[index],
            attempts[index],
            nchunks=nchunks,
            faults=faults,
            spans=spans,
            inline=True,
        )
        if failure is not None:
            raise ChunkFailedError(index, op, failure) from exc
        outcomes[index] = outcome
        spans.complete(index, spans.now(), op=op, attempts=attempts[index] + 1)
        if on_complete is not None:
            on_complete(index, outcome)

    def fail(index: int, reason: str) -> None:
        """One attempt of ``index`` failed: retry, or rescue inline."""
        if index in forgiven and reason in ("broken-pool", "cancelled"):
            forgiven.discard(index)
            ready.append(index)  # same attempt: the chunk did nothing wrong
            return
        if reason == "timeout":
            stats.note("timeout", chunk=index, op=payloads[index][0])
        if attempts[index] >= policy.max_retries:
            run_inline(index, reason)
            return
        attempts[index] += 1
        stats.note(
            "retry",
            chunk=index,
            attempt=attempts[index],
            reason=reason,
            op=payloads[index][0],
        )
        ready.append(index)

    try:
        while ready or inflight:
            executor = pool.executor()
            while ready:
                index = ready.popleft()
                delay = policy.backoff_delay(attempts[index])
                if delay:
                    time.sleep(delay)
                submit_start = spans.now()
                payload = payloads[index]
                if slots is not None:
                    payload = slots.load(index, payload)
                try:
                    future = executor.submit(
                        execute,
                        *payload,
                        chunk_index=index,
                        attempt=attempts[index],
                        nchunks=nchunks,
                        faults=faults,
                    )
                except BrokenProcessPool:
                    # A worker died while chunks were going out.  This one
                    # never ran: it goes back, its attempt unspent, for the
                    # pool rebuilt once the dead worker's future fails
                    # (rebuilt here when nothing else is in flight).
                    ready.appendleft(index)
                    if not inflight:
                        pool.kill()
                        generation += 1
                        stats.note("rebuild", reason="broken-pool")
                    break
                submitted = time.perf_counter()
                spans.submit(
                    index,
                    submit_start,
                    spans.now(),
                    attempt=attempts[index],
                    op=payloads[index][0],
                )
                deadline = (
                    None
                    if policy.timeout_s is None
                    else submitted + policy.timeout_s
                )
                future.add_done_callback(
                    lambda f: done_at.setdefault(id(f), time.perf_counter())
                )
                inflight[future] = (index, submitted, deadline, generation)

            deadlines = [d for _, _, d, _ in inflight.values() if d is not None]
            wait_s = (
                None
                if not deadlines
                else max(0.0, min(deadlines) - time.perf_counter())
            )
            done, _ = concurrent.futures.wait(
                set(inflight),
                timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            broken = False
            for future in done:
                index, submitted, _, gen = inflight.pop(future)
                try:
                    outcome = future.result()
                except concurrent.futures.CancelledError:
                    fail(index, "cancelled")
                except BrokenProcessPool:
                    broken = broken or gen == generation
                    fail(index, "broken-pool")
                except Exception:  # noqa: BLE001 -- worker-side failure
                    fail(index, "crash")
                else:
                    if slots is not None:
                        outcome.output = slots.view(index)
                    if not _verified(outcome):
                        fail(index, "corrupt")
                        continue
                    turnaround = done_at.get(id(future), submitted) - submitted
                    outcome.queue_wait_s = max(0.0, turnaround - outcome.wall_s)
                    outcomes[index] = outcome
                    spans.complete(
                        index,
                        spans.now(),
                        op=payloads[index][0],
                        attempts=attempts[index] + 1,
                        worker=getattr(outcome, "pid", 0),
                    )
                    if on_complete is not None:
                        on_complete(index, outcome)

            if broken:
                # Sibling in-flight chunks will surface as broken/
                # cancelled; they were not at fault.
                forgiven.update(index for index, _, _, _ in inflight.values())
                pool.kill()
                generation += 1
                stats.note("rebuild", reason="broken-pool")
                continue

            now = time.perf_counter()
            expired = [
                future
                for future, (_, _, deadline, _) in inflight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            if expired:
                for future in expired:
                    index, _, _, _ = inflight.pop(future)
                    fail(index, "timeout")
                forgiven.update(index for index, _, _, _ in inflight.values())
                pool.kill()
                generation += 1
                stats.note("rebuild", reason="timeout")
    except BaseException:
        # Attempts may still be running (or hung): the pool goes with
        # them, and the next launch builds a fresh one.
        pool.kill()
        raise

    return outcomes, stats
