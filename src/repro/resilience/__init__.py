"""Fault-tolerant batch execution: retries, quarantine, checkpoints, faults.

The paper's premise is "many thousands of small problems" as one batch;
at production scale a hung worker, one singular matrix, or a truncated
cache file must not cost the launch.  This package makes failure a
first-class, observable, *testable* outcome of the batch runtime:

* :mod:`~repro.resilience.policy` -- :class:`RetryPolicy`: the
  per-chunk retry budget, and the deadlines and capped exponential
  backoff of pool attempts;
* :mod:`~repro.resilience.supervisor` -- the per-chunk supervisor that
  retries, rebuilds broken pools, kills hung workers, and rescues a
  chunk inline only after its retries are exhausted, on the
  :class:`WorkerPool` a runtime keeps across launches;
* :mod:`~repro.resilience.quarantine` -- numerical breakdowns (zero
  pivot, non-PSD input, non-finite output) fail *their problem slot*
  (NaN-masked, reported as :class:`ProblemFailure` on
  ``BatchReport.failures``), never the batch;
* :mod:`~repro.resilience.checkpoint` -- :class:`CheckpointStore`
  journals finished chunks so a killed run resumes bitwise-identically;
* :mod:`~repro.resilience.faults` -- the deterministic fault-injection
  harness (``REPRO_FAULTS=`` / ``BatchRuntime(faults=...)``) CI uses to
  *prove* every recovery path above instead of trusting it.

Recovery events flow into the existing telemetry:
``repro_chunk_retries_total``, ``repro_chunk_timeouts_total``,
``repro_problem_failures_total``, ``repro_resume_chunks_skipped_total``
metrics, ``resilience.*`` trace events, and failure counts in run
history records.  See ``docs/resilience.md``.
"""

from .checkpoint import CHECKPOINT_SCHEMA, CheckpointStore, batch_fingerprint
from .faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    parse_faults,
    plan_from_env,
)
from .policy import DEFAULT_RETRY_POLICY, RetryPolicy
from .quarantine import ProblemFailure, quarantine_outcomes, scan_output
from .supervisor import (
    ChunkFailedError,
    SuperviseStats,
    WorkerPool,
    outcome_checksum,
    supervise_pool,
    supervise_serial,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "ChunkFailedError",
    "DEFAULT_RETRY_POLICY",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "ProblemFailure",
    "RetryPolicy",
    "SuperviseStats",
    "WorkerPool",
    "batch_fingerprint",
    "outcome_checksum",
    "parse_faults",
    "plan_from_env",
    "quarantine_outcomes",
    "scan_output",
    "supervise_pool",
    "supervise_serial",
]
