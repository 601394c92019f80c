"""Retry and deadline policy for supervised chunk execution.

One :class:`RetryPolicy` governs every chunk of a launch: how many times
a failed attempt may be retried before the inline last resort, how long
the supervisor backs off before resubmitting an attempt to the pool
(capped exponential, deterministic -- no jitter, so a seeded fault plan
replays identically), and the wall-clock deadline after which an
in-flight pool attempt is declared hung and its worker killed.  Backoff
and deadlines are pool-only: an in-process attempt has no worker to
wait for or kill, so serial retries run at once.

``timeout_s`` defaults to ``None`` (no deadline): the failure-free path
must give the serial launch's bits and counters, and a spurious
timeout on a loaded CI machine would violate that.  Opt into deadlines
per runtime (``BatchRuntime(retry_policy=RetryPolicy(timeout_s=5.0))``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing or hung chunk.

    Attributes
    ----------
    max_retries:
        Retries allowed per chunk after the first attempt, on the pool
        and in-process alike.  When exhausted, the chunk gets one more
        attempt inline in the launch process as a last resort, so a
        chunk gets at most ``max_retries + 2`` attempts; a failed last
        resort propagates (see
        :class:`~repro.resilience.supervisor.ChunkFailedError`).
    backoff_s:
        Base delay before the first pool resubmission; pool attempt
        ``k`` waits ``min(backoff_s * 2**(k-1), backoff_cap_s)``.
        In-process retries and the inline last resort never wait.
    backoff_cap_s:
        Upper bound on the backoff delay.
    timeout_s:
        Per-attempt wall-clock deadline of a pool attempt.  ``None``
        disables deadlines entirely (the default).  A timed-out attempt
        counts as a retry.  In-process attempts have no deadline.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before submitting attempt ``attempt`` (0-based).

        Attempt 0 (the first submission) never waits.  Only the pool
        supervisor waits; in-process attempts run at once.
        """
        if attempt <= 0 or self.backoff_s == 0:
            return 0.0
        return min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)


#: The runtime default: a couple of retries, fast backoff, no deadlines.
DEFAULT_RETRY_POLICY = RetryPolicy()
