"""Dynamic shared-memory race sanitizer (CUDA-MEMCHECK racecheck, simulated).

The per-block kernels move data between threads exclusively through
:class:`~repro.gpu.shared_memory.SharedMemory`, and the protocol the
paper's cost model charges for (Eq. 2's ``nsync * alpha_sync``) is that
every such handoff is bracketed by a ``__syncthreads``: a value written
in one *sync epoch* may only be read by other lanes in a later epoch.
:class:`SharedSanitizer` checks exactly that.  When attached to a
:class:`~repro.gpu.simt.BlockEngine` it records every functional
``read``/``write`` with the accessing lane (``None`` = a collective
access by the owning thread group) and the current epoch --
``BlockEngine.sync()`` bumps the epoch -- and reports:

* **write->read**, **write->write**, **read->write** hazards: two
  accesses to overlapping word slots in the *same* epoch where at least
  one is a write and the accesses are not provably by one lane;
* **redundant-sync**: a ``sync()`` with no shared traffic (functional or
  charged) since the previous one -- wasted ``alpha_sync`` cycles, also
  counted in the ``repro_sync_redundant`` fleet metric;
* **never-synced**: a shared array that was written but whose engine
  never executed a single ``sync()``.

Hazards are structured :class:`Hazard` records labeled with the engine's
active :meth:`~repro.gpu.simt.BlockEngine.phase`, surfaced through the
fleet metrics registry (``repro_sanitizer_hazards``) and the event
tracer, and aggregated into a :class:`SanitizeReport` attached to the
launch result.  The sanitizer is opt-in (``REPRO_SANITIZE=1``,
``BlockEngine(sanitize=True)``, or :func:`sanitizing`); when off, the
only cost on the hot path is one ``is None`` check per access.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..observe.log import env_switch
from ..observe.metrics import counter_inc
from ..observe.tracer import add_counter, instant

__all__ = [
    "Hazard",
    "SanitizeReport",
    "SharedSanitizer",
    "sanitize_enabled",
    "sanitizing",
]

#: Hazard kinds in severity order (races first, protocol waste last).
HAZARD_KINDS = (
    "write-read",
    "write-write",
    "read-write",
    "never-synced",
    "redundant-sync",
)

#: Word indices kept per hazard record (enough to locate the conflict
#: without dragging a whole column's index vector into every report).
_MAX_WORDS = 8

_FORCED: Optional[bool] = None


def sanitize_enabled() -> bool:
    """Whether new engines should attach a sanitizer by default.

    A :func:`sanitizing` override wins; otherwise the ``REPRO_SANITIZE``
    environment variable decides (read per engine construction, so tests
    and the CLI can toggle it at runtime).
    """
    if _FORCED is not None:
        return _FORCED
    return env_switch("REPRO_SANITIZE", default=False)


@contextmanager
def sanitizing(flag: bool = True) -> Iterator[None]:
    """Force the sanitizer on (or off) for engines built in this scope."""
    global _FORCED
    previous = _FORCED
    _FORCED = bool(flag)
    try:
        yield
    finally:
        _FORCED = previous


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One sanitizer diagnostic, in the vocabulary of the kernel protocol."""

    #: One of :data:`HAZARD_KINDS`.
    kind: str
    #: Label of the shared array involved (``sh_col``, ``shared0``, ...).
    array: str
    #: Sync epoch the conflict happened in (0 = before any sync).
    epoch: int
    #: Engine phase label active when the hazard was detected.
    phase: str
    #: Overlapping word slots (sorted, truncated to a handful).
    words: Tuple[int, ...] = ()
    #: Phase of the earlier access of the pair (racing hazards only).
    first_phase: str = ""
    #: Lanes of the two accesses (``None`` = collective / unattributed).
    lanes: Tuple[Optional[int], Optional[int]] = (None, None)
    #: Human-readable one-liner.
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "array": self.array,
            "epoch": self.epoch,
            "phase": self.phase,
            "words": list(self.words),
            "first_phase": self.first_phase,
            "lanes": list(self.lanes),
            "message": self.message,
        }


@dataclasses.dataclass(frozen=True)
class SanitizeReport:
    """Aggregated sanitizer output for one engine lifetime."""

    hazards: Tuple[Hazard, ...]
    #: Total ``sync()`` calls observed.
    syncs: int
    #: Syncs with no shared traffic since the previous one.
    redundant_syncs: int
    #: Functional shared accesses recorded.
    accesses: int
    #: Labels of the shared arrays the engine allocated.
    arrays: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.hazards

    @property
    def races(self) -> Tuple[Hazard, ...]:
        """The cross-lane data races (excludes protocol-waste diagnostics)."""
        racing = ("write-read", "write-write", "read-write")
        return tuple(h for h in self.hazards if h.kind in racing)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "syncs": self.syncs,
            "redundant_syncs": self.redundant_syncs,
            "accesses": self.accesses,
            "arrays": list(self.arrays),
            "hazards": [h.to_dict() for h in self.hazards],
        }


@dataclasses.dataclass
class _Access:
    kind: str  # "read" | "write"
    words: np.ndarray  # sorted unique int64 word slots
    lane: Optional[int]
    phase: str


class SharedSanitizer:
    """Epoch-tagged access recorder for one engine's shared arrays.

    The engine owns exactly one sanitizer; :meth:`register` binds each
    allocated :class:`~repro.gpu.shared_memory.SharedMemory` to it, the
    array's ``read``/``write`` feed :meth:`on_access`, the engine's
    ``sync()`` feeds :meth:`on_sync`, and ``charge_shared`` marks charged
    (cost-only) traffic via :meth:`note_traffic` so protocol-sketch
    kernels that model costs without functional accesses do not trip the
    wasted-sync diagnostic.
    """

    def __init__(self, phase_of: Optional[Callable[[], str]] = None) -> None:
        self._phase_of = phase_of or (lambda: "")
        self.epoch = 0
        self.syncs = 0
        self.redundant_syncs = 0
        self.accesses = 0
        self.hazards: List[Hazard] = []
        self._traffic_since_sync = False
        self._arrays: List[str] = []
        self._written: dict = {}  # label -> first write phase
        self._epoch_accesses: dict = {}  # label -> [_Access, ...]
        self._seen: set = set()  # dedup key per racing pair shape
        self._finalized: Optional[SanitizeReport] = None

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def register(self, label: str) -> None:
        """Record an allocated shared array under ``label``."""
        self._arrays.append(label)

    def note_traffic(self) -> None:
        """Mark charged (cost-only) shared traffic for the sync audit."""
        self._traffic_since_sync = True

    def on_access(self, mem, kind: str, index, lane: Optional[int]) -> None:
        """Record one functional access and check it against this epoch."""
        self.accesses += 1
        self._traffic_since_sync = True
        label = getattr(mem, "label", "shared")
        words = self._normalize(index, mem.words)
        phase = self._phase_of()
        if kind == "write" and label not in self._written:
            self._written[label] = phase
        history = self._epoch_accesses.setdefault(label, [])
        for prior in history:
            if kind == "read" and prior.kind == "read":
                continue
            if (
                prior.lane is not None
                and lane is not None
                and prior.lane == lane
            ):
                continue  # one thread's private sequence is ordered
            overlap = np.intersect1d(prior.words, words, assume_unique=True)
            if overlap.size == 0:
                continue
            hazard_kind = f"{prior.kind}-{kind}"
            key = (label, hazard_kind, self.epoch, prior.phase, phase)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._emit(
                Hazard(
                    kind=hazard_kind,
                    array=label,
                    epoch=self.epoch,
                    phase=phase,
                    words=tuple(int(w) for w in overlap[:_MAX_WORDS]),
                    first_phase=prior.phase,
                    lanes=(prior.lane, lane),
                    message=(
                        f"{hazard_kind} hazard on {label}"
                        f"[{int(overlap[0])}..] in epoch {self.epoch}: "
                        f"{prior.kind} ({prior.phase or 'no phase'}) and "
                        f"{kind} ({phase or 'no phase'}) are not separated "
                        f"by a sync()"
                    ),
                )
            )
        history.append(_Access(kind=kind, words=words, lane=lane, phase=phase))

    def on_sync(self) -> None:
        """Advance the epoch; flag the sync as wasted if nothing moved."""
        self.syncs += 1
        if not self._traffic_since_sync:
            self.redundant_syncs += 1
            phase = self._phase_of()
            counter_inc("repro_sync_redundant", phase=phase)
            self._emit(
                Hazard(
                    kind="redundant-sync",
                    array="",
                    epoch=self.epoch,
                    phase=phase,
                    message=(
                        f"sync() in epoch {self.epoch} "
                        f"({phase or 'no phase'}) had no shared traffic since "
                        f"the previous barrier -- wasted alpha_sync cycles"
                    ),
                ),
                count_metric=False,  # repro_sync_redundant already counts it
            )
        self.epoch += 1
        self._traffic_since_sync = False
        self._epoch_accesses.clear()

    def finalize(self) -> SanitizeReport:
        """Close the recording and return the report (idempotent)."""
        if self._finalized is not None:
            return self._finalized
        if self.syncs == 0:
            for label, phase in self._written.items():
                self._emit(
                    Hazard(
                        kind="never-synced",
                        array=label,
                        epoch=self.epoch,
                        phase=phase,
                        message=(
                            f"shared array {label} was written "
                            f"({phase or 'no phase'}) but the engine never "
                            f"called sync()"
                        ),
                    )
                )
        self._finalized = SanitizeReport(
            hazards=tuple(self.hazards),
            syncs=self.syncs,
            redundant_syncs=self.redundant_syncs,
            accesses=self.accesses,
            arrays=tuple(self._arrays),
        )
        return self._finalized

    def report(self) -> SanitizeReport:
        """The finalized report (finalizing first if needed)."""
        return self.finalize()

    # ------------------------------------------------------------------
    def _emit(self, hazard: Hazard, count_metric: bool = True) -> None:
        self.hazards.append(hazard)
        if count_metric:
            counter_inc(
                "repro_sanitizer_hazards", kind=hazard.kind, phase=hazard.phase
            )
        add_counter("sanitizer.hazards")
        instant(
            f"sanitizer.{hazard.kind}",
            "sanitizer",
            array=hazard.array,
            epoch=hazard.epoch,
            phase=hazard.phase,
        )

    @staticmethod
    def _normalize(index, words: int) -> np.ndarray:
        """Word slots an access touches, as a sorted unique int64 array."""
        if isinstance(index, slice):
            return np.arange(words, dtype=np.int64)[index]
        arr = np.asarray(index)
        if arr.dtype == bool:
            return np.nonzero(arr.ravel())[0].astype(np.int64)
        return np.unique(arr.ravel().astype(np.int64))
