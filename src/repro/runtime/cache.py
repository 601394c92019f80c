"""Persistent calibration and dispatch caches.

Two decision products are pure functions of the device and the code
version, yet the stack recomputed them on every run:

* :func:`repro.microbench.calibrate` -- the Table-IV microbenchmark
  sweep.  :class:`CalibrationCache` stores the resulting
  :class:`~repro.model.parameters.ModelParameters` keyed by a hash of
  the full :class:`~repro.gpu.device.DeviceSpec`, so calibration drops
  from every-run to once-per-device.
* :func:`repro.approaches.rank_approaches` -- the Figure-10 ranking.
  :class:`DispatchCache` memoizes the ranked ``(approach, gflops)``
  decision per ``(op, m, n, batch, complex, device)`` key, in memory and
  on disk.

Cache files live under :func:`cache_dir` (``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``).  Every file carries
a version stamp (library version + schema revision) and the device
fingerprint; a mismatch on either -- a code upgrade or a changed device
spec -- invalidates the entry rather than serving stale parameters.  All
writes go through the atomic write-temp-then-rename helper, so parallel
runs and killed jobs can never leave a truncated cache behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .. import __version__
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..model.parameters import ModelParameters
from ..observe.export import atomic_write_text
from ..observe.metrics import counter_inc

__all__ = [
    "CACHE_SCHEMA",
    "CalibrationCache",
    "DispatchCache",
    "cache_dir",
    "device_fingerprint",
    "params_fingerprint",
]

#: Bump when the on-disk layout of either cache changes.
#: 2: dispatch keys carry the ModelParameters content hash, so a
#: recalibration invalidates rankings computed under old latencies.
CACHE_SCHEMA = 2

#: The six measured Table-IV fields persisted per device.
_PARAM_FIELDS = (
    "alpha_glb",
    "global_bandwidth",
    "alpha_sh",
    "shared_bandwidth",
    "alpha_sync",
    "gamma",
)


def cache_dir() -> Path:
    """Root directory for persistent caches (not created until written)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@functools.lru_cache(maxsize=64)
def device_fingerprint(device: DeviceSpec) -> str:
    """Stable hash of every architectural field of ``device``.

    Any change to the spec -- clocks, cache sizes, latency constants --
    produces a new fingerprint and therefore a cold cache for it.
    Memoized per frozen spec: every runtime hashes its device twice.
    """
    payload = json.dumps(dataclasses.asdict(device), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def params_fingerprint(params: ModelParameters) -> str:
    """Stable hash of the measured Table-IV values (plus the device).

    The dispatch ranking is a function of the *latencies*, not just the
    device: hand-edited parameters or a recalibration under a changed
    microbenchmark must produce a different fingerprint so stale
    ``rank_approaches`` memos die with the numbers that produced them.
    """
    payload = json.dumps(
        {
            "device": device_fingerprint(params.device),
            **{field: getattr(params, field) for field in _PARAM_FIELDS},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _version_stamp() -> str:
    return f"{__version__}/schema{CACHE_SCHEMA}"


class _JsonStore:
    """One atomic JSON document: load-validate, replace-on-write."""

    def __init__(self, path: Path, cache: str = "") -> None:
        self.path = path
        #: Label for ``repro_cache_corrupt_total`` when the file is
        #: undecodable (empty string for unlabeled ad-hoc stores).
        self.cache = cache

    def load(self) -> Optional[dict]:
        return self.load_status()[0]

    def load_status(self) -> tuple[Optional[dict], str]:
        """``(doc, outcome)`` where outcome is ``hit``/``miss``/``stale``.

        A *miss* is an absent file (cold cache) **or** an undecodable
        one -- truncated JSON, binary garbage -- which additionally
        counts into ``repro_cache_corrupt_total``; *stale* is a valid
        document written by a different library version / schema
        revision.  No outcome ever raises to the caller.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return None, "miss"
        except UnicodeDecodeError:
            return None, self._corrupt()
        try:
            doc = json.loads(text)
        except ValueError:
            return None, self._corrupt()
        if not isinstance(doc, dict) or doc.get("version") != _version_stamp():
            return None, "stale"
        return doc, "hit"

    def _corrupt(self) -> str:
        counter_inc("repro_cache_corrupt_total", cache=self.cache)
        return "miss"

    def store(self, body: dict) -> None:
        doc = {"version": _version_stamp(), **body}
        try:
            atomic_write_text(
                self.path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
        except OSError:
            # A read-only cache directory degrades to memoization-only.
            pass

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


class CalibrationCache:
    """Persistent ``DeviceSpec -> ModelParameters`` store.

    One file per device fingerprint, so concurrent runs on different
    simulated devices never contend on a shared document.
    """

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self.directory = Path(directory) if directory else cache_dir()

    def _store(self, device: DeviceSpec) -> tuple[_JsonStore, str]:
        fp = device_fingerprint(device)
        path = self.directory / f"calibration-{fp[:16]}.json"
        return _JsonStore(path, cache="calibration"), fp

    def path_for(self, device: DeviceSpec) -> Path:
        """Where this device's calibration lands on disk."""
        return self._store(device)[0].path

    def load(self, device: DeviceSpec) -> Optional[ModelParameters]:
        """The cached Table-IV parameters, or ``None`` on a cold/stale cache."""
        store, fp = self._store(device)
        doc, outcome = store.load_status()
        params = doc.get("parameters") if doc else None
        values = None
        if doc is not None:
            if doc.get("device_fingerprint") != fp or not isinstance(params, dict):
                outcome = "stale"
            else:
                try:
                    values = {
                        field: float(params[field]) for field in _PARAM_FIELDS
                    }
                except (KeyError, TypeError, ValueError):
                    outcome = "stale"
        counter_inc("repro_cache_requests_total", cache="calibration", outcome=outcome)
        if values is None:
            return None
        return ModelParameters(device=device, **values)

    def store(self, device: DeviceSpec, params: ModelParameters) -> Path:
        """Persist ``params`` for ``device``; returns the file written."""
        store, fp = self._store(device)
        store.store(
            {
                "device_fingerprint": fp,
                "device_name": device.name,
                "parameters": {
                    field: getattr(params, field) for field in _PARAM_FIELDS
                },
            }
        )
        counter_inc("repro_cache_writes_total", cache="calibration")
        return store.path

    def clear(self, device: DeviceSpec) -> None:
        self._store(device)[0].clear()


class DispatchCache:
    """Memoized ``rank_approaches`` decisions for one device.

    Entries are plain ``[[approach_name, gflops], ...]`` lists keyed by
    the workload tuple; :func:`repro.approaches.rank_approaches` turns
    them back into :class:`~repro.approaches.dispatch.Ranking` objects by
    matching names against its candidate set (an unknown name is treated
    as a miss, so a cache written by a different approach roster can
    never inject a wrong winner).
    """

    def __init__(
        self,
        device: DeviceSpec = QUADRO_6000,
        directory: Optional[Path | str] = None,
        persistent: bool = True,
    ) -> None:
        self.device = device
        self.directory = Path(directory) if directory else cache_dir()
        self.persistent = persistent
        self._fingerprint = device_fingerprint(device)
        self._disk = _JsonStore(
            self.directory / f"dispatch-{self._fingerprint[:16]}.json",
            cache="dispatch",
        )
        self._memory: Optional[dict] = None
        self._params_fp = "unbound"
        self.hits = 0
        self.misses = 0
        self.stale = 0

    @property
    def path(self) -> Path:
        return self._disk.path

    def bind_params(self, params: Optional[ModelParameters]) -> None:
        """Scope subsequent keys to a calibration's content hash.

        Rankings memoized under one set of Table-IV latencies must not be
        served under another: after (re)calibration the runtime binds the
        resulting parameters here, and every key minted before the bind
        (or under different values) simply stops matching.  ``None``
        resets to the unbound scope.
        """
        if params is None:
            self._params_fp = "unbound"
        else:
            self._params_fp = params_fingerprint(params)[:12]

    def key(self, work) -> str:
        """The ``(op, m, n, batch, complex, device, params)`` key for ``work``."""
        return (
            f"{work.kind}:{work.m}x{work.n}:b{work.batch}"
            f":c{int(work.complex_dtype)}:{self._fingerprint[:16]}"
            f":p{self._params_fp}"
        )

    def _entries(self) -> dict:
        if self._memory is None:
            entries: dict = {}
            if self.persistent:
                doc = self._disk.load()
                if doc and doc.get("device_fingerprint") == self._fingerprint:
                    loaded = doc.get("entries")
                    if isinstance(loaded, dict):
                        entries = dict(loaded)
            self._memory = entries
        return self._memory

    def lookup(self, work) -> Optional[list[tuple[str, float]]]:
        """Cached ``(approach name, gflops)`` ranking, or ``None``."""
        entry = self._entries().get(self.key(work))
        if entry is None:
            self.misses += 1
            counter_inc("repro_cache_requests_total", cache="dispatch", outcome="miss")
            return None
        try:
            decoded = [(str(name), float(gflops)) for name, gflops in entry]
        except (TypeError, ValueError):
            # Present but undecodable: stale by content, miss by effect.
            self.misses += 1
            self.stale += 1
            counter_inc("repro_cache_requests_total", cache="dispatch", outcome="stale")
            return None
        self.hits += 1
        counter_inc("repro_cache_requests_total", cache="dispatch", outcome="hit")
        return decoded

    def store(self, work, ranking: list[tuple[str, float]]) -> None:
        """Record a ranking and persist the cache (when persistent)."""
        entries = self._entries()
        entries[self.key(work)] = [[name, gflops] for name, gflops in ranking]
        counter_inc("repro_cache_writes_total", cache="dispatch")
        if self.persistent:
            self._disk.store(
                {
                    "device_fingerprint": self._fingerprint,
                    "device_name": self.device.name,
                    "entries": entries,
                }
            )

    def clear(self) -> None:
        self._memory = {}
        self._disk.clear()

    def __len__(self) -> int:
        return len(self._entries())
