"""Checkpoint/resume for long batch runs.

An opt-in :class:`CheckpointStore` journals every finished
:class:`~repro.runtime.merge.ChunkOutcome` to its own file as the launch
progresses -- atomic write-temp-rename, schema- and version-stamped like
the :mod:`repro.runtime.cache` documents -- keyed by a content
fingerprint of the batch (ops, shapes, dtypes, the operand bytes, the
chunk plan, and the kernel kwargs).  A killed run resumed with the same
store and the same batch skips every journaled chunk and merges to
**bitwise-identical** output: the journal holds the exact arrays,
launch counters, trace events, and worker metrics the original chunk
produced, so the resumed report is indistinguishable from an
uninterrupted one.

Corruption is a cold miss, never an exception: a truncated or mangled
journal file (killed writer, disk trouble, injected ``truncate`` fault)
is counted into ``repro_cache_corrupt_total{cache="checkpoint"}``,
deleted, and its chunk simply re-executes.  A fingerprint mismatch
(different batch, different kwargs, new library version) likewise
invalidates the stale file rather than serving a wrong result.

The journal is cleared after a successful merge -- checkpoints exist to
resume *interrupted* runs, not to memoize completed ones (that is what
the dispatch/calibration caches are for).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .. import __version__
from ..observe.export import atomic_write_text
from ..observe.metrics import counter_inc

__all__ = ["CHECKPOINT_SCHEMA", "CheckpointStore", "batch_fingerprint"]

#: Bump when the journal payload layout changes; old files become stale.
CHECKPOINT_SCHEMA = 1

_CHUNK_FILE = re.compile(r"^chunk-(\d+)\.ckpt$")


def _version_stamp() -> str:
    return f"{__version__}/ckpt{CHECKPOINT_SCHEMA}"


def batch_fingerprint(batch, chunk_cost: float, kwargs: dict) -> str:
    """Content hash identifying one (batch, plan, kwargs) execution.

    Any difference -- an operand bit, the chunk budget, a kernel kwarg,
    the library version -- yields a new fingerprint, so a journal can
    only ever resume the exact run that wrote it.
    """
    h = hashlib.sha256()
    h.update(_version_stamp().encode())
    h.update(repr(float(chunk_cost)).encode())
    for group in batch.groups:
        h.update(group.op.encode())
        h.update(repr((group.data.shape, str(group.data.dtype))).encode())
        h.update(np.ascontiguousarray(group.data).tobytes())
    for key in sorted(kwargs):
        h.update(f"{key}={kwargs[key]!r}".encode())
    return h.hexdigest()


class CheckpointStore:
    """Per-chunk outcome journal under one directory.

    Parameters
    ----------
    directory:
        Where journal files live; created on first write.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        ``truncate`` specs mangle just-written files (CI's way of
        proving the corrupt-is-a-miss path).
    """

    def __init__(self, directory: Path | str, faults=None) -> None:
        self.directory = Path(directory)
        self.faults = faults

    def path_for(self, index: int) -> Path:
        return self.directory / f"chunk-{index}.ckpt"

    # ------------------------------------------------------------------
    def record(self, fingerprint: str, index: int, outcome) -> Path:
        """Journal one finished chunk outcome (atomic replace)."""
        payload = pickle.dumps(
            {
                "version": _version_stamp(),
                "fingerprint": fingerprint,
                "chunk": index,
                "outcome": outcome,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.path_for(index)
        try:
            atomic_write_text(path, payload)
        except OSError:
            # A read-only journal directory degrades to no checkpointing.
            return path
        counter_inc("repro_cache_writes_total", cache="checkpoint")
        if self.faults is not None:
            self.faults.mangle_file(path, chunk=index)
        return path

    def resume(self, fingerprint: str) -> Dict[int, object]:
        """Load every journaled outcome that matches ``fingerprint``.

        Unreadable, corrupt, stale, or mismatched files are removed and
        counted (``repro_cache_corrupt_total`` for undecodable payloads,
        ``repro_cache_requests_total{outcome="stale"}`` for version or
        fingerprint mismatches) -- their chunks re-execute.
        """
        outcomes: Dict[int, object] = {}
        for path, index in self._journal_files():
            doc = self._load_file(path, index)
            if doc is None:
                continue
            if (
                doc.get("version") != _version_stamp()
                or doc.get("fingerprint") != fingerprint
                or doc.get("chunk") != index
            ):
                counter_inc(
                    "repro_cache_requests_total",
                    cache="checkpoint",
                    outcome="stale",
                )
                self._drop(path)
                continue
            counter_inc(
                "repro_cache_requests_total", cache="checkpoint", outcome="hit"
            )
            outcomes[index] = doc["outcome"]
        return outcomes

    def clear(self) -> None:
        """Delete the journal (called after a successful merge)."""
        for path, _ in self._journal_files():
            self._drop(path)

    def __len__(self) -> int:
        return sum(1 for _ in self._journal_files())

    # ------------------------------------------------------------------
    def _journal_files(self):
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            match = _CHUNK_FILE.match(name)
            if match:
                yield self.directory / name, int(match.group(1))

    def _load_file(self, path: Path, index: int) -> Optional[dict]:
        try:
            payload = path.read_bytes()
            doc = pickle.loads(payload)
            if not isinstance(doc, dict):
                raise ValueError("journal payload is not a mapping")
        except Exception:
            # Truncated pickle streams raise a zoo of exception types
            # (EOFError, UnpicklingError, ValueError, AttributeError...);
            # every one of them means the same thing: cold miss.
            counter_inc("repro_cache_corrupt_total", cache="checkpoint")
            self._drop(path)
            return None
        return doc

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
