"""The pooled launch's transport: one shared-memory arena per runtime.

A pooled chunk's input and output never cross a pipe.  The launch lays
its chunks out as *slots* in the runtime's :class:`Arena` (each slot a
chunk's ``(problems, m, n)`` range in the kernel's working dtype); the
parent copies a chunk's input into its slot before every submission,
the worker factors a view of the slot and writes its output back over
it, and the parent verifies the slot's checksum and copies it out into
the launch's result as the chunk completes.  Only the small outcome
(checksum, launch, counters, telemetry) is pickled.

The arena is one file under ``/dev/shm``, mapped by the parent and by
every worker (:func:`attach` keeps one mapping per worker).  It is
created at the runtime's first pooled launch and reused by every later
one, so its pages fault in once; a launch that needs more bytes
replaces it with a larger file.  :meth:`Arena.close` unlinks it.  A
segment that cannot be created (no ``/dev/shm``, or a full one) raises
:class:`OSError` before anything is submitted.

A killed owner cannot unlink its segment.  Its workers outlive it long
enough to do so (:func:`unlink_attached`); when they died with it, the
next segment made on the machine removes it (segment names carry the
owner's pid).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # imported where a segment is mapped, off the cold start
    import mmap

__all__ = ["ARENA_PREFIX", "Arena", "Slot", "Slots", "attach", "unlink_attached"]

#: File-name prefix of every arena segment under :data:`SHM_DIR`.
ARENA_PREFIX = "repro-arena-"
#: Where segments live: the POSIX shared-memory filesystem.
SHM_DIR = "/dev/shm"
#: Slot alignment in bytes (a cache line; covers every dtype).
_ALIGN = 64


class Slot(NamedTuple):
    """Where one chunk's input sits, as a worker finds it."""

    #: Segment file name under :data:`SHM_DIR`.
    name: str
    offset: int
    shape: tuple
    dtype: str


def _view(mapping: mmap.mmap, offset: int, shape: tuple, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=dtype, buffer=mapping, offset=offset)


def _unlink(name: str) -> None:
    try:
        os.unlink(os.path.join(SHM_DIR, name))
    except FileNotFoundError:
        pass


def _sweep() -> None:
    """Unlink the segments of owners that were killed before they could."""
    for name in os.listdir(SHM_DIR):
        if name.startswith(ARENA_PREFIX):
            try:
                os.kill(int(name[len(ARENA_PREFIX) :].partition("-")[0]), 0)
            except ProcessLookupError:
                _unlink(name)
            except (ValueError, PermissionError):
                pass


def _release(mapping: Optional[mmap.mmap]) -> None:
    """Unmap now, or -- while an array still views it -- when that goes."""
    if mapping is not None:
        try:
            mapping.close()
        except BufferError:
            pass


class Arena:
    """One runtime's shared-memory segment; see the module docstring."""

    def __init__(self) -> None:
        self.name: Optional[str] = None
        self.size = 0
        self._map: Optional[mmap.mmap] = None
        self._owner = os.getpid()

    def reserve(self, nbytes: int) -> mmap.mmap:
        """The mapping, replaced by a new segment if it is under ``nbytes``."""
        if self._map is not None and nbytes <= self.size:
            return self._map
        import mmap

        self.close()
        _sweep()
        size = max(1, -(-nbytes // mmap.PAGESIZE)) * mmap.PAGESIZE
        name = f"{ARENA_PREFIX}{os.getpid()}-{os.urandom(6).hex()}"
        path = os.path.join(SHM_DIR, name)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            # Allocate every page now: a full /dev/shm fails here with
            # ENOSPC instead of killing the process (SIGBUS) mid-copy.
            os.posix_fallocate(fd, 0, size)
            mapping = mmap.mmap(fd, size)
        except BaseException:
            os.unlink(path)
            raise
        finally:
            os.close(fd)
        self.name, self.size, self._map = name, size, mapping
        self._owner = os.getpid()
        return mapping

    def close(self) -> None:
        """Unlink the segment; idempotent.  The next launch makes a new one.

        Only the process that made the segment unlinks it, so a forked
        child that inherited this object leaves it alone.
        """
        name, mapping = self.name, self._map
        self.name, self.size, self._map = None, 0, None
        if name is None or os.getpid() != self._owner:
            return
        _unlink(name)
        _release(mapping)


class Slots:
    """One pooled launch's chunk slots in its runtime's arena.

    ``entries`` are the launch's ``(index, payload)`` pairs, whose
    payload's second item is the chunk's input; slots follow each other
    in entry order, so a group's chunks tile one contiguous range.
    """

    def __init__(self, arena: Arena, entries) -> None:
        from ..kernels.batched.validate import working_dtype

        layout = {}
        offset = 0
        for index, payload in entries:
            data = payload[1]
            dtype = working_dtype(data.dtype)
            layout[index] = (offset, data.shape, dtype)
            offset += -(-data.size * dtype.itemsize // _ALIGN) * _ALIGN
        mapping = arena.reserve(offset)
        self._views = {index: _view(mapping, *place) for index, place in layout.items()}
        self._slots = {
            index: Slot(arena.name, off, shape, dtype.str)
            for index, (off, shape, dtype) in layout.items()
        }

    def load(self, index: int, payload: tuple) -> tuple:
        """Copy the chunk's input into its slot; return the worker's payload."""
        self._views[index][...] = payload[1]
        return payload[:1] + (self._slots[index],) + payload[2:]

    def view(self, index: int) -> np.ndarray:
        """The chunk's slot, holding its output once the attempt is back.

        Read-only: the next launch reuses the slot, so whoever keeps the
        output must copy it (a read-only result array is copied).
        """
        view = self._views[index].view()
        view.flags.writeable = False
        return view


#: This process's mapping of the current segment, as ``(name, mapping)``.
_attached: Optional[tuple] = None


def attach(slot: Slot) -> np.ndarray:
    """A worker's view of ``slot``, mapping its segment on first use.

    The mapping is kept for the next chunk and replaced when the runtime
    has moved to a new (larger) segment.
    """
    global _attached
    if _attached is None or _attached[0] != slot.name:
        import mmap

        fd = os.open(os.path.join(SHM_DIR, slot.name), os.O_RDWR)
        try:
            mapping = mmap.mmap(fd, 0)
        finally:
            os.close(fd)
        previous, _attached = _attached, (slot.name, mapping)
        if previous is not None:
            _release(previous[1])
    return _view(_attached[1], slot.offset, slot.shape, np.dtype(slot.dtype))


def unlink_attached() -> None:
    """Unlink the segment this worker maps: its owner died holding it."""
    if _attached is not None:
        _unlink(_attached[0])
