"""Named shared-memory arena holding columnar ndarrays behind a manifest.

An arena is one ``multiprocessing.shared_memory`` block into which the parent
packs a set of contiguous ndarrays (a sweep's weight stack and its output
columns).  The :class:`ArenaManifest` records name/dtype/shape/offset for every
column, so a worker attaches the block by name and reconstructs zero-copy
views without pickling a single array element.

:class:`LocalArena` is the degenerate in-process stand-in with the same
mapping interface; dispatchers use it when running inline (one worker, or a
platform without ``shared_memory``), so task functions never branch on the
execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.errors import ServiceError

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

_ALIGN = 64  # cache-line alignment for every column start


class ArenaError(ServiceError):
    """Raised when an arena column lookup or lifecycle operation fails."""


@dataclass(frozen=True)
class ArenaEntry:
    """Location of one column inside the shared block."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class ArenaManifest:
    """Picklable description of an arena: block name plus column layout."""

    name: str
    entries: tuple[ArenaEntry, ...]
    total_bytes: int

    def keys(self) -> tuple[str, ...]:
        return tuple(entry.key for entry in self.entries)

    def entry(self, key: str) -> ArenaEntry:
        for entry in self.entries:
            if entry.key == key:
                return entry
        raise ArenaError(f"arena has no column {key!r}")


def shm_available() -> bool:
    """Probe whether named shared memory actually works on this platform."""

    global _SHM_PROBE
    if _SHM_PROBE is None:
        if shared_memory is None:
            _SHM_PROBE = False
        else:
            try:
                block = shared_memory.SharedMemory(create=True, size=16)
            except (OSError, ValueError):  # pragma: no cover - platform quirk
                _SHM_PROBE = False
            else:
                block.close()
                block.unlink()
                _SHM_PROBE = True
    return _SHM_PROBE


_SHM_PROBE: bool | None = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _untrack(block: "shared_memory.SharedMemory") -> None:
    """Undo the attach-side resource_tracker registration where it is wrong.

    Under the ``spawn`` start method every process runs its own resource
    tracker, and attaching registers the segment there — so a worker exiting
    would unlink a block the parent still owns.  Under ``fork`` the tracker
    is shared with the parent and registration is an idempotent set-add, so
    unregistering here would instead erase the *parent's* claim and trip a
    KeyError when the owner later unlinks.
    """

    if resource_tracker is None:  # pragma: no cover
        return
    import multiprocessing

    if multiprocessing.get_start_method(allow_none=True) == "fork":
        return
    try:  # pragma: no cover - spawn-platform path
        resource_tracker.unregister(block._name, "shared_memory")  # noqa: SLF001
    except (KeyError, ValueError):
        pass


class ShmArena:
    """A set of ndarray columns packed into one named shared-memory block."""

    def __init__(self, manifest: ArenaManifest, block: "shared_memory.SharedMemory", *, owner: bool) -> None:
        self.manifest = manifest
        self._block = block
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmArena":
        """Pack ``arrays`` into a fresh shared block owned by the caller."""

        if shared_memory is None:  # pragma: no cover
            raise ArenaError("multiprocessing.shared_memory is unavailable")
        packed = {key: np.ascontiguousarray(array) for key, array in arrays.items()}
        entries = []
        offset = 0
        for key, array in packed.items():
            offset = _align(offset)
            entries.append(
                ArenaEntry(
                    key=key,
                    dtype=array.dtype.str,
                    shape=tuple(array.shape),
                    offset=offset,
                    nbytes=array.nbytes,
                )
            )
            offset += array.nbytes
        block = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        manifest = ArenaManifest(name=block.name, entries=tuple(entries), total_bytes=max(offset, 1))
        arena = cls(manifest, block, owner=True)
        for key, array in packed.items():
            np.copyto(arena.writable(key), array)
        return arena

    @classmethod
    def attach(cls, manifest: ArenaManifest) -> "ShmArena":
        """Attach to an existing arena described by ``manifest`` (worker side)."""

        if shared_memory is None:  # pragma: no cover
            raise ArenaError("multiprocessing.shared_memory is unavailable")
        block = shared_memory.SharedMemory(name=manifest.name)
        _untrack(block)
        return cls(manifest, block, owner=False)

    def _view(self, key: str, *, writable: bool) -> np.ndarray:
        if self._closed:
            raise ArenaError(f"arena {self.manifest.name} is closed")
        entry = self.manifest.entry(key)
        view = np.ndarray(entry.shape, dtype=np.dtype(entry.dtype), buffer=self._block.buf, offset=entry.offset)
        if not writable:
            view.flags.writeable = False
        return view

    def __getitem__(self, key: str) -> np.ndarray:
        """Read-only zero-copy view of one column."""

        return self._view(key, writable=False)

    def writable(self, key: str) -> np.ndarray:
        """Writable zero-copy view of one column (for output columns)."""

        return self._view(key, writable=True)

    def __contains__(self, key: str) -> bool:
        return key in self.manifest.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self.manifest.keys())

    def close(self) -> None:
        """Drop this process's mapping (best-effort if views are still alive)."""

        if self._closed:
            return
        self._closed = True
        try:
            self._block.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass

    def unlink(self) -> None:
        """Free the underlying block.  Only the creating process may call."""

        if self._owner:
            self._block.unlink()

    def dispose(self) -> None:
        """Owner-side teardown: unlink the block, then drop the mapping."""

        if not self._closed:
            self.unlink()
        self.close()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.dispose()


class LocalArena:
    """In-process arena with the same mapping interface as :class:`ShmArena`.

    Wraps the original arrays directly; ``writable`` hands back the backing
    array so inline execution mutates the caller's buffers, exactly like the
    shared-memory path does across processes.
    """

    manifest = None

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._arrays = dict(arrays)

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            array = self._arrays[key]
        except KeyError:
            raise ArenaError(f"arena has no column {key!r}") from None
        view = array.view()
        view.flags.writeable = False
        return view

    def writable(self, key: str) -> np.ndarray:
        try:
            return self._arrays[key]
        except KeyError:
            raise ArenaError(f"arena has no column {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def close(self) -> None:
        return None

    def unlink(self) -> None:
        return None

    def dispose(self) -> None:
        return None

    def __enter__(self) -> "LocalArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None
