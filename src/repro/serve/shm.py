"""Shared-memory publication of read-mostly numpy arrays.

The multi-process serving pool (:mod:`repro.serve.pool`) escapes the
GIL by running the full verify/identify pipeline in worker *processes*.
What makes that cheap is that the big read-mostly state — the
gallery's stacked shard template matrices and prescreen blocks — is
published once into ``multiprocessing.shared_memory`` segments and
mapped zero-copy by every worker, instead of each process holding a
private copy.

One *publication* is one segment holding many arrays back to back
(64-byte aligned), described by a plain-dict **manifest** — segment
name plus per-array dtype/shape/offset — that travels to workers by
pickle.  Workers :func:`attach` the manifest and get read-only numpy
views into the mapped pages; the parent is the only writer and only
ever writes *before* publishing (copy-on-write publish protocol,
DESIGN.md §4i), so no cross-process synchronisation is needed.

Hygiene is explicit and testable:

* every segment created by this process is tracked in a module
  registry and unlinked by :func:`unlink` (or the ``atexit`` safety
  net), so a crashed parent cannot strand ``/dev/shm`` entries;
* spawned workers share the parent's resource-tracker *process* (the
  tracker fd travels in the spawn preparation data), so a worker's
  attach is a set-no-op registration and a dying worker can never
  trigger an unlink; the single registration from :func:`publish`
  stays live until :func:`unlink` retires it, and the shared tracker
  unlinks leftovers only if the whole tree crashes — the desired
  safety net;
* :func:`assert_no_leaked_segments` is the teardown helper every serve
  test calls: it fails the test if any segment created by this process
  is still linked.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ServingError

#: Per-array alignment inside a segment; 64 bytes covers every SIMD
#: width BLAS cares about, so mapped views are as fast as fresh allocs.
ALIGNMENT = 64

#: Segment names are namespaced by the creating PID so concurrent test
#: runs (or two servers on one host) can never collide or cross-unlink.
_PREFIX = f"mdp{os.getpid():08x}"

_counter = itertools.count()
_lock = threading.Lock()
#: Names created by this process and not yet unlinked.
_live: set[str] = set()


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def publish(
    arrays: dict[str, np.ndarray], tag: str
) -> tuple[shared_memory.SharedMemory | None, dict]:
    """Copy ``arrays`` into one fresh segment; return (segment, manifest).

    The manifest is a plain picklable dict understood by :func:`attach`.
    An empty ``arrays`` dict publishes no segment (``None`` handle,
    ``manifest["segment"] is None``) — an epoch with no enrolled users
    is legitimate and must not allocate a zero-byte segment.
    """
    entries: dict[str, dict] = {}
    offset = 0
    ordered: list[tuple[str, np.ndarray]] = []
    for key, value in arrays.items():
        value = np.ascontiguousarray(value)
        offset = _align(offset)
        entries[key] = {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "offset": offset,
        }
        ordered.append((key, value))
        offset += value.nbytes
    if not ordered:
        return None, {"segment": None, "entries": {}, "nbytes": 0}
    name = f"{_PREFIX}-{tag}-{next(_counter)}"
    try:
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(offset, 1)
        )
    except OSError as exc:  # pragma: no cover - host /dev/shm exhaustion
        raise ServingError(f"cannot create shared segment {name!r}: {exc}") from exc
    with _lock:
        _live.add(segment.name)
    view = np.frombuffer(segment.buf, dtype=np.uint8)
    for key, value in ordered:
        entry = entries[key]
        start = entry["offset"]
        view[start : start + value.nbytes] = value.reshape(-1).view(np.uint8)
    return segment, {
        "segment": segment.name,
        "entries": entries,
        "nbytes": offset,
    }


def attach(
    manifest: dict,
) -> tuple[shared_memory.SharedMemory | None, dict[str, np.ndarray]]:
    """Map a published manifest; returns (segment handle, read-only views).

    Safe to call from worker processes: parent and spawned workers
    share one resource-tracker process (the tracker fd is inherited
    through the spawn preparation data) and its cache is a *set*, so
    the stdlib's register-on-attach is a no-op re-registration — never
    undo it, or the parent's own registration from :func:`publish`
    vanishes and the eventual :func:`unlink` trips a tracker KeyError.
    The returned arrays hold references into the mapping — keep the
    handle (or the arrays) alive as long as any view is in use, and do
    not ``close()`` the handle while views exist.
    """
    name = manifest.get("segment")
    if name is None:
        return None, {}
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise ServingError(
            f"shared segment {name!r} is gone (published epoch retired "
            "before this worker mapped it)"
        ) from exc
    arrays: dict[str, np.ndarray] = {}
    for key, entry in manifest["entries"].items():
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(
            segment.buf, dtype=dtype, count=count, offset=entry["offset"]
        ).reshape(shape)
        view.setflags(write=False)
        arrays[key] = view
    return segment, arrays


def unlink(segment: shared_memory.SharedMemory | None) -> None:
    """Close and unlink one owned segment (idempotent, never raises)."""
    if segment is None:
        return
    with _lock:
        _live.discard(segment.name)
    try:
        segment.close()
    except Exception:  # pragma: no cover - double close
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover - platform quirks
        pass


def live_segments() -> set[str]:
    """Names created by this process and not yet unlinked."""
    with _lock:
        return set(_live)


def leaked_segments() -> list[str]:
    """Created-here segments still present in the OS namespace."""
    leaked = []
    for name in sorted(live_segments()):
        path = f"/dev/shm/{name}"
        if os.path.exists(path):
            leaked.append(name)
        else:  # non-Linux: probe by attaching
            try:
                probe = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            probe.close()
            leaked.append(name)
    return leaked


def assert_no_leaked_segments() -> None:
    """Teardown helper for serve tests: fail on any stranded segment.

    Unlinks whatever it found *after* composing the failure message, so
    one leaky test does not poison every test that follows it.
    """
    leaked = leaked_segments()
    if leaked:
        for name in leaked:
            try:
                segment = shared_memory.SharedMemory(name=name)
                unlink(segment)
            except FileNotFoundError:
                with _lock:
                    _live.discard(name)
        raise AssertionError(
            f"leaked shared-memory segments: {leaked} (every pool/server "
            "must unlink its segments on stop())"
        )


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for name in live_segments():
        try:
            unlink(shared_memory.SharedMemory(name=name))
        except FileNotFoundError:
            with _lock:
                _live.discard(name)
        except Exception:
            pass
