"""Shared-memory numpy array packing (the sharded engine's transport).

The sharded query engine gives every worker process its own
:class:`~repro.forms.CompiledTrackingForm` slice.  Pickling the CSR
arrays through the pool would copy megabytes per worker; instead the
parent packs each shard's arrays *once* into a
:mod:`multiprocessing.shared_memory` segment and ships only a tiny
JSON-safe **descriptor** — segment name plus per-array ``(dtype,
shape, offset)`` — which workers resolve into zero-copy numpy views.

Layout: one segment per logical bundle, arrays laid out back to back
at 64-byte-aligned offsets.  The parent owns the segment lifecycle
(:meth:`SharedArrayBundle.close` unlinks); workers attach read-only
views and close their local mapping when done.  Attached views keep
the mapping alive through the ``base`` chain, but holders should keep
the returned handle anyway — see :func:`attach_arrays`.

Nothing here knows about forms;
:class:`~repro.forms.CompiledTrackingForm` layers its ``shm_pack`` /
``shm_attach`` on top of this module.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from typing import Any, Dict, Mapping, Tuple

import numpy as np

#: Prefix of every segment this library creates; the leak tests (and a
#: desperate operator) can find stragglers under ``/dev/shm`` by it.
SEGMENT_PREFIX = "repro-shm"

#: Offset alignment inside a segment; 64 covers every numpy dtype and
#: keeps arrays cache-line aligned.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def segment_name(hint: str = "") -> str:
    """A unique segment name: prefix, pid, random token, and hint."""
    token = secrets.token_hex(4)
    suffix = f"-{hint}" if hint else ""
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{token}{suffix}"


def pack_arrays(
    arrays: Mapping[str, np.ndarray], hint: str = ""
) -> Tuple[shared_memory.SharedMemory, Dict[str, Any]]:
    """Copy named arrays into one fresh shared-memory segment.

    Returns the owning :class:`SharedMemory` handle (the caller must
    eventually ``close()`` **and** ``unlink()`` it — see
    :func:`destroy_segment`) and the JSON-safe descriptor that
    :func:`attach_arrays` resolves in another process.
    """
    layout: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
    cursor = 0
    contiguous: Dict[str, np.ndarray] = {}
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        contiguous[key] = array
        cursor = _aligned(cursor)
        layout[key] = (array.dtype.str, array.shape, cursor)
        cursor += array.nbytes
    # A zero-byte segment is not representable; keep one spare byte.
    shm = shared_memory.SharedMemory(
        name=segment_name(hint), create=True, size=max(cursor, 1)
    )
    for key, array in contiguous.items():
        dtype_str, shape, offset = layout[key]
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
        )
        view[...] = array
    descriptor = {
        "segment": shm.name,
        "arrays": {
            key: [dtype_str, list(shape), offset]
            for key, (dtype_str, shape, offset) in layout.items()
        },
    }
    return shm, descriptor


def attach_arrays(
    descriptor: Mapping[str, Any]
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Zero-copy views over a descriptor's segment (no data copied).

    The returned views hold the mapping open via their ``base`` chain,
    but the :class:`SharedMemory` handle is returned too so the caller
    can ``close()`` the local mapping deterministically.  Attaching
    never registers with the resource tracker (segments are created —
    and therefore unlinked — only by the packing process).
    """
    shm = _attach_segment(descriptor["segment"])
    views: Dict[str, np.ndarray] = {}
    for key, (dtype_str, shape, offset) in descriptor["arrays"].items():
        views[key] = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf,
            offset=offset,
        )
    return shm, views


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    try:
        # Python >= 3.13: opt out of resource-tracker bookkeeping for
        # the attach side explicitly.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink an *owned* segment, tolerating repeats.

    Safe to call more than once and from ``atexit``/finalizers: a
    segment already unlinked (e.g. by an earlier explicit ``close()``)
    is ignored.
    """
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass
