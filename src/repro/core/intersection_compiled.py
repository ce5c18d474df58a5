"""Compiled kernel tier: the paper's merge-path row kernels in C.

The columnar tier (:mod:`repro.core.intersection`) finds matches with one
composite-key ``searchsorted`` and *replays* the comparison counts through
closed forms.  This tier walks the scalar reference loops themselves
(:data:`C_SOURCE`: merge, binary search, hash), so its matches and
``comparisons`` totals equal the scalar kernels' by construction.

The source is built once, **at import**, with the system C compiler
(``cc -O2 -shared -fPIC``) into a user-private cache directory
(``$XDG_CACHE_HOME`` or ``~/.cache``, mode 0700; a per-process ``mkdtemp``
when that is unusable) under a name keyed by the source, the flags and
``cc --version``, and loaded with :mod:`ctypes`; later imports load the
cached file.  No survey, timed region or forked worker ever compiles.
Import never raises: any failure leaves :data:`COMPILED_ROW_KERNELS` empty,
:mod:`repro.core.intersection` does not register the tier, and
``kernel_tier="compiled"`` downgrades to ``columnar``;
:func:`compiled_tier_status` says what happened.  Only the row kernels (the
``columnar`` engine's) have a compiled form.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as _np

from .intersection import INTERSECTION_KERNELS, RowAdjacency, RowBatchResult
from .intersection import _check_offsets, _check_rows

__all__ = ["CompiledTierStatus", "compiled_tier_status", "COMPILED_ROW_KERNELS", "C_SOURCE"]

_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Segment ``s`` is ``cand[offs[s]:offs[s+1]]``, its row ``keys[indptr[r]:
#: indptr[r+1]]`` for ``r = rows[s]``.  Every loop writes one ``(segment, flat
#: candidate position, global adjacency position)`` per match into the three
#: ``n_cand``-slot rows of ``out`` (one match per candidate at most), stores the
#: scalar kernels' exact comparison count and returns the match count — or
#: BAD_*, before reading out of bounds.
C_SOURCE = r"""
#include <stdint.h>
typedef int64_t i64;
enum { BAD_ROW = -1, BAD_SPAN = -2 };

#define ARGS const i64 *cand, const i64 *offs, i64 n_seg, i64 n_cand,          \
    const i64 *rows, const i64 *keys, const i64 *indptr, i64 n_rows,           \
    i64 n_keys, i64 *out, i64 *comparisons

#define SEGMENT                                                                \
    i64 i = offs[seg], hi = offs[seg + 1], row = rows[seg];                    \
    if (row < 0 || row >= n_rows) return BAD_ROW;                              \
    i64 j = indptr[row], jhi = indptr[row + 1];                                \
    if (i < 0 || hi < i || hi > n_cand || j < 0 || jhi < j || jhi > n_keys)    \
        return BAD_SPAN;

#define EMIT(c, a) (out[m] = seg, out[n_cand + m] = (c), out[2 * n_cand + m] = (a), m++)

i64 merge_path_rows(ARGS) {
    i64 m = 0, count = 0;
    for (i64 seg = 0; seg < n_seg; seg++) {
        SEGMENT
        while (i < hi && j < jhi) {
            i64 ck = cand[i], ak = keys[j];
            count++;
            if (ck == ak) { EMIT(i, j); i++; j++; }
            else if (ck < ak) i++;
            else j++;
        }
    }
    *comparisons = count;
    return m;
}

i64 binary_search_rows(ARGS) {
    i64 m = 0, count = 0;
    for (i64 seg = 0; seg < n_seg; seg++) {
        SEGMENT
        for (; i < hi; i++) {
            i64 ck = cand[i], lo = j, top = jhi;
            while (lo < top) {
                i64 mid = lo + (top - lo) / 2;
                count++;
                if (keys[mid] < ck) lo = mid + 1; else top = mid;
            }
            if (lo < jhi) {
                count++;
                if (keys[lo] == ck) EMIT(i, lo);
            }
        }
    }
    *comparisons = count;
    return m;
}

/* Matches by the merge walk (inputs are sorted and duplicate-free, so the
   matched set and its order equal the hash probe's); the count is the scalar
   hash model: one table build per segment over its row, one probe per key. */
i64 hash_rows(ARGS) {
    i64 m = 0, count = 0;
    for (i64 seg = 0; seg < n_seg; seg++) {
        SEGMENT
        count += (jhi - j) + (hi - i);
        while (i < hi && j < jhi) {
            i64 ck = cand[i], ak = keys[j];
            if (ck == ak) { EMIT(i, j); i++; j++; }
            else if (ck < ak) i++;
            else j++;
        }
    }
    *comparisons = count;
    return m;
}
"""


@dataclass(frozen=True)
class CompiledTierStatus:
    """What the import-time build/load of the compiled tier did, and why."""

    available: bool
    compiler: Optional[str]
    library: Optional[str]
    reason: str


def _find_compiler() -> Optional[str]:
    return next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


def _private_dir(root: str) -> str:
    """``<root>/repro-kernels`` if it is (or can be made) ours alone, else a
    fresh ``mkdtemp`` (0700 by construction) removed at interpreter exit."""
    path = os.path.join(root, "repro-kernels")
    if os.path.isabs(root):  # an unexpanded "~" must not become ./~
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            info = os.stat(path)
            mine = info.st_uid == os.getuid() and not stat.S_IMODE(info.st_mode) & 0o077
            if mine and os.access(path, os.W_OK | os.X_OK):
                return path
        except OSError:
            pass
    path = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def _build(compiler: str, library: str) -> Optional[str]:
    """Compile :data:`C_SOURCE` to ``library``; the failure reason, or None."""
    # Built under a temp name and renamed, so a concurrent first import can
    # never dlopen a half-written file.
    fd, partial = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(library))
    os.close(fd)
    try:
        command = [compiler, *_CFLAGS, "-x", "c", "-", "-o", partial]
        done = subprocess.run(command, input=C_SOURCE, capture_output=True, text=True)
        if done.returncode != 0:
            first = (done.stderr.strip().splitlines() or [""])[0]
            return f"{os.path.basename(compiler)} exited {done.returncode}: {first}"
        os.replace(partial, library)
        return None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _dlopen(library: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(library)
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    for name in INTERSECTION_KERNELS:
        loop = getattr(lib, f"{name}_rows")
        loop.restype = i64
        loop.argtypes = [ptr, ptr, i64, i64, ptr, ptr, ptr, i64, i64, ptr, ptr]
    return lib


def _load() -> Tuple[Optional[ctypes.CDLL], CompiledTierStatus]:
    """Find or build the kernel library and ``dlopen`` it.  Never raises."""
    compiler = _find_compiler()
    if compiler is None:
        return None, CompiledTierStatus(False, None, None, "no C compiler on PATH")
    stage = "cache"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True).stdout
        key = hashlib.sha256("\0".join((C_SOURCE, *_CFLAGS)).encode() + version)
        root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        library = os.path.join(_private_dir(root), f"rows-{key.hexdigest()[:16]}.so")
        reason = "loaded from cache"
        try:
            lib = _dlopen(library)
        except OSError:  # absent, truncated or foreign file: build over it
            stage = "build"
            reason = _build(compiler, library) or "built"
            if reason != "built":
                return None, CompiledTierStatus(False, compiler, None, reason)
            stage = "dlopen"
            lib = _dlopen(library)
    except (OSError, AttributeError) as exc:
        return None, CompiledTierStatus(False, compiler, None, f"{stage} failed: {exc}")
    return lib, CompiledTierStatus(True, compiler, library, reason)


_LIB, _STATUS = _load()


def compiled_tier_status() -> CompiledTierStatus:
    """Whether the compiled tier loaded in this process, from where, and why
    (not) — ``"built"``, ``"loaded from cache"``, ``"no C compiler on PATH"``,
    ``"cc exited 1: ..."``, ``"dlopen failed: ..."``.  Read-only."""
    return _STATUS


def _as_i64(values) -> "_np.ndarray":
    # A plain contiguous int64 *view* where the input already is one:
    # memmapped storage="mmap" columns are read in place, never copied.
    return _np.ascontiguousarray(values, dtype=_np.int64)


def _row_kernel(lib: ctypes.CDLL, name: str) -> Callable[..., RowBatchResult]:
    loop = getattr(lib, f"{name}_rows")

    def kernel(candidate_keys, offsets, seg_rows, adjacency: RowAdjacency) -> RowBatchResult:
        cand, offs, rows = _as_i64(candidate_keys), _as_i64(offsets), _as_i64(seg_rows)
        _check_offsets(cand, offs)
        keys, indptr = _as_i64(adjacency.keys), _as_i64(adjacency.indptr)
        n_seg, n_rows = offs.size - 1, indptr.size - 1
        if rows.size != n_seg:
            raise ValueError(f"{rows.size} segment rows for {n_seg} segments")
        out = _np.empty((3, cand.size), dtype=_np.int64)
        comparisons = ctypes.c_int64(0)
        m = loop(
            cand.ctypes.data, offs.ctypes.data, n_seg, cand.size,
            rows.ctypes.data, keys.ctypes.data, indptr.ctypes.data, n_rows, keys.size,
            out.ctypes.data, ctypes.byref(comparisons),
        )
        if m < 0:
            _check_rows(rows, n_rows)  # BAD_ROW: the IndexError every tier raises
            raise ValueError("offsets / adjacency indptr are not monotone in-range spans")
        return RowBatchResult(out[0, :m], out[1, :m], out[2, :m], comparisons.value)

    kernel.__name__ = f"{name}_rows_compiled"
    kernel.__doc__ = f"Compiled-tier :func:`~repro.core.intersection.{name}_rows`."
    return kernel


#: Compiled-tier row kernels keyed like INTERSECTION_KERNELS; empty when the
#: library did not load (see :func:`compiled_tier_status`).
COMPILED_ROW_KERNELS: Dict[str, Callable[..., RowBatchResult]] = (
    {name: _row_kernel(_LIB, name) for name in INTERSECTION_KERNELS} if _LIB else {}
)
