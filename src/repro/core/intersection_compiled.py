"""Compiled kernel tier: the row kernels in C, by stamp and probe.

When the segment row changes, the row's keys are stamped into a per-call
``mark`` array indexed by order id, and every candidate is then one load —
no merge walk, no branch per comparison (:data:`C_SOURCE`).  Spans are read
in place, and a count-only call (``matches=False``) hands C a NULL output.
The three kernels share that body and differ only in how it counts: the
merge walk and the hash model in closed form, the binary search by walking
each candidate's halving loop — the counts of the
:data:`~repro.core.intersection.COMPARISON_COUNTS` table.

The source is built once, **at import**, with the system C compiler
(``cc -O2 -shared -fPIC``) into a user-private cache directory
(``$XDG_CACHE_HOME`` or ``~/.cache``, mode 0700; a per-process ``mkdtemp``
when that is unusable) under a name keyed by the source, the flags and
``cc --version``, and loaded with :mod:`ctypes`; later imports load the
cached file.  No survey, timed region or forked worker ever compiles.
Import never raises: any failure leaves :data:`COMPILED_ROW_KERNELS` empty,
:mod:`repro.core.intersection` does not register the tier, and
``kernel_tier="compiled"`` downgrades to ``columnar``;
:func:`compiled_tier_status` says what happened.
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

from .intersection import COMPARISON_COUNTS, RowAdjacency, RowBatchResult
from .intersection import _check_spans

__all__ = ["CompiledTierStatus", "compiled_tier_status", "COMPILED_ROW_KERNELS", "C_SOURCE"]

_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Segment ``s`` is the span ``src[starts[s]:ends[s]]`` of the source keys
#: (spans may overlap: a row's wedge suffixes nest), its row ``keys[indptr[r]:
#: indptr[r+1]]`` for ``r = rows[s]``.  Every loop writes one ``(segment,
#: source position, global adjacency position)`` per match into the three
#: ``cap``-slot rows of ``out`` — ``cap`` is the spans' total length, which
#: can exceed ``n_src``; one match per span key at most — or, when ``out`` is
#: NULL, writes nothing and only counts; it stores the pairwise kernels' exact
#: comparison count and returns the match count — or BAD_*, before reading
#: out of bounds (BAD_KEY: a stamped row holds a key outside ``[0,
#: order_count)``, the ``mark`` array's extent; BAD_TICK: the segments' row
#: lengths sum to 2^62 or more, past what the stamp tick may count).
C_SOURCE = r"""
#include <stdint.h>
typedef int64_t i64;
typedef uint64_t u64;
enum { BAD_ROW = -1, BAD_SPAN = -2, BAD_KEY = -3, BAD_TICK = -4 };

#define ARGS const i64 *src, const i64 *starts, const i64 *ends, i64 n_seg,    \
    i64 n_src, i64 cap, const i64 *rows, const i64 *keys, const i64 *indptr,   \
    i64 n_rows, i64 n_keys, i64 order_count, i64 *mark, i64 *out,              \
    i64 *comparisons
#define PASS src, starts, ends, n_seg, n_src, cap, rows, keys, indptr, n_rows, \
    n_keys, order_count, mark, out, comparisons

#define SEGMENT                                                                \
    i64 i = starts[seg], hi = ends[seg], row = rows[seg];                      \
    i64 j = indptr[row], jhi = indptr[row + 1];

/* Every segment's row, span and row slice in range, checked for all of
   them before any key is read; spans of non-negative length also keep the
   matches within out's cap = sum(ends - starts) slots.  A NULL out (count
   only) is checked the same way.  So is the stamp ticks' bound, once. */
static i64 check_spans(ARGS) {
    u64 ticks = 0;
    for (i64 seg = 0; seg < n_seg; seg++) {
        i64 i = starts[seg], hi = ends[seg], row = rows[seg];
        if (row < 0 || row >= n_rows) return BAD_ROW;
        i64 j = indptr[row], jhi = indptr[row + 1];
        if (i < 0 || hi < i || hi > n_src || j < 0 || jhi < j || jhi > n_keys)
            return BAD_SPAN;
        if ((ticks += (u64)(jhi - j)) >= (u64)1 << 62) return BAD_TICK;
    }
    return 0;
}

/* How many of the sorted a[lo:hi] are <= key (branch-free halving). */
static i64 upper_bound(const i64 *a, i64 lo, i64 hi, i64 key) {
    const i64 *base = a + lo;
    i64 n = hi - lo;
    if (n == 0) return 0;
    while (n > 1) {
        i64 half = n / 2;
        base = base[half - 1] <= key ? base + half : base;
        n -= half;
    }
    return (base - (a + lo)) + (*base <= key);
}

/* The comparisons of the pairwise binary search for key in the sorted
   a[lo:hi]: its halving loop, then the equality test when the search ends
   inside the row. */
static i64 search_cost(const i64 *a, i64 lo, i64 hi, i64 key) {
    i64 count = 0, end = hi;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        count++;
        if (a[mid] < key) lo = mid + 1; else hi = mid;
    }
    return count + (lo < end);
}

enum { HASH, MERGE, BINARY };

/* Stamp and probe, the body of every entry point.  mark is the call's own
   zeroed order_count + 1 slots, never cleared: a row is stamped from a
   running tick, mark[k] = tick + (position of key k in the row) + 1, so
   key k is in the row being probed iff mark[k] > tick, and the next row
   starts its tick past every stamp this one wrote.  Slot order_count stays
   0 and absorbs every out-of-range candidate, so a probe is one load and
   the output slot is written unconditionally (slot m is below cap); a
   match's global adjacency position is mark[k] + off, off = j - tick - 1.
   count_only (out is NULL) only counts, m += mark[...] > tick.  Rows and
   candidates are sorted and duplicate-free, so the matches (segment order,
   then candidate order) are every pairwise kernel's.  mode picks the
   comparison count: the merge walk's consumed - matches (the list whose
   last key is smaller runs out, the other stops at the upper bound of that
   key, and equal last keys consume both); the hash model's table build
   over the row and one probe per candidate, an empty span included; the
   binary search's halving walk per candidate. */
static inline __attribute__((always_inline)) i64
stamp_probe(ARGS, int mode, int count_only) {
    i64 bad = check_spans(PASS);
    if (bad) return bad;
    if (order_count < 0) return BAD_KEY;
    i64 m = 0, count = 0, stamped = -1, tick = 0, next = 0, off = 0;
    for (i64 seg = 0; seg < n_seg; seg++) {
        SEGMENT
        if (mode == HASH) count += (jhi - j) + (hi - i);
        if (i == hi || j == jhi) continue;
        if (row != stamped) {
            tick = next;
            for (i64 k = j; k < jhi; k++) {
                if ((u64)keys[k] >= (u64)order_count) return BAD_KEY;
                mark[keys[k]] = tick + (k - j) + 1;
            }
            next = tick + (jhi - j), off = j - tick - 1;
            stamped = row;
        }
        i64 first = m;
        if (count_only)
            for (; i < hi; i++) {
                i64 ck = src[i];
                m += mark[(u64)ck < (u64)order_count ? ck : order_count] > tick;
            }
        else
            for (; i < hi; i++) {
                i64 ck = src[i];
                i64 p = mark[(u64)ck < (u64)order_count ? ck : order_count];
                out[m] = seg, out[cap + m] = i, out[2 * cap + m] = p + off;
                m += p > tick;
            }
        i64 i0 = starts[seg];
        if (mode == MERGE) {
            i64 clast = src[hi - 1], alast = keys[jhi - 1];
            i64 consumed = clast < alast ? (hi - i0) + upper_bound(keys, j, jhi, clast)
                         : clast > alast ? (jhi - j) + upper_bound(src, i0, hi, alast)
                         : (hi - i0) + (jhi - j);
            count += consumed - (m - first);
        } else if (mode == BINARY)
            for (; i0 < hi; i0++) count += search_cost(keys, j, jhi, src[i0]);
    }
    *comparisons = count;
    return m;
}

/* Each entry point inlines one copy of the body per mode (out NULL: count
   only), so no copy tests out or mode per segment. */
i64 merge_path_rows(ARGS) { return out ? stamp_probe(PASS, MERGE, 0) : stamp_probe(PASS, MERGE, 1); }

i64 hash_rows(ARGS) { return out ? stamp_probe(PASS, HASH, 0) : stamp_probe(PASS, HASH, 1); }

i64 binary_search_rows(ARGS) { return out ? stamp_probe(PASS, BINARY, 0) : stamp_probe(PASS, BINARY, 1); }
"""


#: The C side's BAD_KEY and BAD_TICK returns.
_BAD_KEY, _BAD_TICK = -3, -4


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
    for name in COMPARISON_COUNTS:
        loop = getattr(lib, f"{name}_rows")
        loop.restype = i64
        loop.argtypes = [ptr, ptr, ptr, i64, i64, i64, ptr, ptr, ptr, i64, i64, i64, ptr, ptr, ptr]
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

    def kernel(
        source_keys, seg_starts, seg_ends, seg_rows, adjacency: RowAdjacency, matches=True
    ) -> RowBatchResult:
        src, starts, ends, rows = map(_as_i64, (source_keys, seg_starts, seg_ends, seg_rows))
        keys, indptr = _as_i64(adjacency.keys), _as_i64(adjacency.indptr)
        n_rows = indptr.size - 1
        if not starts.shape == ends.shape == rows.shape == (starts.size,):
            _check_spans(src, starts, ends, rows, n_rows)  # raises
        out, cap = None, 0  # count only: C gets a NULL out
        if matches:
            # Sized by the spans, not the source: a row's suffixes overlap.
            cap = int(ends.sum() - starts.sum())
            out = _np.empty((3, max(cap, 0)), dtype=_np.int64)
        # The stamp array is the call's own: ctypes drops the GIL, so two
        # threads may run kernels on one RowAdjacency at once.
        mark = _np.zeros(max(adjacency.order_count, 0) + 1, dtype=_np.int64)
        comparisons = ctypes.c_int64(0)
        m = loop(
            src.ctypes.data, starts.ctypes.data, ends.ctypes.data, starts.size, src.size, cap,
            rows.ctypes.data, keys.ctypes.data, indptr.ctypes.data, n_rows, keys.size,
            adjacency.order_count, mark.ctypes.data, None if out is None else out.ctypes.data,
            ctypes.byref(comparisons),
        )
        if m == _BAD_KEY:
            raise ValueError(f"adjacency keys must lie in [0, {adjacency.order_count})")
        if m == _BAD_TICK:
            raise ValueError("the segments' row lengths must sum below 2**62")
        if m < 0:
            # C rejected a span or row before reading any key: raise what
            # every tier raises, or blame the adjacency when those pass.
            _check_spans(src, starts, ends, rows, n_rows)
            raise ValueError("adjacency indptr is not a monotone in-range span per row")
        if out is None:
            return RowBatchResult(None, None, None, comparisons.value, m)
        return RowBatchResult(out[0, :m], out[1, :m], out[2, :m], comparisons.value)

    return kernel


#: Compiled-tier row kernels keyed like COMPARISON_COUNTS; empty when the
#: library did not load (see :func:`compiled_tier_status`).
COMPILED_ROW_KERNELS: Dict[str, Callable[..., RowBatchResult]] = (
    {name: _row_kernel(_LIB, name) for name in COMPARISON_COUNTS} if _LIB else {}
)
