"""Out-of-core CSR storage: memmap-spilled adjacency columns, tracked unlink.

A resident :class:`~repro.graph.dodgr.CSRAdjacency` keeps every per-edge
column (target order-ids, owners, wire-size prefix sums) plus the row
kernels' composite-key array in process memory — O(|E|) int64 words each,
which is the wall the paper's "massive-scale" surveys care about.  This
module spills those columns to ``np.memmap`` segment files so the operating
system pages them in on demand: the survey's working set becomes the chunked
candidate stream (bounded by :attr:`StorageConfig.chunk_candidates`, derived
from the configured memory budget) instead of the whole graph.

What spills and what stays:

* **spilled** — ``tgt_ids``, ``indptr``, ``tgt_owner``, ``tgt_wire_sizes``,
  ``tgt_vertex_wire``, ``cand_size_cumsum`` (:data:`SPILLED_COLUMNS`) and
  the precomputed :class:`~repro.core.intersection.RowAdjacency`
  composite-key array; the snapshot's attributes *are* the memmaps, so
  every engine driver reads the same (now disk-backed) arrays with no code
  fork.
* **resident** — the object metadata columns (``edge_meta``, ``tgt_meta``,
  ``row_meta``), the entry fields no driver reads (``tgt_vertex``,
  ``tgt_degree``), the per-row columns, and the value memo reducers derive
  from the metadata
  (:meth:`~repro.graph.dodgr.CSRAdjacency.extracted_values`).
  Metadata payloads are arbitrary Python objects and cannot be memmapped;
  counting surveys (``callback=None``) never touch them, which is what the
  beyond-RAM benchmark exercises.  This is the documented limitation of the
  mmap storage tier (see ``docs/kernels.md``).

Segment lifecycle mirrors the tracked-registry pattern of
:mod:`repro.runtime.backend.shm`: every created segment file is recorded in
a module-level registry (:func:`active_segment_paths`), every exit path of
the owning :class:`~repro.graph.dodgr.DODGraph` — normal release, exception,
``LivelockError`` abort — ends in :func:`unlink_paths`, and
:func:`sweep_prefix` is the belt-and-braces pass that reclaims run-prefixed
files a crashed process never released.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Iterable, List, Optional, Set, Tuple

import numpy as _np

__all__ = [
    "STORAGES",
    "StorageConfig",
    "resolve_storage",
    "spill_csr",
    "unspill_csr",
    "stage_send_columns",
    "release_csr_segments",
    "unlink_paths",
    "sweep_prefix",
    "active_segment_paths",
]

#: The storage axis, resident first (the default everywhere).
STORAGES: Tuple[str, ...] = ("resident", "mmap")

#: Default memory budget when ``mmap`` storage is configured without one.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024

#: Absolute paths of segment files this process believes exist on disk.
#: Mirrors ``runtime.backend.shm._ACTIVE``: spillers add, every unlink path
#: removes, and the out-of-core benchmark asserts emptiness after release.
_ACTIVE: Set[str] = set()

#: Monotonic counter making each spill's file prefix unique within a process.
_SPILL_SEQ = [0]


def resolve_storage(storage: Any = None) -> str:
    """Normalise a ``storage=`` selector to a known storage mode.

    ``None`` selects resident storage — the default everywhere, so existing
    callers are untouched by the storage axis; a :class:`StorageConfig`
    resolves to its mode.
    """
    if isinstance(storage, StorageConfig):
        storage = storage.mode
    if storage is None:
        return "resident"
    if isinstance(storage, str) and storage in STORAGES:
        return storage
    raise ValueError(f"unknown storage mode {storage!r}; known: {STORAGES}")


@dataclass(frozen=True)
class StorageConfig:
    """How a :class:`~repro.graph.dodgr.DODGraph` stores its CSR snapshots.

    Parameters
    ----------
    mode:
        ``"resident"`` (default: today's in-memory arrays) or ``"mmap"``
        (columns spilled to segment files under ``directory``).
    budget_bytes:
        Target peak size of the survey's transient working set under mmap
        storage; sizes the chunked candidate streams.  ``None`` uses
        :data:`DEFAULT_BUDGET_BYTES`.
    directory:
        Where segment files live (``None``: the system temp directory).
    chunk_candidates:
        Explicit candidate-stream chunk length; ``None`` derives one from
        ``budget_bytes`` (the drivers/handlers keep roughly
        ``chunk_candidates`` concatenated int64 candidates — plus the
        same-order index arrays — alive at once).
    """

    mode: str = "resident"
    budget_bytes: Optional[int] = None
    directory: Optional[str] = None
    chunk_candidates: Optional[int] = None

    def resolved_budget(self) -> int:
        return self.budget_bytes if self.budget_bytes else DEFAULT_BUDGET_BYTES

    def resolved_directory(self) -> str:
        return self.directory or tempfile.gettempdir()

    def resolved_chunk_candidates(self) -> Optional[int]:
        """Candidate-stream chunk length, or None when chunking is off."""
        if self.mode != "mmap":
            return None
        if self.chunk_candidates:
            return max(int(self.chunk_candidates), 256)
        # ~16 transient int64-ish words ride along per concatenated
        # candidate (keys, flat positions, per-wedge size/dest columns and
        # their argsorted twins), so budget/128 keys keeps the per-chunk
        # working set near budget/8 — leaving ample headroom for the
        # payload slices that stay enqueued until the barrier.
        return max(self.resolved_budget() // 128, 256)

    def with_mode(self, mode: str) -> "StorageConfig":
        return replace(self, mode=resolve_storage(mode))


# ---------------------------------------------------------------------------
# Tracked segment files
# ---------------------------------------------------------------------------


def active_segment_paths() -> frozenset:
    """The tracked registry: segment file paths believed on disk right now."""
    return frozenset(_ACTIVE)


def unlink_paths(paths: Iterable[str]) -> None:
    """Unlink every named segment file, tolerating ones already gone."""
    for path in list(paths):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform-specific unlink races
            pass
        _ACTIVE.discard(path)


def sweep_prefix(directory: str, prefix: str) -> List[str]:
    """Reclaim prefix-named segment files a crashed process never released.

    Best-effort directory scan, the analogue of
    :func:`repro.runtime.backend.shm.sweep_prefix`; returns the paths it
    removed.  The tracked registry entries under the prefix are dropped
    whether or not their files were still present.
    """
    removed: List[str] = []
    for path in [p for p in _ACTIVE if os.path.basename(p).startswith(prefix)]:
        _ACTIVE.discard(path)
    if not prefix or not os.path.isdir(directory):
        return removed
    for entry in os.listdir(directory):
        if not entry.startswith(prefix):
            continue
        path = os.path.join(directory, entry)
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced by another cleanup
            continue
        removed.append(path)
    return removed


# ---------------------------------------------------------------------------
# Spilling
# ---------------------------------------------------------------------------

#: Rows per block when streaming columns into a memmap: bounds the transient
#: conversion buffers to a few MB regardless of graph size.
_COPY_CHUNK = 1 << 18


def _new_memmap(directory: str, prefix: str, name: str, length: int):
    """Create (and track) one int64 segment file of ``length`` elements.

    Zero-length columns still get a real (one-element) file so the unlink
    bookkeeping is uniform; the returned array is sliced back to length.
    """
    path = os.path.join(directory, f"{prefix}{name}.seg")
    mm = _np.memmap(path, dtype=_np.int64, mode="w+", shape=(max(length, 1),))
    _ACTIVE.add(path)
    return mm[:length], path


def _flush(segment) -> None:
    """Write a segment through to its file.  A zero-length slice of a
    memmap is a plain array (nothing mapped, nothing to write)."""
    if isinstance(segment, _np.memmap):
        segment.flush()


def _fill_chunked(target, source) -> None:
    """Stream the array ``source`` into ``target`` in bounded chunks."""
    n = len(source)
    for lo in range(0, n, _COPY_CHUNK):
        hi = min(lo + _COPY_CHUNK, n)
        target[lo:hi] = _np.asarray(source[lo:hi], dtype=_np.int64)


#: The :class:`~repro.graph.dodgr.CSRAdjacency` columns that spill — the
#: O(|E|) integer ones the engine drivers read, plus ``indptr``.
SPILLED_COLUMNS = (
    "tgt_ids",
    "indptr",
    "tgt_owner",
    "tgt_wire_sizes",
    "tgt_vertex_wire",
    "cand_size_cumsum",
)


def spill_csr(csr, order_count: int, config: StorageConfig) -> List[str]:
    """Spill one CSR snapshot's column arrays to tracked memmap segments.

    Swaps each of the snapshot's :data:`SPILLED_COLUMNS` for a disk-backed
    copy of the array it holds, and pre-computes the row kernels'
    composite-key array straight into its own segment (the lazy in-memory
    build would otherwise resurrect an O(|E|) resident array mid-survey).
    Tags the snapshot (``csr.storage``/``csr.segment_paths``) and returns
    the created paths; the owning :class:`~repro.graph.dodgr.DODGraph`
    unlinks them on every exit path.
    """
    from ..core.intersection import RowAdjacency  # deferred: core imports graph

    directory = config.resolved_directory()
    _SPILL_SEQ[0] += 1
    prefix = f"repro-ooc-{os.getpid()}-{_SPILL_SEQ[0]}-"
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for name in SPILLED_COLUMNS:
        source = getattr(csr, name)
        mm, path = _new_memmap(directory, prefix, name, len(source))
        _fill_chunked(mm, source)
        _flush(mm)
        paths.append(path)
        setattr(csr, name, mm)
    tgt_ids, indptr = csr.tgt_ids, csr.indptr

    # Composite keys (edge_row * order_count + key), built block-wise so the
    # transient never exceeds the copy chunk.
    composite, comp_path = _new_memmap(directory, prefix, "composite", csr.num_edges)
    stride = _np.int64(order_count)
    for row_lo in range(0, csr.num_rows, _COPY_CHUNK):
        row_hi = min(row_lo + _COPY_CHUNK, csr.num_rows)
        lo, hi = int(indptr[row_lo]), int(indptr[row_hi])
        lengths = _np.asarray(indptr[row_lo + 1 : row_hi + 1]) - _np.asarray(
            indptr[row_lo:row_hi]
        )
        edge_rows = _np.repeat(
            _np.arange(row_lo, row_hi, dtype=_np.int64), lengths
        )
        composite[lo:hi] = edge_rows * stride + tgt_ids[lo:hi]
    _flush(composite)
    paths.append(comp_path)

    adjacency = RowAdjacency(tgt_ids, indptr, order_count)
    adjacency._composite = composite
    csr.row_adj_cache = adjacency
    csr.storage = "mmap"
    csr.segment_paths = paths
    return paths


def unspill_csr(csr) -> None:
    """Read a spilled snapshot's columns back into memory and unlink its segments."""
    if csr.storage != "mmap":
        return
    for name in SPILLED_COLUMNS:
        setattr(csr, name, _np.array(getattr(csr, name)))
    csr.row_adj_cache = None
    release_csr_segments(csr)
    csr.storage = "resident"


def stage_send_columns(csr, rows_sorted, qpos_sorted):
    """Stage one drive's sorted send columns in a disk-backed scratch segment.

    The simulated world enqueues batched push payloads until the barrier
    delivers them, so the driver's ``rows_sorted``/``qpos_sorted`` slices —
    O(|E|) across all ranks — would otherwise stay resident for the whole
    drive phase and defeat the memory budget.  Under mmap storage the
    columns are copied into a per-snapshot scratch memmap (created on first
    use, reused and regrown across drives, unlinked with the snapshot's
    other segments) and the returned disk-backed views are what the driver
    slices into payloads; the in-memory originals die when the drive
    returns.  Resident snapshots pass straight through.
    """
    if getattr(csr, "storage", "resident") != "mmap":
        return rows_sorted, qpos_sorted
    n = int(len(rows_sorted))
    scratch = csr.send_scratch
    if scratch is None or scratch[1] < n:
        if scratch is not None:
            unlink_paths([scratch[2]])
            if scratch[2] in csr.segment_paths:
                csr.segment_paths.remove(scratch[2])
        directory = (
            os.path.dirname(csr.segment_paths[0])
            if csr.segment_paths
            else tempfile.gettempdir()
        )
        _SPILL_SEQ[0] += 1
        prefix = f"repro-ooc-{os.getpid()}-{_SPILL_SEQ[0]}-"
        capacity = max(n, 1)
        path = os.path.join(directory, f"{prefix}send_scratch.seg")
        mm = _np.memmap(path, dtype=_np.int64, mode="w+", shape=(2, capacity))
        _ACTIVE.add(path)
        csr.segment_paths.append(path)
        scratch = (mm, capacity, path)
        csr.send_scratch = scratch
    mm = scratch[0]
    staged_rows = mm[0, :n]
    staged_qpos = mm[1, :n]
    _fill_chunked(staged_rows, _np.asarray(rows_sorted, dtype=_np.int64))
    _fill_chunked(staged_qpos, _np.asarray(qpos_sorted, dtype=_np.int64))
    return staged_rows, staged_qpos


def release_csr_segments(csr) -> None:
    """Unlink one snapshot's segment files (idempotent, exception-safe)."""
    paths = getattr(csr, "segment_paths", None)
    if paths:
        unlink_paths(paths)
        csr.segment_paths = []
    if getattr(csr, "send_scratch", None) is not None:
        csr.send_scratch = None
