"""Edge-list and vertex-metadata file I/O.

The paper's pipeline ingests datasets from edge-list files (with optional
per-edge metadata columns such as timestamps) plus vertex tables (e.g. the
URL/FQDN of every page in the Web Data Commons graph).  This module provides
a small, dependency-free text format:

* **edge files**: one edge per line, tab separated:
  ``u<TAB>v[<TAB>metadata-as-JSON]``
* **vertex files**: one vertex per line: ``v<TAB>metadata-as-JSON``

Vertex ids are written as integers when possible, otherwise as JSON strings.
Lines starting with ``#`` are comments.  Readers can partition the lines
across the ranks of a world so that ingestion exercises the asynchronous
runtime like a parallel file read would.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..runtime.world import World
from .edge_list import DistributedEdgeList

__all__ = [
    "write_edge_file",
    "read_edge_file",
    "write_vertex_file",
    "read_vertex_file",
    "read_edges_partitioned",
    "load_edge_list",
]


def _format_vertex(vertex: Hashable) -> str:
    if isinstance(vertex, bool):
        return json.dumps(vertex)
    if isinstance(vertex, int):
        return str(vertex)
    return json.dumps(vertex)


def _parse_vertex(token: str) -> Hashable:
    try:
        return int(token)
    except ValueError:
        return json.loads(token)


def write_edge_file(
    path: str | Path,
    edges: Iterable[Tuple[Hashable, Hashable, Any]] | Iterable[Tuple[Hashable, Hashable]],
    header: Optional[str] = None,
) -> int:
    """Write edges to ``path``; returns the number of records written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                meta = None
            else:
                u, v, meta = edge  # type: ignore[misc]
            if meta is None:
                handle.write(f"{_format_vertex(u)}\t{_format_vertex(v)}\n")
            else:
                handle.write(
                    f"{_format_vertex(u)}\t{_format_vertex(v)}\t{json.dumps(meta)}\n"
                )
            count += 1
    return count


def read_edge_file(path: str | Path) -> Iterator[Tuple[Hashable, Hashable, Any]]:
    """Yield (u, v, metadata) records from an edge file (metadata None if absent)."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least 2 columns, got {len(parts)}")
            u = _parse_vertex(parts[0])
            v = _parse_vertex(parts[1])
            meta = json.loads(parts[2]) if len(parts) > 2 and parts[2] != "" else None
            yield (u, v, meta)


def write_vertex_file(path: str | Path, vertex_meta: Dict[Hashable, Any]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for vertex, meta in vertex_meta.items():
            handle.write(f"{_format_vertex(vertex)}\t{json.dumps(meta)}\n")
            count += 1
    return count


def read_vertex_file(path: str | Path) -> Dict[Hashable, Any]:
    out: Dict[Hashable, Any] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
            out[_parse_vertex(parts[0])] = json.loads(parts[1])
    return out


def read_edges_partitioned(
    path: str | Path, nranks: int
) -> List[List[Tuple[Hashable, Hashable, Any]]]:
    """Read an edge file splitting records round-robin across ``nranks`` ranks.

    Mirrors a parallel file read where each rank ingests a share of the
    lines; the result feeds a message-driven load
    (``DistributedEdgeList.async_insert``, or ``repro.oracle.routed_load``).
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    per_rank: List[List[Tuple[Hashable, Hashable, Any]]] = [[] for _ in range(nranks)]
    for index, record in enumerate(read_edge_file(path)):
        per_rank[index % nranks].append(record)
    return per_rank


def load_edge_list(world: World, path: str | Path) -> DistributedEdgeList:
    """Read an edge file into a :class:`DistributedEdgeList` on ``world``."""
    edge_list = DistributedEdgeList(world)
    edge_list.extend(read_edge_file(path))
    return edge_list
