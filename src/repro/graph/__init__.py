"""Decorated temporal graph substrate: storage, construction, generators, I/O."""

from .degree import order_key
from .delta import AppliedDelta, DeltaBuffer
from .distributed_graph import DistributedGraph
from .dodgr import DODGraph
from .edge_list import DistributedEdgeList, canonical_pair, validate_edge_columns
from .generators import (
    GeneratedGraph,
    chung_lu_power_law,
    clustered_web_graph,
    community_host_graph,
    erdos_renyi,
    fqdn_web_graph,
    rmat,
    reddit_like_temporal_graph,
)
from .io import (
    load_edge_list,
    read_edge_file,
    read_edges_partitioned,
    read_vertex_file,
    write_edge_file,
    write_vertex_file,
)
from .metadata import (
    TriangleBatch,
    TriangleMetadata,
    edge_timestamp,
    temporal_edge_meta,
)
from .partition import CyclicPartitioner, HashPartitioner, Partitioner
from .properties import (
    build_adjacency,
    dodgr_wedge_count,
    serial_triangle_count,
    serial_triangle_list,
    summarize_edges,
)

__all__ = [
    "DistributedGraph",
    "DODGraph",
    "DistributedEdgeList",
    "canonical_pair",
    "DeltaBuffer",
    "AppliedDelta",
    "order_key",
    "GeneratedGraph",
    "rmat",
    "erdos_renyi",
    "chung_lu_power_law",
    "clustered_web_graph",
    "community_host_graph",
    "reddit_like_temporal_graph",
    "fqdn_web_graph",
    "TriangleBatch",
    "TriangleMetadata",
    "temporal_edge_meta",
    "edge_timestamp",
    "Partitioner",
    "HashPartitioner",
    "CyclicPartitioner",
    "build_adjacency",
    "serial_triangle_count",
    "serial_triangle_list",
    "dodgr_wedge_count",
    "summarize_edges",
    "load_edge_list",
    "validate_edge_columns",
    "read_edge_file",
    "read_edges_partitioned",
    "read_vertex_file",
    "write_edge_file",
    "write_vertex_file",
]
