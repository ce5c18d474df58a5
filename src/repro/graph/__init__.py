"""Decorated temporal graph substrate: storage, construction, generators, I/O."""

from .degree import DegreeOrder, order_key, precedes
from .delta import AppliedDelta, DeltaBuffer
from .directed import (
    DirectedEdgeMeta,
    EdgeDirection,
    direction_between,
    original_edge_meta,
    symmetrize_directed_edges,
)
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
    labeled_vertex_meta,
    temporal_edge_meta,
    vertex_label,
)
from .partition import (
    BlockPartitioner,
    CyclicPartitioner,
    ExplicitPartitioner,
    HashPartitioner,
    Partitioner,
    partition_balance,
)
from .properties import (
    GraphSummary,
    build_adjacency,
    dodgr_wedge_count,
    max_dodgr_out_degree,
    serial_triangle_count,
    serial_triangle_list,
    summarize_distributed,
    summarize_edges,
)

__all__ = [
    "DistributedGraph",
    "DODGraph",
    "DistributedEdgeList",
    "canonical_pair",
    "DeltaBuffer",
    "AppliedDelta",
    "DegreeOrder",
    "order_key",
    "precedes",
    "EdgeDirection",
    "DirectedEdgeMeta",
    "symmetrize_directed_edges",
    "direction_between",
    "original_edge_meta",
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
    "labeled_vertex_meta",
    "vertex_label",
    "Partitioner",
    "HashPartitioner",
    "CyclicPartitioner",
    "BlockPartitioner",
    "ExplicitPartitioner",
    "partition_balance",
    "GraphSummary",
    "build_adjacency",
    "serial_triangle_count",
    "serial_triangle_list",
    "max_dodgr_out_degree",
    "dodgr_wedge_count",
    "summarize_edges",
    "summarize_distributed",
    "load_edge_list",
    "validate_edge_columns",
    "read_edge_file",
    "read_edges_partitioned",
    "read_vertex_file",
    "write_edge_file",
    "write_vertex_file",
]
