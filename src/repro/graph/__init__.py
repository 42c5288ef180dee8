"""Declarative service-graph DAGs on top of :mod:`repro.rpc`.

μSuite's four services are all one-hop mid-tier fan-outs, but the
paper's thesis — OS and network overheads compound along the request
path — bites hardest in deep graphs (DeathStarBench, arXiv:1905.11055).
This package lets an experiment declare an arbitrary DAG of RPC tiers
(:class:`GraphConfig`), then instantiates it with the existing runtimes:
internal nodes become :class:`~repro.rpc.server.MidTierRuntime`\\ s that
fan out to their children, terminal nodes become
:class:`~repro.rpc.server.LeafRuntime`\\ s, and the PR 3 load balancer,
PR 4 batching/result cache, and PR 5 trace stamps all compose per node.
"""

from repro.graph.build import build_graph
from repro.graph.config import (
    EDGE_MODES,
    GraphConfig,
    GraphEdge,
    GraphError,
    GraphNode,
)
from repro.graph.exemplar import (
    exemplar_graph,
    onehop_graph,
    pipeline_graph,
    service_graph,
)
from repro.graph.granularity import (
    coarsen_once,
    merge_edge,
    monolith,
    split_node,
    work_per_query,
)

__all__ = [
    "EDGE_MODES",
    "GraphConfig",
    "GraphEdge",
    "GraphError",
    "GraphNode",
    "build_graph",
    "coarsen_once",
    "exemplar_graph",
    "merge_edge",
    "monolith",
    "onehop_graph",
    "pipeline_graph",
    "service_graph",
    "split_node",
    "work_per_query",
]
