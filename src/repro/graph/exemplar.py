"""Committed exemplar graphs for experiments and tests.

:func:`exemplar_graph` is a DeathStarBench-social-network-shaped DAG
(arXiv:1905.11055): five tiers deep on its longest path, with fan-in at
the composer, per-edge fan-out that multiplies into 16 storage lookups
per client query (2 timeline renders × 2 social-graph walks × 4 shard
reads), and an asynchronous fire-and-forget analytics edge off the
front-end.  :func:`onehop_graph` is the matching μSuite-shaped baseline:
the same front-end and the same storage node, one hop apart — the pair
the graph sweep uses to measure how depth amplifies a single slow hop.

In both graphs the storage node is terminal index 0 (declaration order),
so one :class:`~repro.faults.LeafSlowdown` plan targets the same "deep
leaf" in either topology.

:func:`service_graph` is the shape of μSuite's four services themselves
(paper §III): one mid-tier fanning out to N leaves, with the mid-tier's
knobs taken from a :class:`~repro.suite.config.ServiceScale`.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.config import GraphConfig, GraphEdge, GraphNode
from repro.rpc.server import RuntimeConfig
from repro.suite.config import ServiceScale


def exemplar_graph(n_queries: int = 2000) -> GraphConfig:
    """The 5-tier social-network exemplar (8 nodes, one async edge)."""
    return GraphConfig(
        name="socialnet",
        root="frontend",
        n_queries=n_queries,
        nodes=(
            GraphNode(name="frontend", service_us=15.0, merge_us=5.0, cores=2),
            GraphNode(name="compose", service_us=25.0, merge_us=6.0, cores=2),
            GraphNode(name="timeline", service_us=20.0, merge_us=5.0, cores=2),
            GraphNode(name="social", service_us=18.0, merge_us=5.0, cores=2),
            # Terminal index 0: the deep storage tier the sweep injects at.
            GraphNode(name="store", service_us=30.0, cores=4),
            GraphNode(name="media", service_us=30.0, cores=2),
            GraphNode(name="user", service_us=25.0, cores=2),
            GraphNode(name="analytics", service_us=40.0, cores=1),
        ),
        edges=(
            GraphEdge(src="frontend", dst="compose"),
            GraphEdge(src="frontend", dst="analytics", mode="async"),
            GraphEdge(src="compose", dst="timeline", fanout=2),
            GraphEdge(src="compose", dst="media"),
            GraphEdge(src="compose", dst="user"),
            GraphEdge(src="timeline", dst="social", fanout=2),
            GraphEdge(src="social", dst="store", fanout=4),
        ),
    )


def pipeline_graph(
    tiers: int = 4,
    n_queries: int = 2000,
    service_us: float = 40.0,
    merge_us: float = 4.0,
    cores_per_tier: int = 2,
) -> GraphConfig:
    """A linear ``tiers``-deep chain for granularity studies.

    ``stage0 -> stage1 -> ... -> stage{n-1}``, each stage doing the same
    per-visit work on the same core count; the terminal stage declares no
    merge work (leaves never charge it), so the chain merges cleanly all
    the way to a monolith.  Coarsening with
    :func:`~repro.graph.granularity.coarsen_once` walks the granularity
    ladder at constant total cores and constant
    :func:`~repro.graph.granularity.work_per_query` — only the hop count
    (and with it the wakeup/idle structure) changes.
    """
    if tiers < 1:
        raise ValueError(f"tiers must be >= 1: {tiers}")
    nodes = tuple(
        GraphNode(
            name=f"stage{i}",
            service_us=service_us,
            merge_us=merge_us if i < tiers - 1 else 0.0,
            cores=cores_per_tier,
        )
        for i in range(tiers)
    )
    edges = tuple(
        GraphEdge(src=f"stage{i}", dst=f"stage{i + 1}") for i in range(tiers - 1)
    )
    return GraphConfig(
        name=f"pipeline{tiers}",
        root="stage0",
        n_queries=n_queries,
        nodes=nodes,
        edges=edges,
    )


def onehop_graph(n_queries: int = 2000) -> GraphConfig:
    """The μSuite-shaped one-hop baseline: gateway → 4 storage reads."""
    return GraphConfig(
        name="onehop",
        root="gateway",
        n_queries=n_queries,
        nodes=(
            GraphNode(name="gateway", service_us=15.0, merge_us=5.0, cores=2),
            # Same storage node as the exemplar's, one hop from the root.
            GraphNode(name="store", service_us=30.0, cores=4),
        ),
        edges=(GraphEdge(src="gateway", dst="store", fanout=4),),
    )


def service_graph(
    name: str,
    scale: ServiceScale,
    leaves: Sequence[str],
    leaf_cores: int,
    midtier_cores: int,
    midtier_runtime: RuntimeConfig,
) -> GraphConfig:
    """A μSuite service's one-hop graph: root ``mid`` → each of ``leaves``.

    ``leaves`` are declared in leaf-index order, so fault plans and the
    mid-tier app's sub-request indices address them as before.  The root
    takes its replicas, balancer, batching, cache, control and runtime
    from ``scale``; the synthetic-workload fields keep their defaults
    because the service supplies its own apps and queries.
    """
    return GraphConfig(
        name=name,
        root="mid",
        nodes=(
            GraphNode(
                name="mid",
                cores=midtier_cores,
                replicas=scale.topology.midtier_replicas,
                lb=scale.lb,
                batch=scale.batch,
                cache=scale.cache,
                control=scale.control,
                runtime=midtier_runtime,
            ),
            *(
                GraphNode(name=leaf, cores=leaf_cores, runtime=scale.leaf_runtime)
                for leaf in leaves
            ),
        ),
        edges=tuple(GraphEdge(src="mid", dst=leaf) for leaf in leaves),
    )


__all__ = ["exemplar_graph", "onehop_graph", "pipeline_graph", "service_graph"]
