"""Instantiate a :class:`~repro.graph.config.GraphConfig` on a cluster.

This is the one wiring path for every topology: the synthetic DAGs of
:mod:`repro.graph.exemplar` and μSuite's four services alike (each
service builder declares its one-hop ``mid → leaf{i}`` graph and passes
its own apps).  The builder walks the DAG in reverse topological order
(children before parents): terminal nodes become
:class:`~repro.rpc.server.LeafRuntime`\\ s, internal nodes become
mid-tier runtimes whose ``leaf_addrs`` are their children's front
addresses — a node replicated N times sits behind its own
:class:`~repro.rpc.loadbalance.LoadBalancer`.  Per-node batching, result
caching and closed-loop control are wired here and nowhere else.

The root is the client-facing front door, so it keeps the suite's
names: its balancer is ``<prefix>-lb`` and its controller
``<prefix>-ctrl``, steering on end-to-end latency.  Inner tiers use
``<prefix>-<node>-lb`` / ``<prefix>-<node>-ctrl`` and steer on their own
machines' ``midtier_latency:*`` series.  These names (and the machine
names) seed the ``lb:<name>`` and ``sched:<machine>`` RNG streams and key
the telemetry, so they are part of every replicated golden.

Terminal nodes register with ``role="leaf"`` and a ``leaf_index`` equal
to their position in :meth:`GraphConfig.terminal_names`, so a
:class:`~repro.faults.FaultPlan` targets graph leaves the same way it
targets service leaves.  Internal nodes register with ``role="midtier"``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.control import Controller
from repro.graph.apps import GraphLeafApp, GraphNodeApp
from repro.graph.config import GraphConfig, GraphError, GraphNode
from repro.loadgen import CyclingSource
from repro.loadgen.client import E2E_HIST
from repro.midcache import CacheConfig as MidCacheConfig
from repro.midcache import QueryCache
from repro.rpc.adaptive import make_midtier_runtime
from repro.rpc.batching import BatchConfig as RpcBatchConfig
from repro.rpc.loadbalance import LoadBalancer
from repro.rpc.server import LeafRuntime, RuntimeConfig
from repro.services.costmodel import LinearCost
from repro.suite.cluster import ServiceHandle, SimCluster

#: Role defaults when a node declares no explicit runtime config.
DEFAULT_LEAF_RUNTIME = RuntimeConfig(network_threads=1, worker_threads=3)
DEFAULT_NODE_RUNTIME = RuntimeConfig(
    network_threads=2, worker_threads=8, response_threads=4
)

#: Well-known ports, matching the suite's one-hop services.
MIDTIER_PORT = 40
LEAF_PORT = 50


def _batch_config(node: GraphNode) -> Optional[RpcBatchConfig]:
    if not node.batch.enabled:
        return None
    return RpcBatchConfig(
        max_batch=node.batch.max_batch, max_wait_us=node.batch.max_wait_us
    )


def _make_cache(node: GraphNode) -> Optional[QueryCache]:
    # One private cache per replica, like a replica-local memcached.
    if not node.cache.enabled:
        return None
    return QueryCache(
        MidCacheConfig(
            capacity=node.cache.capacity,
            ttl_us=node.cache.ttl_us,
            policy=node.cache.policy,
        )
    )


def _synthetic_workload(cluster: SimCluster, graph: GraphConfig, prefix: str):
    """The synthetic apps (one per node) and query-source factory.

    A fixed cycling query set with per-query work units from a named
    stream (bit-reproducible; the same stream a hand-built equivalent
    topology would draw).  The apps are pure, so a node's replicas share
    one.
    """
    workload_rng = cluster.rng.py(f"{prefix}:workload")
    units = [
        workload_rng.uniform(graph.units_low, graph.units_high)
        for _ in range(graph.n_queries)
    ]
    query_set = [
        (("gq", qid, units[qid]), graph.request_bytes)
        for qid in range(graph.n_queries)
    ]
    apps: Dict[str, object] = {}
    for node in graph.nodes:
        cost = LinearCost.calibrated(node.service_us, units)
        edges = graph.children(node.name)
        if not edges:
            apps[node.name] = GraphLeafApp(node, cost)
            continue
        apps[node.name] = GraphNodeApp(
            node,
            children=[(edge, i) for i, edge in enumerate(edges)],
            cost=cost,
            merge_cost=LinearCost.calibrated(
                node.merge_us,
                [sum(e.fanout for e in edges if e.mode == "sync") or 1],
            ) if node.merge_us > 0 else LinearCost(0.0, 0.0),
        )
    return apps, lambda: CyclingSource(query_set)


def _no_source():
    raise GraphError(
        "a graph built with caller-supplied apps has no synthetic query "
        "source; the caller supplies make_source"
    )


def _check_control(graph: GraphConfig, terminals: List[str]) -> None:
    """Reject control settings the cluster cannot honour, before any
    machine is provisioned."""
    controlled = [node for node in graph.nodes if node.control.enabled]
    for node in controlled:
        if node.name in terminals:
            raise GraphError(
                f"graph {graph.name!r}: terminal node {node.name!r} cannot be "
                "controlled (autoscaling actuates mid-tier runtimes only)"
            )
        # The cluster keeps one set of telemetry windows, enabled by the
        # first controlled tier built; a differing width would silently
        # read windows of that width.
        first = controlled[0]
        if node.control.window_us != first.control.window_us:
            raise GraphError(
                f"graph {graph.name!r}: controlled node {node.name!r} has "
                f"control.window_us={node.control.window_us}, but "
                f"{first.name!r} has {first.control.window_us}; every "
                "controlled tier must share one window width"
            )


def build_graph(
    cluster: SimCluster,
    graph: GraphConfig,
    name_prefix: Optional[str] = None,
    midtier_policy=None,
    tail_policy=None,
    apps: Optional[Mapping[str, object]] = None,
) -> ServiceHandle:
    """Wire one service-graph deployment onto ``cluster``.

    ``apps`` maps every node name to the app its runtimes serve (shared
    by the node's replicas); the caller then supplies the handle's
    ``make_source``.  Without it, the graph's synthetic workload is built.

    Returns a :class:`~repro.suite.cluster.ServiceHandle` whose mid-tier
    fields describe the root tier, so ``run_open_loop`` /
    ``run_closed_loop`` drive a graph exactly like a one-hop service.
    ``extras`` carries the graph, the per-node runtime map, and the
    terminal-name → fault ``leaf_index`` map.
    """
    prefix = name_prefix or graph.name
    terminals = graph.terminal_names()
    leaf_index = {name: i for i, name in enumerate(terminals)}
    _check_control(graph, terminals)
    if apps is None:
        apps, make_source = _synthetic_workload(cluster, graph, prefix)
    else:
        missing = [node.name for node in graph.nodes if node.name not in apps]
        if missing:
            raise GraphError(
                f"graph {graph.name!r}: no app for node(s) {', '.join(missing)}"
            )
        make_source = _no_source

    # Children before parents, so every parent knows its targets.  Among
    # ready nodes, declaration order — so a one-hop graph provisions its
    # leaves first, in leaf-index order, then its mid-tier.
    outstanding = {node.name: len(graph.children(node.name)) for node in graph.nodes}
    build_order: List[str] = []
    ready = [node.name for node in graph.nodes if outstanding[node.name] == 0]
    while ready:
        built = ready.pop(0)
        build_order.append(built)
        for edge in graph.edges:
            if edge.dst == built:
                outstanding[edge.src] -= 1
                if outstanding[edge.src] == 0:
                    ready.append(edge.src)

    front_address: Dict[str, Tuple[str, int]] = {}
    runtimes: Dict[str, list] = {}
    machines: Dict[str, list] = {}
    frontends: Dict[str, LoadBalancer] = {}
    for name in build_order:
        node = graph.node(name)
        app = apps[name]
        is_terminal = name in leaf_index
        tier = prefix if name == graph.root else f"{prefix}-{name}"
        use_control = node.control.enabled
        # Controlled nodes provision the warm pool; the controller decides
        # how many of them admit.
        n_replicas = node.control.max_replicas if use_control else node.replicas
        if use_control and cluster.telemetry.windows is None:
            cluster.telemetry.enable_windows(
                node.control.window_us,
                prefixes=(
                    "e2e_latency", "midtier_latency:", "runqlat:", "ctrl_",
                ),
            )
        node_runtimes: list = []
        node_machines: list = []
        for replica in range(n_replicas):
            suffix = name if n_replicas == 1 else f"{name}{replica}"
            if is_terminal:
                machine = cluster.machine(
                    f"{prefix}-{suffix}", cores=node.cores,
                    role="leaf", leaf_index=leaf_index[name],
                )
                runtime = LeafRuntime(
                    machine, port=LEAF_PORT, app=app,
                    config=node.runtime or DEFAULT_LEAF_RUNTIME,
                )
            else:
                machine = cluster.machine(
                    f"{prefix}-{suffix}", cores=node.cores,
                    policy=midtier_policy, role="midtier",
                )
                runtime = make_midtier_runtime(
                    machine, port=MIDTIER_PORT, app=app,
                    leaf_addrs=[
                        front_address[edge.dst] for edge in graph.children(name)
                    ],
                    config=node.runtime or DEFAULT_NODE_RUNTIME,
                    tail_policy=tail_policy,
                    batch_config=_batch_config(node),
                    cache=_make_cache(node),
                )
            node_runtimes.append(runtime)
            node_machines.append(machine)
        if n_replicas > 1:
            frontend = LoadBalancer(
                cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
                name=f"{tier}-lb",
                replicas=[runtime.address for runtime in node_runtimes],
                policy=node.lb.policy,
                pool_size=node.lb.pool_size,
                initial_active=(
                    node.control.initial_replicas if use_control else None
                ),
            )
            frontends[name] = frontend
            front_address[name] = frontend.address
        else:
            front_address[name] = node_runtimes[0].address
        if use_control:
            if name == graph.root:
                signals = [E2E_HIST]
            else:
                signals = [
                    f"midtier_latency:{machine.name}" for machine in node_machines
                ]
            controller = Controller(
                cluster.sim,
                cluster.telemetry,
                node.control,
                name=f"{tier}-ctrl",
                runtimes=node_runtimes,
                lb=frontends.get(name),
                signals=signals,
                runq_machines=[machine.name for machine in node_machines],
            )
            cluster.controllers.append(controller)
            controller.start()
        runtimes[name] = node_runtimes
        machines[name] = node_machines

    leaves: List[LeafRuntime] = []
    for name in terminals:
        leaves.extend(runtimes[name])
    root_runtimes = runtimes[graph.root]
    return ServiceHandle(
        name=graph.name,
        midtier=root_runtimes[0],
        midtier_machine=machines[graph.root][0],
        leaves=leaves,
        make_source=make_source,
        extras={
            "graph": graph,
            "prefix": prefix,
            "leaf_index": leaf_index,
            "runtimes": runtimes,
            "machines": machines,
            "frontends": frontends,
        },
        midtiers=root_runtimes,
        midtier_machines=machines[graph.root],
        frontend=frontends.get(graph.root),
    )


__all__ = [
    "DEFAULT_LEAF_RUNTIME",
    "DEFAULT_NODE_RUNTIME",
    "LEAF_PORT",
    "MIDTIER_PORT",
    "build_graph",
]
