"""The benchmark's three cells, as plain data.

Imported by both the parent (``run.py``), which must not import ``repro``,
and the per-cell child (``cell.py``).  Every cell is open-loop Poisson;
the services run at scale ``small`` and the graph is ``exemplar_graph()``.
Simulated spans are in µs: ``wall_s`` covers warm-up, window and drain, so
their sum sets how much host work one cell is.  See README.md for why each
cell was chosen.
"""

from __future__ import annotations

#: Every workload's deployment is built from this seed; ``--seed`` varies
#: only the traffic.  HDSearch's LSH tuner picks a different index shape
#: for each corpus, which moved its host time by a quarter across seeds.
DEPLOYMENT_SEED = 0

WORKLOADS = {
    # The legacy BENCH_engine.json cell's service, load and scale, with a
    # shorter span so several cells fit in one run.  The only cell whose
    # payload (LSH lookup, numpy distances) is real work; its corpus and
    # LSH tuning dominate set-up.
    "hdsearch-10k": {
        "kind": "service",
        "service": "hdsearch",
        "scale": "small",
        "qps": 10_000.0,
        "warmup_us": 20_000.0,
        "window_us": 60_000.0,
        "drain_us": 50_000.0,
        "energy": False,
        "telemetry": "buffered",
    },
    # Light payload, heaviest kernel model (~150 events per query here).
    "router-10k": {
        "kind": "service",
        "service": "router",
        "scale": "small",
        "qps": 10_000.0,
        "warmup_us": 50_000.0,
        "window_us": 250_000.0,
        "drain_us": 50_000.0,
        "energy": False,
        "telemetry": "buffered",
    },
    # DeathStarBench-shaped 5-tier DAG below its knee, with the optional
    # energy account and streaming telemetry on: the most rpc/net work
    # per query and the only cell on the hooks-on path.
    "socialnet-hooks": {
        "kind": "graph",
        "qps": 2_500.0,
        "warmup_us": 40_000.0,
        "window_us": 100_000.0,
        "drain_us": 50_000.0,
        "energy": True,
        "telemetry": "streaming",
    },
}

#: Nominal host seconds of one cell process, untraced and traced, on a
#: 2-vCPU Xeon 2.1 GHz guest: import, set-up, run and shutdown.  ``run.py``
#: divides ``--seconds`` by these to fix how many cells a run holds, so a
#: run's inputs -- and so its ``attempted`` and ``failed`` -- follow from
#: its arguments alone, never from how fast the host happened to be.
CELL_COST_S = {
    "hdsearch-10k": (6.5, 11.0),
    "router-10k": (3.5, 9.0),
    "socialnet-hooks": (3.5, 10.0),
}

#: Thread-pool sizes pinned in every cell's environment.  Unpinned, BLAS
#: set-up on a 2-core box spread over 1.9-3.0 s wall for one HDSearch cell.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
