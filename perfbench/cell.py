"""Run one benchmark cell in this (fresh) process and print its record.

Usage: ``python3 perfbench/cell.py --workload NAME --seed N [--profile]``
with ``src`` on ``PYTHONPATH``.  ``run.py`` starts one of these per
measured simulation so that every cell pays the same import and memory
history; the record is one JSON object on the last line of stdout.

The deployment (corpus, LSH index, calibrated costs, machines and their
jitter streams) is built from ``DEPLOYMENT_SEED``; the run's ``--seed``
drives the traffic.

Everything is measured from outside the program: the cell calls the
public builders and ``run_open_loop``, reads counters the program already
keeps, and observes three things without changing behaviour -- the load
generator (through the fabric's ``register``), the queries its source
hands out, and the telemetry hub's resident samples just before the
end-of-run fold.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import sys
import time

from workloads import DEPLOYMENT_SEED, WORKLOADS


def _build(spec: dict, spill_dir: str):
    """The workload's fixed deployment, built from ``DEPLOYMENT_SEED``."""
    from repro.energy import EnergyConfig
    from repro.graph import build_graph, exemplar_graph
    from repro.suite import SCALES, SimCluster, build_service
    from repro.telemetry import TelemetryConfig

    telemetry = None
    if spec["telemetry"] == "streaming":
        telemetry = TelemetryConfig(
            mode="streaming",
            spill_path=os.path.join(spill_dir, f"spill-{os.getpid()}.jsonl"),
        )
    energy = EnergyConfig(enabled=True) if spec["energy"] else None
    cluster = SimCluster(
        seed=DEPLOYMENT_SEED, telemetry=telemetry, energy=energy
    )
    if spec["kind"] == "graph":
        handle = build_graph(cluster, exemplar_graph())
    else:
        handle = build_service(spec["service"], cluster, SCALES[spec["scale"]])
    return cluster, handle, telemetry


class _Observer:
    """Counts what the load generator sees, without altering it."""

    def __init__(self, cluster, handle):
        self.generator = None
        self.replies = 0
        self.generated = 0
        self.retained_samples = None
        fabric, telemetry = cluster.fabric, cluster.telemetry
        register, finalized = fabric.register, telemetry.finalized
        make_source = handle.make_source

        def observe_register(name, deliver):
            # The generator registers its bound reply handler; every
            # packet the fabric delivers to it passes through here.
            self.generator = getattr(deliver, "__self__", None)

            def on_packet(packet):
                self.replies += 1
                deliver(packet)

            register(name, on_packet)

        def observe_finalized():
            self.retained_samples = telemetry.retained_samples()
            return finalized()

        def observe_source():
            source = make_source()
            next_query = source.next_query

            def counted():
                self.generated += 1
                return next_query()

            source.next_query = counted
            return source

        fabric.register = observe_register
        telemetry.finalized = observe_finalized
        handle.make_source = observe_source


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _hist(hist) -> dict:
    if not hist.count:
        return {"count": 0}
    return {
        "count": hist.count,
        "total": hist.total,
        "min": hist.min,
        "max": hist.max,
        **{f"p{p}": hist.percentile(p) for p in (50, 90, 99, 99.9)},
    }


def _midtiers(handle):
    from repro.rpc.server import MidTierRuntime

    groups = handle.extras.get("runtimes", {"midtier": handle.midtiers})
    return [
        runtime for group in groups.values() for runtime in group
        if isinstance(runtime, MidTierRuntime)
    ]


def _counters(cluster, handle, result, observer, events: int) -> dict:
    """Simulated statistics: deterministic for a fixed seed and code."""
    from repro.telemetry import LatencyHistogram

    tel = result.telemetry
    gen = observer.generator
    machines = sorted(m.name for m in cluster.machines)
    # Window counters run from the window's open through the drain, and
    # so do the completions they are normalised by.
    window_done = tel.counters.get("completed_queries", 0)
    per_q = 1.0 / max(window_done, 1)
    syscalls = {name: dict(sorted(tel.syscall_counts(name).items())) for name in machines}
    runqlat = LatencyHistogram.merged(
        [tel.runqlat[name] for name in machines if name in tel.runqlat]
    )
    subrequests = sum(runtime.subrequests_sent for runtime in _midtiers(handle))
    energy = result.energy.to_dict() if result.energy is not None else None
    ledger = {
        "sent": gen.sent,
        "completed": gen.completed,
        "failed": gen.errors + (gen.sent - observer.replies),
        "errors": gen.errors,
        "replies": observer.replies,
        "generated": observer.generated,
    }
    layer = {
        "sim.events": events,
        "sim.events_per_query": events / max(gen.completed, 1),
        "kernel.syscalls_per_query": sum(
            sum(counts.values()) for counts in syscalls.values()
        ) * per_q,
        "kernel.futex_per_query": sum(
            counts.get("futex", 0) for counts in syscalls.values()
        ) * per_q,
        "kernel.ctx_switches_per_query": sum(tel.context_switches.values()) * per_q,
        "kernel.hitm_per_query": sum(tel.hitm.values()) * per_q,
        "kernel.runqlat_p99_us": runqlat.percentile(99) if runqlat.count else 0.0,
        "net.packets_per_query": cluster.fabric.packets_sent / max(gen.completed, 1),
        "net.bytes_per_query": cluster.fabric.bytes_sent / max(gen.completed, 1),
        "net.retransmissions": tel.retransmissions,
        "rpc.subrequests_per_query": subrequests / max(gen.completed, 1),
        "telemetry.retained_samples": observer.retained_samples,
        "loadgen.sent": gen.sent,
        "loadgen.completed": gen.completed,
        "loadgen.e2e_p50_us": result.e2e.percentile(50),
        "loadgen.e2e_p99_us": result.e2e.percentile(99),
        "energy.window_j": energy["total_uj"] / 1e6 if energy else 0.0,
    }
    simulated = {
        "layer": layer,
        "ledger": ledger,
        "window": {"sent": result.sent, "completed": result.completed},
        "sim_now": cluster.sim.now,
        "e2e": _hist(result.e2e),
        "syscalls": syscalls,
        "context_switches": dict(sorted(tel.context_switches.items())),
        "hitm": dict(sorted(tel.hitm.items())),
        "hitm_remote": dict(sorted(tel.hitm_remote.items())),
        "futex_contended_wakes": dict(sorted(tel.futex_contended_wakes.items())),
        "counters": dict(sorted(tel.counters.items())),
        "runqlat": {name: _hist(tel.runqlat_hist(name)) for name in machines},
        "fabric": {
            "packets": cluster.fabric.packets_sent,
            "bytes": cluster.fabric.bytes_sent,
        },
        "energy": energy,
    }
    return {"layer": layer, "ledger": ledger, "digest": _digest(simulated)}


def run_cell(
    workload: str, seed: int, profile: bool, spill_dir: str,
    span_scale: float = 1.0,
) -> dict:
    """Build and run one cell; returns its record (see module docstring).

    ``span_scale`` shortens warm-up, window and drain alike (smoke test).
    """
    import numpy

    import repro
    from repro.sim import RngStreams
    from repro.suite.cluster import run_open_loop

    spec = WORKLOADS[workload]
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    cluster, handle, telemetry = _build(spec, spill_dir)
    setup_s = time.perf_counter() - start
    # Streams are derived from (seed, name) alone, so streams drawn from
    # here on -- the generator's arrivals and query order -- follow the
    # run's seed; seed DEPLOYMENT_SEED reproduces a plain SimCluster run.
    cluster.rng = RngStreams(seed)
    observer = _Observer(cluster, handle)
    events_before = cluster.sim.executed
    cpu_before = time.process_time()
    wall_before = time.perf_counter()
    result = run_open_loop(
        cluster, handle, qps=spec["qps"],
        duration_us=spec["window_us"] * span_scale,
        warmup_us=spec["warmup_us"] * span_scale,
        drain_us=spec["drain_us"] * span_scale,
    )
    wall_s = time.perf_counter() - wall_before
    cpu_s = time.process_time() - cpu_before
    if profiler is not None:
        profiler.disable()
    events = cluster.sim.executed - events_before
    record = _counters(cluster, handle, result, observer, events)
    cluster.shutdown()
    if telemetry is not None and os.path.exists(telemetry.spill_path):
        os.unlink(telemetry.spill_path)
    record.update(
        workload=workload,
        seed=seed,
        profiled=profile,
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )
    if profiler is not None:
        from layers import attribute

        profiler.create_stats()
        record["layers"] = attribute(
            profiler.stats, os.path.dirname(os.path.abspath(repro.__file__))
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--spill-dir", default=".")
    parser.add_argument("--span-scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    record = run_cell(
        args.workload, args.seed, args.profile, args.spill_dir, args.span_scale
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
