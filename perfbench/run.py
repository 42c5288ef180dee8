"""The simulator's benchmark: host cost of simulating one cell.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hdsearch-10k --seed 0 --seconds 36 --trace 0

It starts fresh ``cell.py`` processes one after another, as many as fill
about ``--seconds`` on the reference host (a fixed count, so the same
arguments always simulate the same queries), each building and running one
cell of the workload on traffic derived from the given seed, and reports
medians over them.  ``--trace 0`` prints the end-to-end metrics
(host wall, CPU and set-up seconds, peak RSS); ``--trace 1`` alternates
untraced and cProfile-traced cells and prints the per-layer metrics: the
simulated counters, each ``repro`` layer's self time, and the tracing
overhead.  Every cell's request ledger is checked, and cells run on the
same traffic seed must produce the same simulated-statistics digest.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
(queries sent and not answered, over every cell) and ``metrics``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from layers import LAYERS, format_table
from workloads import CELL_COST_S, PINNED_THREADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for streaming-telemetry spills; emptied by each cell.
SPILL_DIR = os.path.join(ROOT, ".bench_tmp")
#: Every run, cells included, must end well inside three minutes.
DEADLINE_S = 170.0
#: Untraced cells per --trace 0 run, at the least, so medians mean something.
MIN_CELLS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Simulated counters read from an untraced cell (``cell.py``), with units.
COUNTER_UNITS = {
    "sim.events": "events",
    "sim.events_per_query": "events/query",
    "kernel.syscalls_per_query": "syscalls/query",
    "kernel.futex_per_query": "futex/query",
    "kernel.ctx_switches_per_query": "switches/query",
    "kernel.hitm_per_query": "hitm/query",
    "kernel.runqlat_p99_us": "us",
    "net.packets_per_query": "packets/query",
    "net.bytes_per_query": "B/query",
    "net.retransmissions": "count",
    "rpc.subrequests_per_query": "subreqs/query",
    "telemetry.retained_samples": "samples",
    "loadgen.sent": "queries",
    "loadgen.completed": "queries",
    "loadgen.e2e_p50_us": "us",
    "loadgen.e2e_p99_us": "us",
    "energy.window_j": "J",
}


def per_layer_units() -> dict:
    """Every --trace 1 metric name with its unit."""
    units = dict(COUNTER_UNITS)
    units["sim.events_per_wall_s"] = "events/s"
    units["loadgen.failed_frac"] = "fraction"
    units["trace.overhead"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls"] = "calls"
    return units


def check_ledger(ledger: dict) -> list:
    """Violations of one cell's whole-run request ledger (empty if closed).

    ``failed`` counts error replies plus queries still unanswered after the
    drain, from the replies the fabric delivered to the generator, so the
    balance below checks the generator's own completion count.
    """
    problems = []
    if ledger["sent"] != ledger["completed"] + ledger["failed"]:
        problems.append(
            f"ledger open: sent {ledger['sent']} != completed "
            f"{ledger['completed']} + failed {ledger['failed']}"
        )
    if ledger["generated"] != ledger["sent"]:
        problems.append(
            f"source handed out {ledger['generated']} queries but the "
            f"generator sent {ledger['sent']}"
        )
    if ledger["completed"] <= 0:
        problems.append("no query completed")
    return problems


def check_cells(cells: list) -> list:
    """Violations across one run's cells: every ledger closes, and cells
    run on the same traffic seed report the same simulated statistics."""
    problems = []
    digests: dict = {}
    for index, cell in enumerate(cells):
        problems += [f"cell {index}: {p}" for p in check_ledger(cell["ledger"])]
        digests.setdefault(cell["seed"], set()).add(cell["digest"])
    for seed, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(
                f"traffic seed {seed}: simulated statistics differ across "
                f"cells: {sorted(seen)}"
            )
    return problems


def traffic_seed(seed: int, index: int) -> int:
    """The traffic seed of a run's ``index``-th input.

    Each cell draws fresh arrivals, so a run's median averages over inputs
    as well as over host noise: one short cell's Poisson query count alone
    moved its event count by 2-6% from seed to seed.
    """
    return seed * 1000 + index


def _git(*args: str):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def pin_cpu():
    """Pin this process, and so every cell it starts, to one CPU.

    On a 2-vCPU guest this cut the cell-to-cell spread of wall time from
    12% to 7%.  Returns the CPU, or None where affinity is unsupported.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def provenance(workload: str, seed: int, cells: list, cpu) -> dict:
    """What this run measured, on what."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": cells[0]["numpy"] if cells else None,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
        "threads": PINNED_THREADS,
        "workload": workload,
        "params": WORKLOADS[workload],
    }


class CellError(RuntimeError):
    """A cell process failed or printed no record."""


def run_cell(
    workload: str, seed: int, profile: bool, timeout: float,
    span_scale: float = 1.0,
) -> dict:
    """Start one fresh cell process and return its record."""
    spill_dir = SPILL_DIR
    os.makedirs(spill_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = spill_dir
    command = [
        sys.executable, os.path.join(HERE, "cell.py"),
        "--workload", workload, "--seed", str(seed), "--spill-dir", spill_dir,
        "--span-scale", repr(span_scale),
    ]
    if profile:
        command.append("--profile")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise CellError(f"cell timed out after {timeout:.0f} s") from err
    if done.returncode != 0:
        raise CellError(
            f"cell exited {done.returncode}:\n{done.stderr.strip()[-4000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise CellError(f"cell printed no record: {done.stdout!r}") from err


def plan(workload: str, seconds: float, trace: bool) -> list:
    """The run's cells, in order, as ``(input index, profiled)`` pairs.

    The count is ``seconds`` over the workload's nominal cell cost
    (``CELL_COST_S``), after the minimum: ``MIN_CELLS`` untraced cells, or
    with ``trace`` one untraced and one traced cell.  It depends on the
    arguments alone, so two runs with the same arguments simulate the same
    queries and report the same ``attempted`` and ``failed``.  Untraced
    cells take inputs 0, 0, 1, 2, ... -- the repeat proves the run
    deterministic -- and with ``trace`` every traced cell re-runs the
    input of the untraced cell before it, which also proves profiling
    changes no simulated result.
    """
    plain_s, traced_s = CELL_COST_S[workload]
    if trace:
        pairs = max(1, int(seconds // (plain_s + traced_s)))
        return [(i, profile) for i in range(pairs) for profile in (False, True)]
    count = max(MIN_CELLS, int(seconds // plain_s))
    return [(0, False)] + [(i, False) for i in range(count - 1)]


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    span_scale: float = 1.0,
):
    """Run the cells ``plan`` names; returns (untraced, traced) records."""
    start = time.perf_counter()
    plain, traced = [], []
    for index, profile in plan(workload, seconds, trace):
        elapsed = time.perf_counter() - start
        (traced if profile else plain).append(run_cell(
            workload, traffic_seed(seed, index), profile,
            timeout=max(DEADLINE_S - elapsed, 1.0), span_scale=span_scale,
        ))
    return plain, traced


def median(cells: list, key: str) -> float:
    return statistics.median(cell[key] for cell in cells)


def end_to_end(plain: list) -> dict:
    return {
        name: {"value": median(plain, name), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def layer_table(traced: list) -> dict:
    """The layer table of the traced cell with the median wall time."""
    return sorted(traced, key=lambda cell: cell["wall_s"])[
        (len(traced) - 1) // 2
    ]["layers"]


def per_layer(plain: list, traced: list) -> dict:
    """Counters of the run's first input, the median traced cell's layer
    table, and the tracing overhead over the same inputs."""
    counters = plain[0]["layer"]
    ledger = plain[0]["ledger"]
    values = {name: counters[name] for name in COUNTER_UNITS}
    values["sim.events_per_wall_s"] = statistics.median(
        cell["layer"]["sim.events"] / cell["wall_s"] for cell in plain
    )
    values["loadgen.failed_frac"] = ledger["failed"] / ledger["sent"]
    values["trace.overhead"] = median(traced, "wall_s") / median(plain, "wall_s")
    table = layer_table(traced)
    for layer in LAYERS:
        for field in ("self_s", "share", "calls"):
            values[f"{layer}.{field}"] = table[layer][field]
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--span-scale", type=float, default=1.0,
        help="shrink every simulated span by this factor (smoke test only)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the running cell before the run exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_cpu()
    try:
        plain, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.span_scale,
        )
    except CellError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(SPILL_DIR)
        except OSError:
            pass
    cells = plain + traced
    problems = check_cells(cells)
    attempted = sum(cell["ledger"]["sent"] for cell in cells)
    failed = sum(cell["ledger"]["failed"] for cell in cells)
    print("provenance " + json.dumps(
        provenance(args.workload, args.seed, cells, cpu), sort_keys=True
    ))
    print(f"cells {len(plain)} untraced, {len(traced)} traced; "
          f"digest {cells[0]['digest']}")
    for cell in cells:
        print(f"cell traffic_seed={cell['seed']} profiled={cell['profiled']} "
              f"events={cell['layer']['sim.events']} digest={cell['digest']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} queries)")
    for name in END_TO_END_UNITS:
        print(f"per-cell {name}: " + " ".join(
            f"{cell[name]:.4f}" for cell in plain
        ) + (" | traced: " + " ".join(
            f"{cell[name]:.4f}" for cell in traced
        ) if traced else ""))
    if args.trace:
        metrics = per_layer(plain, traced)
        print(format_table(layer_table(traced)))
    else:
        metrics = end_to_end(plain)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
