"""Split a cProfile run's self time across ``repro`` subpackages.

A function defined under ``repro/<sub>/`` belongs to layer ``<sub>``
(after folding the small subpackages into the layer they serve, see
``FOLD``).  Every other function -- a C builtin such as ``heapq.heappush``
or ``set.update``, numpy's Python wrappers, the import machinery -- is
charged to the layer of whichever ``repro`` function called it.  cProfile
keeps one record per caller/callee pair, so a builtin called from two
layers is split by the cumulative time each caller spent in it; chains of
non-``repro`` frames are followed up to the first ``repro`` caller.  Time
with no ``repro`` caller at all (the benchmark's own frames) is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

LAYERS = (
    "sim", "kernel", "net", "rpc", "telemetry", "services", "loadgen",
    "graph", "energy", "suite", "other",
)

#: Subpackages too small to be a layer of their own, and the layer they
#: serve: corpora feed the service payload, the query cache lives in the
#: RPC runtime, and the rest is deployment glue around the suite.
FOLD = {
    "data": "services",
    "midcache": "rpc",
    "control": "suite",
    "faults": "suite",
    "experiments": "suite",
    "__init__": "suite",
}

Func = Tuple[str, int, str]


def layer_of_file(filename: str, package_dir: str):
    """The layer of a source file, or None outside ``package_dir``."""
    prefix = os.path.join(package_dir, "")
    if not filename.startswith(prefix):
        return None
    sub = filename[len(prefix):].split(os.sep, 1)[0]
    if sub.endswith(".py"):
        sub = sub[:-3]
    sub = FOLD.get(sub, sub)
    return sub if sub in LAYERS else "suite"


def attribute(
    stats: Dict[Func, tuple], package_dir: str
) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "share", "calls"}}`` from a profile's stats.

    ``package_dir`` is the directory of the ``repro`` package.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping each caller to its own ``(cc, nc, tt, ct)``
    for that call edge.
    """
    own = {func: layer_of_file(func[0], package_dir) for func in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def lineage(func: Func, visiting: frozenset) -> Dict[str, float]:
        """Weights over layers for time spent in the non-repro ``func``,
        split by the cumulative time each caller spent in it."""
        if func in memo:
            return memo[func]
        mix: Dict[str, float] = {}
        for caller, (_nc, _cc, _tt, ct) in stats[func][4].items():
            for layer, part in via(caller, visiting | {func}).items():
                mix[layer] = mix.get(layer, 0.0) + ct * part
        total = sum(mix.values())
        memo[func] = (
            {layer: w / total for layer, w in mix.items()} if total > 0
            else {"other": 1.0}
        )
        return memo[func]

    def via(caller: Func, visiting: frozenset) -> Dict[str, float]:
        layer = own.get(caller)
        if layer is not None:
            return {layer: 1.0}
        if caller not in stats or caller in visiting:
            return {"other": 1.0}
        return lineage(caller, visiting)

    table = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}

    def charge(mix: Dict[str, float], self_s: float, calls: float) -> None:
        for layer, part in mix.items():
            table[layer]["self_s"] += self_s * part
            table[layer]["calls"] += calls * part

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if own[func] is not None:
            charge({own[func]: 1.0}, tt, nc)
            continue
        # Each call edge carries the callee's self time from that caller,
        # so a builtin's time splits exactly across the layers calling it.
        for caller, (edge_nc, _edge_cc, edge_tt, _edge_ct) in callers.items():
            charge(via(caller, frozenset({func})), edge_tt, edge_nc)
            tt -= edge_tt
            nc -= edge_nc
        charge({"other": 1.0}, max(tt, 0.0), max(nc, 0))
    total = sum(row["self_s"] for row in table.values()) or 1.0
    for row in table.values():
        row["share"] = row["self_s"] / total
        row["calls"] = round(row["calls"])
    return table


def format_table(table: Dict[str, Dict[str, float]]) -> str:
    """The layer table as aligned text, largest self time first."""
    lines = [f"{'layer':<10} {'self_s':>9} {'share':>7} {'calls':>11}"]
    for layer in sorted(table, key=lambda name: -table[name]["self_s"]):
        row = table[layer]
        lines.append(
            f"{layer:<10} {row['self_s']:9.3f} {row['share']:7.1%} "
            f"{int(row['calls']):11d}"
        )
    return "\n".join(lines)
