"""Smoke test for the benchmark itself.

Run from the repository root, in a few minutes::

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

It runs every workload with its simulated spans shrunk tenfold and checks
that (1) every metric ``BENCHMARK.json`` names is printed with its unit,
(2) the simulated counters and digest repeat exactly across two runs, and
(3) the ledger and digest checks reject doctored records.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import COUNTER_UNITS, check_cells, check_ledger, run_cell  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPAN_SCALE = 0.1


def _bench(workload: str, trace: int) -> tuple:
    """One short run: (digest, result object) from its stdout."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--span-scale", str(SPAN_SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(
        line.rsplit(" ", 1)[1] for line in lines if line.startswith("cells ")
    )
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return digest, result


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_metrics_printed_and_counters_repeat():
    end_to_end = _declared("end_to_end")
    per_layer = _declared("per_layer")
    for workload in WORKLOADS:
        digest0, plain = _bench(workload, 0)
        digest1, first = _bench(workload, 1)
        digest2, second = _bench(workload, 1)
        for declared, result in ((end_to_end, plain), (per_layer, first)):
            printed = {
                name: metric["unit"] for name, metric in result["metrics"].items()
            }
            assert printed == declared, (workload, printed, declared)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float))
        assert digest0 == digest1 == digest2, workload
        for name in COUNTER_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name


def test_checks_reject_doctored_records():
    record = run_cell(
        "router-10k", seed=0, profile=False, timeout=170, span_scale=SPAN_SCALE
    )
    assert check_ledger(record["ledger"]) == []
    assert check_cells([record, record]) == []
    doctored = [
        ("completed", record["ledger"]["completed"] + 1),
        ("failed", record["ledger"]["failed"] + 1),
        ("generated", record["ledger"]["generated"] - 1),
    ]
    for field, value in doctored:
        bad = copy.deepcopy(record)
        bad["ledger"][field] = value
        assert check_ledger(bad["ledger"]), field
        assert check_cells([record, bad]), field
    empty = {"sent": 0, "completed": 0, "failed": 0, "generated": 0}
    assert check_ledger(empty) == ["no query completed"]
    other = dict(record, digest="0" * 64)
    assert check_cells([record, other])


if __name__ == "__main__":
    test_checks_reject_doctored_records()
    test_metrics_printed_and_counters_repeat()
    print("perfbench smoke: ok")
