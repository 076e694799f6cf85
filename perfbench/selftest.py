"""Self-tests of the campaign benchmark.

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); run them explicitly from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from hostclock import clock, steal_s  # noqa: E402
from layers import COUNTS, PLAN_COUNTS, SELF_TIME, round_counts, round_times  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-pass counts of the traced ``latency_stands`` pass at the commit that
#: introduced the benchmark: the six DUT campaigns, 151 jobs, every one a VM
#: run.  The 878 network solves are the 862 voltage measurements plus the
#: 16 current measurements of a driven output (an undriven one reads 0 A
#: without solving).  The VM pays one latency round trip per I/O batch and
#: never calls ``Instrument.execute``.
LATENCY_STANDS_BASELINE = {
    "teststand.interpreter.runs": 151,
    "teststand.plan.lookups": 151,
    "teststand.vm.runs": 151,
    "dut.network.solves": 878,
    "dut.measure.voltage_calls": 862,
    "can.frames": 822,
    "dut.advance.calls": 720,
    "instruments.execute.calls": 0,
    "instruments.round_trips": 1538,
}


def traced_rounds(name: str, seed: int, workdir: Path, rounds: int = 2):
    """Set *name* up and trace *rounds* rounds after the warm-up."""
    workload = WORKLOADS[name](Tracer(), seed, workdir)
    run = bench.Run(workload)
    try:
        workload.reference()
        run.set_up()
        run.warm_up()
        traced = [bench.trace_call(workload.tracer, run.round)
                  for _ in range(rounds)]
    finally:
        workload.tear_down()
    assert run.failed == 0 and not run.problems, run.problems[:5]
    return workload.passes_per_round, traced


@pytest.fixture(scope="module")
def latency_rounds(tmp_path_factory):
    return traced_rounds("latency_stands", 1, tmp_path_factory.mktemp("latency"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_rounds_and_seeds(name, tmp_path):
    counts = []
    for seed in (1, 2):
        passes, rounds = traced_rounds(name, seed, tmp_path / str(seed))
        counts += [round_counts(totals, plan, passes) for _, totals, plan in rounds]
    assert all(c == counts[0] for c in counts[1:]), counts
    assert counts[0]["teststand.executor.jobs"] > 0


def test_latency_stands_baseline_counts(latency_rounds):
    passes, rounds = latency_rounds
    _, totals, plan = rounds[0]
    counts = round_counts(totals, plan, passes)
    assert {name: counts[name] for name in LATENCY_STANDS_BASELINE} == LATENCY_STANDS_BASELINE
    assert counts["teststand.plan.hits"] == counts["teststand.plan.lookups"]
    assert counts["teststand.vm.degraded"] == 0


def test_self_times_account_for_the_pass(latency_rounds):
    passes, rounds = latency_rounds
    for _, totals, _ in rounds:
        times = round_times(totals, passes)
        layers = sum(times[metric] for metric in set(SELF_TIME.values()))
        assert layers + times["trace.residual_s"] == pytest.approx(times["trace.pass_s"])
        assert abs(times["trace.residual_s"]) < 0.05 * times["trace.pass_s"]


def test_clock_is_wall_clock_less_steal():
    steal, start, wall = steal_s(), clock(), time.perf_counter()
    time.sleep(0.2)
    elapsed, stolen = time.perf_counter() - wall, steal_s() - steal
    assert stolen >= 0.0
    # Steal is read in 10 ms ticks.
    assert clock() - start == pytest.approx(elapsed - stolen, abs=0.02)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layer_names = set(m["name"] for m in SPEC["per_layer"])
    # Plan hits are the numerator of teststand.plan.hit_ratio, not a metric.
    reported = set(PLAN_COUNTS) - {"teststand.plan.hits"}
    assert set(SELF_TIME.values()) | set(COUNTS) | reported <= layer_names


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_line(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in group}
    if trace:
        assert result["metrics"]["trace.counts_repeat"]["value"] == 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "latency_stands",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
