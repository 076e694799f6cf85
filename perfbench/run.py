#!/usr/bin/env python3
"""Campaign benchmark: end-to-end metrics, or the traced per-layer split.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload latency_stands --seed 1 --seconds 50 --trace 0

``--trace 0`` runs for ``--seconds``, setting the workload up afresh several
times spread through the run (reporting the median set-up time) and timing
the passes in between, and reports the ``end_to_end`` metrics of
``BENCHMARK.json``.  The run pins itself to one CPU; set-ups and passes
are timed with the wall clock less that CPU's host steal, reads with the
client thread's CPU time (see ``hostclock.py``).  ``--trace 1`` sets up
once, then alternates untraced and traced rounds for ``--seconds`` and
reports the ``per_layer`` metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and details go to
standard error.

The program is imported from ``src/`` next to this directory; the run exits
with status 2, printing no result, when that source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostclock import clock, pin_to_one_cpu, steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

#: Quantile of the pass_p90_s and read_cpu_p90_ms tails.
TAIL = 0.9
#: Untimed passes after every set-up, before the timed passes.
WARMUP_PASSES = 1
#: Fewest timed rounds a ``--trace 1`` run makes, whatever ``--seconds`` says.
MIN_ROUNDS = 3

_clock = time.perf_counter


def percentile(values, q: float) -> float:
    """Linearly interpolated *q*-quantile of *values*."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """Bookkeeping of one benchmark run: every pass is checked and counted."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, outcome):
        self.attempted += outcome.jobs
        self.failed += outcome.wrong
        self.problems.extend(outcome.problems)
        return outcome

    def set_up(self):
        self.workload.tear_down()
        gc.collect()
        start = clock()
        outcome = self.workload.set_up()
        elapsed = clock() - start
        self.note(outcome)
        return elapsed

    def round(self):
        return [self.note(self.workload.run_pass())
                for _ in range(self.workload.passes_per_round)]

    def warm_up(self):
        for _ in range(WARMUP_PASSES):
            self.note(self.workload.run_pass())


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Slices of set-up, warm-up and timed rounds, repeated for *seconds*.

    Each slice sets the workload up afresh, makes its warm-up passes and
    times ``rounds_per_setup`` rounds, so every slice does the same work
    whatever the host's speed, and set-ups and passes sample the same
    stretch of time.  Slices start until *seconds* have passed; the last
    one runs to its end.
    """
    workload = run.workload
    workload.reference()
    start = _clock()
    steal_start = steal_s()
    setups: list[float] = []
    rounds = []
    while not setups or _clock() < start + seconds:
        setups.append(run.set_up())
        run.warm_up()
        rounds.extend(run.round() for _ in range(workload.rounds_per_setup))
    steal = steal_s() - steal_start
    passes = [p for one in rounds for p in one]
    walls = [p.wall_s for p in passes]
    reads = [p.read_cpu_s for p in passes if p.read_cpu_s is not None]
    # A round of service_store holds one pass of every DUT, and the DUTs'
    # times lie apart: a median over single passes falls between two of
    # them and swings with their extremes.  Medians are taken over the
    # rounds' means; tails over single passes.  The tail is p90 even in
    # runs too short to have ten passes beyond it: on service_store the
    # highest percentile with ten beyond then sits at the lower edge of the
    # slowest DUT's passes and swings with them.
    round_walls = [statistics.fmean(p.wall_s for p in one) for one in rounds]
    round_reads = [statistics.fmean(p.read_cpu_s for p in one) for one in rounds
                   if all(p.read_cpu_s is not None for p in one)]
    jobs = sum(p.jobs for p in passes)
    wrong = sum(p.wrong for p in passes)
    _log(f"{len(walls)} timed passes in {len(rounds)} rounds, {len(reads)} reads; "
         f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; host steal "
         f"{steal:.2f} s of {_clock() - start:.1f} s")
    return {
        "setup_s": statistics.median(setups),
        "pass_p50_s": statistics.median(round_walls),
        "pass_p90_s": percentile(walls, TAIL),
        "jobs_per_s": (jobs - wrong) / sum(walls),
        "correct_ratio": (jobs - wrong) / jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # A run whose every read failed has failed its check already.
        "read_cpu_p50_ms": 1e3 * statistics.median(round_reads) if round_reads else 0.0,
        "read_cpu_p90_ms": 1e3 * percentile(reads, TAIL) if reads else 0.0,
    }


def trace_call(tracer, action):
    """Run *action* traced: ``(its result, span totals, plan-cache stats delta)``."""
    from repro.teststand import GLOBAL_PLAN_CACHE

    plan_before = GLOBAL_PLAN_CACHE.stats.snapshot()
    tracer.install()
    try:
        before = tracer.snapshot()
        result = action()
        totals = tracer.snapshot() - before
    finally:
        tracer.uninstall()
    plan_after = GLOBAL_PLAN_CACHE.stats.snapshot()
    plan = {k: plan_after[k] - plan_before[k] for k in plan_after if k != "hit_rate"}
    return result, totals, plan


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    from layers import layer_metrics

    workload = run.workload
    workload.reference()
    run.set_up()
    run.warm_up()
    untraced: list = []
    rounds: list = []
    steal = 0.0
    deadline = _clock() + seconds
    while len(rounds) < MIN_ROUNDS or _clock() < deadline:
        untraced.extend(run.round())
        before = steal_s()
        rounds.append(trace_call(workload.tracer, run.round))
        steal += steal_s() - before
    _log(f"{len(rounds)} traced and {len(rounds)} untraced rounds of "
         f"{workload.passes_per_round} pass(es)")
    metrics = layer_metrics(rounds, untraced, workload.passes_per_round)
    # Span times include steal; this is how much of a traced pass it was.
    metrics["host.steal_s"] = steal / (len(rounds) * workload.passes_per_round)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"no program source at {SRC / 'repro'}; run from a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    sys.path[:0] = [str(SRC), str(HERE)]
    # Before any thread starts, so that every thread inherits it.
    pin_to_one_cpu()
    # Keep the program's scratch files (SQLite temp files, git lookups for
    # run provenance) inside the checkout.
    WORKDIR.mkdir(parents=True, exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = str(WORKDIR)
    os.environ["TMPDIR"] = str(WORKDIR)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _log(f"imported repro from {repro.__file__}, not from {SRC}")
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](Tracer(), args.seed, WORKDIR)
    run = Run(workload)
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(run, args.seconds)
    finally:
        workload.tear_down()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    for problem in run.problems[:20]:
        _log(f"check failed: {problem}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
