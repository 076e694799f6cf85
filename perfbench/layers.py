"""Per-layer metrics of a traced run, named ``<module>.<what>``.

Times are self times (a span minus its child spans), averaged per pass over
the traced rounds; counts are per pass and must repeat exactly from round to
round.  Every span's self time lands in exactly one ``*_s`` metric below, so
those metrics plus ``trace.residual_s`` (time inside a pass that no layer
span covers: the benchmark's own client code and the service worker's
pick-up latency) add up to ``trace.pass_s``.
"""

from __future__ import annotations

import statistics

#: Span -> the metric its self time is reported under.
SELF_TIME = {
    "dut.network.solve": "dut.network.solve_s",
    "dut.measure.voltage": "dut.measure.s",
    "dut.measure.current": "dut.measure.s",
    "dut.measure.resistance": "dut.measure.s",
    "dut.advance": "dut.advance.s",
    "can.transmit": "can.transmit_s",
    "teststand.plan.lookup": "teststand.plan.lookup_s",
    "teststand.plan.compile": "teststand.plan.compile_s",
    "teststand.vm.execute": "teststand.vm.self_s",
    "teststand.interpreter.run": "teststand.interpreter.self_s",
    "teststand.executor.run_jobs": "teststand.executor.run_jobs_s",
    "teststand.executor.job": "teststand.executor.job_s",
    "teststand.executor.stand_reset": "teststand.executor.stand_reset_s",
    "instruments.execute": "instruments.execute.s",
    "instruments.io_wait": "instruments.io_wait_s",
    "core.compile_suite": "core.compile_suite.s",
    "targets.build_campaign": "targets.build_campaign.s",
    "targets.run_campaign": "targets.run_campaign.s",
    "analysis.campaign_run": "analysis.aggregate_s",
    "store.open": "store.open_s",
    "store.record": "store.record.s",
    "store.checkpoint": "store.checkpoint.s",
    "store.resume": "store.resume_s",
    "store.read": "store.read.s",
    "service.request.post_campaigns": "service.request.post_campaigns_s",
    "service.request.get_campaign": "service.request.get_campaign_s",
    "service.request.get_report": "service.request.get_report_s",
    "service.request.get_diff": "service.request.get_diff_s",
}

#: Count metric -> the span calls (or tracer counters) it sums.
COUNTS = {
    "dut.network.solves": ("dut.network.solve",),
    "dut.measure.calls": ("dut.measure.voltage", "dut.measure.current",
                          "dut.measure.resistance"),
    "dut.measure.voltage_calls": ("dut.measure.voltage",),
    "dut.advance.calls": ("dut.advance",),
    "can.frames": ("can.transmit",),
    "teststand.plan.lookups": ("teststand.plan.lookup",),
    "teststand.vm.runs": ("teststand.vm.execute",),
    "teststand.interpreter.runs": ("teststand.interpreter.run",),
    "teststand.executor.jobs": ("teststand.executor.jobs",),
    "teststand.executor.attempts": ("teststand.executor.attempts",),
    "teststand.executor.stand_resets": ("teststand.executor.stand_reset",),
    "instruments.execute.calls": ("instruments.execute",),
    "instruments.round_trips": ("instruments.io_wait",),
    "core.compile_suite.calls": ("core.compile_suite",),
    "store.record.calls": ("store.record",),
    "store.checkpoint.calls": ("store.checkpoint",),
    "store.read.calls": ("store.read",),
    "service.request.calls": ("service.request.post_campaigns",
                              "service.request.get_campaign",
                              "service.request.get_report",
                              "service.request.get_diff"),
}

#: Count metric -> the ``GLOBAL_PLAN_CACHE.stats`` counter it is the delta of.
PLAN_COUNTS = {
    "teststand.plan.hits": "plan_hits",
    "teststand.plan.compiled": "plans_compiled",
    "teststand.vm.degraded": "vm_degraded",
}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def round_counts(totals, plan: dict, passes: int) -> dict[str, float]:
    """Per-pass count metrics of one traced round."""
    counts = {name: sum(totals.calls.get(span, 0) for span in spans) / passes
              for name, spans in COUNTS.items()}
    counts.update({name: plan[key] / passes for name, key in PLAN_COUNTS.items()})
    return counts


def round_times(totals, passes: int) -> dict[str, float]:
    """Per-pass self-time metrics of one traced round, plus the accounting."""
    times = dict.fromkeys(SELF_TIME.values(), 0.0)
    for span, metric in SELF_TIME.items():
        times[metric] += totals.self_s.get(span, 0.0) / passes
    accounted = sum(value for span, value in totals.self_s.items()
                    if not span.startswith("bench.")) / passes
    times["trace.pass_s"] = totals.root_s / passes
    times["trace.residual_s"] = times["trace.pass_s"] - accounted
    return times


def layer_metrics(rounds, untraced, passes: int) -> dict[str, float]:
    """All per-layer metrics from ``(pass results, totals, plan delta)`` rounds."""
    counts = [round_counts(totals, plan, passes) for _, totals, plan in rounds]
    times = [round_times(totals, passes) for _, totals, _ in rounds]
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.fmean(t[name] for t in times)
    repeat = all(c == counts[0] for c in counts)

    jobs = metrics["teststand.executor.jobs"]
    # Every lookup is a hit or a miss of the cache; the base is the lookups.
    hits = metrics.pop("teststand.plan.hits")
    metrics.update({
        "dut.solves_per_job": _ratio(metrics["dut.network.solves"], jobs),
        "can.frames_per_job": _ratio(metrics["can.frames"], jobs),
        "teststand.plan.hit_ratio": _ratio(hits, metrics["teststand.plan.lookups"]),
        "teststand.vm.run_ratio": _ratio(metrics["teststand.vm.runs"],
                                         metrics["teststand.interpreter.runs"]),
        "teststand.executor.attempts_per_job": _ratio(
            metrics["teststand.executor.attempts"], jobs),
        "trace.residual_ratio": _ratio(metrics["trace.residual_s"],
                                       metrics["trace.pass_s"]),
    })

    traced = [p for passes_run, _, _ in rounds for p in passes_run]
    traced_p50 = statistics.median(p.wall_s for p in traced)
    untraced_p50 = statistics.median(p.wall_s for p in untraced)
    metrics.update({
        "service.queue_wait_s": statistics.fmean(p.queue_wait_s for p in traced),
        "trace.passes": len(traced),
        "trace.counts_repeat": 1.0 if repeat else 0.0,
        "trace.traced_pass_p50_s": traced_p50,
        "trace.untraced_pass_p50_s": untraced_p50,
        "trace.overhead_ratio": _ratio(traced_p50, untraced_p50),
    })
    return metrics
