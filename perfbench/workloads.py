"""The benchmark's two workloads, their set-up and their output checks.

Every workload is built from public ``repro`` APIs only.  The seed permutes
the campaign order (``latency_stands``) or the DUT cycle (``service_store``);
the program never sees it.

``latency_stands``
    The six DUT campaigns on a big rack whose instruments take 1 ms per
    call, on the single-threaded ``async`` backend multiplexing 8 stands.
    The real-stand case: time goes to waiting and executor scheduling, so a
    physics speed-up should barely move it.
``service_store``
    One closed-loop client drives the in-process campaign service (WSGI
    called directly) over a file-backed result store, then re-runs the same
    campaign checkpointed into that store.  Store writes sit beside store
    reads, so a write-side gain that slows reads shows.

Each pass compares every verdict table byte for byte with a reference made
in set-up: a serial run of the same campaigns on the undelayed stand with
plans, stand reuse and the VM switched off.
"""

from __future__ import annotations

import functools
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import targets
from repro.core.errors import ReproError
from repro.service import CampaignApp, CampaignService
from repro.teststand import GLOBAL_PLAN_CACHE
from repro.teststand.stands import build_big_rack

from hostclock import clock
from tracing import Tracer

#: Registry name of the latency-simulated rack ``latency_stands`` runs on.
SLOW_STAND = "perfbench_slow_rack"
#: Simulated instrument round-trip latency of that rack, in seconds.
IO_DELAY = 0.001
#: Multiplex width of the ``async`` backend on ``latency_stands``.
ASYNC_CONCURRENCY = 8
#: How long the client waits for one service campaign before giving up.
WAIT_TIMEOUT = 60.0

#: Fast paths off: the reference every verdict table is compared with.
_CLASSIC = dict(use_plans=False, reuse_stands=False, use_vm=False)


@dataclass
class PassResult:
    """What one pass did and whether its outputs matched the reference."""

    #: Wall clock of the pass less host steal (see ``hostclock``).
    wall_s: float = 0.0
    jobs: int = 0
    wrong: int = 0
    #: CPU time the client thread spent on the pass's reads, or None when
    #: it made none.
    read_cpu_s: float | None = None
    queue_wait_s: float = 0.0
    problems: list[str] = field(default_factory=list)

    def merge(self, other: "PassResult") -> None:
        self.wall_s += other.wall_s
        self.jobs += other.jobs
        self.wrong += other.wrong
        self.queue_wait_s += other.queue_wait_s
        self.problems.extend(other.problems)


@dataclass(frozen=True)
class Expected:
    """Reference output of one campaign."""

    fault_table: str
    verdict_table: str
    jobs: int


def _expected(result) -> Expected:
    return Expected(result.table() + "\n" + result.summary(),
                    result.execution.verdict_table(), len(result.execution))


def _wrong_jobs(expected: Expected, fault_table: str, verdict_table: str) -> int:
    """Jobs whose output differs from the reference (0 when byte-identical)."""
    if fault_table == expected.fault_table \
            and verdict_table == expected.verdict_table:
        return 0
    # Column widths follow the content, so compare rows with the padding
    # collapsed; a fault table that differs on identical rows still fails.
    got = [" ".join(row.split()) for row in verdict_table.splitlines()[2:]]
    want = [" ".join(row.split())
            for row in expected.verdict_table.splitlines()[2:]]
    wrong = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return min(expected.jobs, max(1, wrong))


def _check(label: str, expected: Expected, fault_table: str,
           verdict_table: str, outcome: PassResult) -> None:
    wrong = _wrong_jobs(expected, fault_table, verdict_table)
    if wrong:
        outcome.wrong += wrong
        outcome.problems.append(
            f"{label}: {wrong} job(s) differ from the reference verdict table")


class CampaignWorkload:
    """``latency_stands``: fixed campaigns, run pass after pass."""

    passes_per_round = 1
    #: Timed rounds after each set-up: about four fifths of a slice is
    #: timed passes, and a 50 s run still sets up about 7 times.
    rounds_per_setup = 10

    def __init__(self, tracer: Tracer, specs, reference_specs, seed: int):
        order = list(specs)
        random.Random(seed).shuffle(order)
        self.tracer = tracer
        self.specs = order
        self.reference_specs = dict(reference_specs)
        self.expected: dict[str, Expected] = {}
        self.campaigns: list = []

    def reference(self) -> None:
        self.expected = {
            label: _expected(targets.run_campaign(spec))
            for label, spec in self.reference_specs.items()
        }

    def set_up(self) -> PassResult:
        """Empty plan cache, build every campaign, run the first pass."""
        GLOBAL_PLAN_CACHE.clear()
        self.campaigns = [(label, *targets.build_campaign(spec))
                          for label, spec in self.specs]
        return self.run_pass()

    def run_pass(self) -> PassResult:
        outcome = PassResult()
        results = []
        with self.tracer.span("bench.pass"):
            start = clock()
            for label, campaign, faults in self.campaigns:
                try:
                    results.append((label, campaign.run(faults)))
                except ReproError as exc:
                    results.append((label, exc))
            outcome.wall_s = clock() - start
        # The read: rendering the verdict tables a campaign run hands back.
        start = time.thread_time()
        rendered = [
            (label, result.table() + "\n" + result.summary(),
             result.execution.verdict_table())
            if not isinstance(result, Exception) else (label, None, str(result))
            for label, result in results
        ]
        outcome.read_cpu_s = time.thread_time() - start
        for label, fault_table, verdict_table in rendered:
            expected = self.expected[label]
            outcome.jobs += expected.jobs
            if fault_table is None:
                outcome.wrong += expected.jobs
                outcome.problems.append(f"{label}: {verdict_table}")
            else:
                _check(label, expected, fault_table, verdict_table, outcome)
        return outcome

    def tear_down(self) -> None:
        self.campaigns = []


def latency_stands(tracer: Tracer, seed: int, workdir: Path) -> CampaignWorkload:
    if SLOW_STAND not in targets.stand_names():
        targets.register_stand(
            SLOW_STAND, functools.partial(build_big_rack, io_delay=IO_DELAY),
            adaptable=True,
            description="big rack with 1 ms instrument round trips")
    duts = targets.campaignable_dut_names()
    specs = [(dut, targets.CampaignSpec(
        dut=dut, stand=SLOW_STAND, backend="async",
        concurrency=ASYNC_CONCURRENCY)) for dut in duts]
    reference = [(dut, targets.CampaignSpec(dut=dut, stand="big_rack", **_CLASSIC))
                 for dut in duts]
    return CampaignWorkload(tracer, specs, reference, seed)


class ServiceStoreWorkload:
    """``service_store``: a closed-loop service client over a file-backed store.

    One pass is one client iteration for the next DUT of the cycle: submit
    the campaign, wait for it with ``CampaignService.wait`` and fetch its
    state with one ``GET /campaigns/<id>``, read its report and its diff
    against the previous run of that DUT, then run the same campaign
    checkpointed into the same store (``repro-campaign --store --resume``).
    Set-up runs one whole cycle, so every later iteration has a run to diff
    against; a round is one cycle, so every DUT weighs the same.
    """

    def __init__(self, tracer: Tracer, seed: int, workdir: Path):
        cycle = list(targets.campaignable_dut_names())
        random.Random(seed).shuffle(cycle)
        self.tracer = tracer
        self.cycle = cycle
        self.passes_per_round = len(cycle)
        #: Timed cycles after each set-up.  The store grows through a slice
        #: of the run; a fixed count keeps its contents at every pass the
        #: same whatever the host's speed.
        self.rounds_per_setup = 3
        self.workdir = workdir
        self.db = workdir / "results.db"
        self.expected: dict[str, Expected] = {}
        self.service: CampaignService | None = None
        self.app: CampaignApp | None = None
        self.previous: dict[str, int] = {}
        self.position = 0

    def reference(self) -> None:
        self.expected = {
            dut: _expected(targets.run_campaign(
                targets.CampaignSpec(dut=dut, **_CLASSIC)))
            for dut in self.cycle
        }

    def set_up(self) -> PassResult:
        """Empty plan cache and store, start the service, run one cycle."""
        GLOBAL_PLAN_CACHE.clear()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.service = CampaignService(str(self.db))
        self.app = CampaignApp(self.service)
        self.previous = {}
        self.position = 0
        outcome = PassResult()
        for _ in self.cycle:
            outcome.merge(self.run_pass())
        return outcome

    def tear_down(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True, timeout=60.0)
            self.service = None
            self.app = None
        for path in self.workdir.glob(self.db.name + "*"):
            path.unlink()

    def _request(self, method: str, path: str, route: str,
                 body: dict | None = None) -> tuple[str, dict]:
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        status: list[str] = []
        with self.tracer.span("service.request." + route):
            payload = b"".join(
                self.app(environ, lambda line, headers: status.append(line)))
        return status[0], json.loads(payload)

    def run_pass(self) -> PassResult:
        dut = self.cycle[self.position % len(self.cycle)]
        self.position += 1
        expected = self.expected[dut]
        previous = self.previous.get(dut)
        outcome = PassResult()
        report = diff = None
        with self.tracer.span("bench.pass"):
            start = clock()
            posted, body = self._request("POST", "/campaigns", "post_campaigns",
                                         {"dut": dut})
            job = body.get("job")
            # Block on the service's own wait, then read the job through
            # the route a client would use; a job still unfinished after the
            # timeout has no run and fails the check below.
            try:
                self.service.wait(job, WAIT_TIMEOUT)
            except ReproError:
                pass
            fetched, snapshot = self._request(
                "GET", f"/campaigns/{job}", "get_campaign")
            run_id = snapshot.get("run_id")
            if run_id is not None:
                read_start = time.thread_time()
                report = self._request("GET", f"/runs/{run_id}/report",
                                       "get_report")
                if previous is not None:
                    diff = self._request(
                        "GET", f"/runs/{previous}/diff/{run_id}", "get_diff")
                outcome.read_cpu_s = time.thread_time() - read_start
            try:
                checkpointed = targets.run_campaign(targets.CampaignSpec(
                    dut=dut, store=str(self.db), resume=True))
            except ReproError as exc:
                checkpointed = exc
            outcome.wall_s = clock() - start

        outcome.jobs = 2 * expected.jobs
        if snapshot.get("state") == "done":
            outcome.queue_wait_s = snapshot["started_at"] - snapshot["submitted_at"]
        if posted != "202 Accepted" or fetched != "200 OK" or run_id is None:
            outcome.wrong += expected.jobs
            outcome.problems.append(
                f"{dut}: service campaign did not finish ({posted}, {fetched}, "
                f"{snapshot.get('state')}: {snapshot.get('error')})")
        elif report[0] != "200 OK":
            outcome.wrong += expected.jobs
            outcome.problems.append(f"{dut}: report of run {run_id}: {report}")
        else:
            served = report[1]
            if served.get("run") != run_id:
                outcome.wrong += expected.jobs
                outcome.problems.append(
                    f"{dut}: asked for run {run_id}, served run {served.get('run')}")
            else:
                _check(f"{dut} served run {run_id}", expected,
                       f"{served.get('table')}\n{served.get('summary')}",
                       served.get("verdict_table") or "", outcome)
        if diff is not None:
            status, delta = diff
            moved = len(delta.get("changed", ())) + len(delta.get("only_a", ())) \
                + len(delta.get("only_b", ()))
            if status != "200 OK" or not delta.get("empty") or moved:
                outcome.wrong += min(expected.jobs, max(1, moved))
                outcome.problems.append(
                    f"{dut}: diff of runs {previous} and {run_id} is not "
                    f"empty ({status}, {moved} delta(s))")
        if isinstance(checkpointed, Exception) or checkpointed.store_run_id is None:
            outcome.wrong += expected.jobs
            outcome.problems.append(f"{dut}: checkpointed run failed: {checkpointed}")
        else:
            _check(f"{dut} checkpointed run", expected,
                   checkpointed.table() + "\n" + checkpointed.summary(),
                   checkpointed.execution.verdict_table(), outcome)
            self.previous[dut] = checkpointed.store_run_id
        return outcome


WORKLOADS = {
    "latency_stands": latency_stands,
    "service_store": ServiceStoreWorkload,
}
