"""Tests for the async execution backend and the instrument latency model.

The async backend's contract has four parts, each covered here:

* determinism - the verdict aggregate is byte-identical to the serial
  backend's for the same jobs (and the same campaign spec),
* cancellation - ``stop_on_error`` aborts an async run exactly like a sync
  run, and a cancelled job task propagates ``CancelledError`` instead of
  recording a verdict,
* concurrency - at most ``concurrency`` jobs are in flight at once, and a
  wide limit actually multiplexes (all jobs overlap on the one worker),
* latency model - ``io_delay`` is paid once per instrument call on both
  the blocking and the awaitable path, and stand builders forward it to
  every instrument.
"""

from __future__ import annotations

import asyncio
import functools
import os
import statistics
import time

import pytest

from repro.core import Compiler
from repro.core.errors import ReproError
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.dut import InteriorLightEcu
from repro.instruments import Dvm, ResistorDecade
from repro.paper import extended_suite, interior_harness, paper_signal_set, paper_suite
from repro.teststand import (
    AsyncExecutor,
    SerialExecutor,
    TestStandInterpreter,
    Verdict,
    aexecute_job,
    build_big_rack,
    build_minimal_bench,
    build_paper_stand,
    expand_jobs,
    run_jobs,
)


def _action(signal: str, method: str, **params) -> SignalAction:
    return SignalAction(signal, MethodCall(method, {k: str(v) for k, v in params.items()}))


def _paper_jobs(stands: int = 4, *, io_delay: float = 0.0, stop_on_error: bool = False):
    scripts = Compiler().compile_suite(paper_suite())
    stand_factory = functools.partial(build_paper_stand, io_delay=io_delay) \
        if io_delay else build_paper_stand
    return expand_jobs(
        scripts,
        paper_signal_set(),
        {f"stand{i}": stand_factory for i in range(stands)},
        interior_harness,
        {"baseline": InteriorLightEcu},
        stop_on_error=stop_on_error,
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestAsyncDeterminism:
    """Async-vs-serial verdict-table byte-identity lives in
    ``test_parity_matrix.py``; here only the async-specific contract."""

    def test_aexecute_job_equals_execute_job(self):
        job = _paper_jobs(stands=1)[0]
        sync_result = TestStandInterpreter(
            job.stand_factory(), job.harness_factory(job.ecu_factory()), job.signals
        ).run(job.script)
        async_result = asyncio.run(aexecute_job(job))
        assert sync_result.verdict is async_result.verdict
        assert [s.verdict for s in sync_result.steps] \
            == [s.verdict for s in async_result.steps]


# ---------------------------------------------------------------------------
# Cancellation / stop-on-error
# ---------------------------------------------------------------------------

class TestAsyncCancellation:
    def _script_with_broken_setup(self):
        step = ScriptStep(0, 0.5, (_action("INT_ILL", "get_u", u_min=0, u_max=1),))
        return TestScript("broken_setup", "interior_light_ecu", [step],
                          setup=(_action("no_such_signal", "get_u", u_min=0, u_max=1),
                                 _action("NIGHT", "wait", t=1)))

    def test_arun_honours_stop_on_error(self):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()),
            paper_signal_set(), stop_on_error=True,
        )
        result = asyncio.run(interpreter.arun(self._script_with_broken_setup()))
        # Identical to the sync contract: the failing setup action is kept,
        # later setup actions and every step are cancelled.
        assert len(result.setup) == 1
        assert result.setup[0].verdict is Verdict.ERROR
        assert result.steps == ()
        assert result.verdict is Verdict.ERROR

    def test_arun_continues_without_stop_on_error(self):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()),
            paper_signal_set(), stop_on_error=False,
        )
        result = asyncio.run(interpreter.arun(self._script_with_broken_setup()))
        assert len(result.setup) == 2
        assert len(result.steps) == 1

    def test_stop_on_error_jobs_identical_across_backends(self):
        jobs = _paper_jobs(stands=2, stop_on_error=True)
        serial = run_jobs(jobs, SerialExecutor())
        async_ = run_jobs(jobs, AsyncExecutor(concurrency=2))
        assert serial.verdict_table() == async_.verdict_table()

    def test_cancelled_job_propagates(self):
        """Cancelling the task of a latency-bound job abandons it mid-await
        instead of recording a verdict."""
        job = _paper_jobs(stands=1, io_delay=0.05)[0]

        async def _cancel_mid_flight():
            task = asyncio.ensure_future(aexecute_job(job))
            await asyncio.sleep(0.01)  # let the job reach its first io await
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(_cancel_mid_flight())


# ---------------------------------------------------------------------------
# Concurrency-limit enforcement
# ---------------------------------------------------------------------------

class TestAsyncConcurrencyLimit:
    def _drive(self, n_jobs: int, concurrency: int) -> tuple[int, set[int]]:
        """Run n fake jobs through map_jobs, tracking peak in-flight count."""
        state = {"inflight": 0, "peak": 0}

        async def fake_job(job, *extra):
            state["inflight"] += 1
            state["peak"] = max(state["peak"], state["inflight"])
            await asyncio.sleep(0.005)
            state["inflight"] -= 1
            return job

        executor = AsyncExecutor(concurrency=concurrency)
        positions = {pos for pos, _ in executor.map_jobs(fake_job, list(range(n_jobs)))}
        return state["peak"], positions

    def test_limit_is_enforced(self):
        peak, positions = self._drive(n_jobs=8, concurrency=2)
        assert peak <= 2
        assert positions == set(range(8))

    def test_wide_limit_multiplexes(self):
        # Every job enters its await before the first sleep elapses, so the
        # one worker really holds all 8 jobs in flight simultaneously.
        peak, _ = self._drive(n_jobs=8, concurrency=8)
        assert peak == 8

    def test_concurrency_floor(self):
        assert AsyncExecutor(concurrency=0).concurrency == 1

    def test_sub_millisecond_awaits_are_not_rounded_up(self):
        # The default epoll loop waits whole milliseconds, so each of these
        # awaits would take at least 1 ms there.
        async def timed_sleep(delay):
            start = time.perf_counter()
            await asyncio.sleep(delay)
            return time.perf_counter() - start

        executor = AsyncExecutor(concurrency=1)
        waits = [wait for _, wait in executor.map_jobs(timed_sleep, [0.0002] * 50)]
        assert min(waits) >= 0.0002  # a timer never fires early
        assert statistics.median(waits) < 0.0008

    def test_loop_teardown_matches_asyncio_run(self):
        state = {}

        async def straggler():
            try:
                await asyncio.sleep(0.5)
            except asyncio.CancelledError:
                state["straggler"] = "cancelled"
                raise

        async def ticker():
            try:
                yield 1
                yield 2
            finally:
                state["ticker"] = "closed"

        async def job(_):
            asyncio.ensure_future(straggler())
            state["ticks"] = ticker()
            await state["ticks"].__anext__()
            state["loop"] = asyncio.get_running_loop()
            return None

        list(AsyncExecutor(concurrency=1).map_jobs(job, [0]))
        assert state["straggler"] == "cancelled"
        assert state["ticker"] == "closed"
        assert state["loop"].is_closed()

    def test_many_open_files_fall_back_to_the_default_loop(self):
        # select() cannot watch a descriptor at or above FD_SETSIZE (1024).
        resource = pytest.importorskip("resource")
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("needs a soft open-file limit of at least 1200")

        async def job(position):
            await asyncio.sleep(0.001)
            return position

        held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
        try:
            results = list(AsyncExecutor(concurrency=2).map_jobs(job, [0, 1]))
        finally:
            for fd in held:
                os.close(fd)
        assert sorted(results) == [(0, 0), (1, 1)]

    def test_rejects_nested_event_loop(self):
        executor = AsyncExecutor(concurrency=2)

        async def _inside_loop():
            with pytest.raises(ReproError):
                list(executor.map_jobs(lambda job: job, []))

        asyncio.run(_inside_loop())


# ---------------------------------------------------------------------------
# Latency model
# ---------------------------------------------------------------------------

class TestLatencyModel:
    def _measure(self, fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def test_io_delay_defaults_to_zero(self):
        assert Dvm("fast").io_delay == 0.0

    def test_io_delay_must_be_non_negative(self):
        from repro.core.errors import InstrumentError
        with pytest.raises(InstrumentError):
            Dvm("bad", io_delay=-0.1)

    def test_execute_blocks_for_io_delay(self):
        harness = interior_harness(InteriorLightEcu())
        signals = paper_signal_set()
        dvm = Dvm("slow", io_delay=0.02)
        call = MethodCall("get_u", {"u_min": "-60", "u_max": "60"})
        elapsed = self._measure(lambda: dvm.execute(
            call, signals.get("INT_ILL"), ("INT_ILL_F", "INT_ILL_R"), harness, {}))
        assert elapsed >= 0.02

    def test_aexecute_awaits_io_delay(self):
        harness = interior_harness(InteriorLightEcu())
        signals = paper_signal_set()
        dvm = Dvm("slow", io_delay=0.02)
        call = MethodCall("get_u", {"u_min": "-60", "u_max": "60"})
        elapsed = self._measure(lambda: asyncio.run(dvm.aexecute(
            call, signals.get("INT_ILL"), ("INT_ILL_F", "INT_ILL_R"), harness, {})))
        assert elapsed >= 0.02

    def test_aexecute_outcome_matches_execute(self):
        harness = interior_harness(InteriorLightEcu())
        decade = ResistorDecade("dec", io_delay=0.0)
        call = MethodCall("put_r", {"r": "100", "r_min": "90", "r_max": "110"})
        signal = paper_signal_set().get("DS_FL")
        sync_outcome = decade.execute(call, signal, ("DS_FL",), harness, {})
        async_outcome = asyncio.run(decade.aexecute(call, signal, ("DS_FL",), harness, {}))
        assert sync_outcome.passed == async_outcome.passed
        assert sync_outcome.observed == async_outcome.observed

    @pytest.mark.parametrize("builder", [build_paper_stand, build_big_rack,
                                         build_minimal_bench])
    def test_stand_builders_forward_io_delay(self, builder):
        stand = builder(io_delay=0.123)
        delays = {resource.instrument.io_delay for resource in stand.resources}
        assert delays == {0.123}

    def test_async_multiplexing_beats_serial_on_latency_stands(self):
        """One async worker drives 4 slow stands nearly as fast as one."""
        jobs = _paper_jobs(stands=4, io_delay=0.002)
        serial = run_jobs(jobs, SerialExecutor())
        async_ = run_jobs(jobs, AsyncExecutor(concurrency=4))
        assert serial.verdict_table() == async_.verdict_table()
        # Conservative bound to stay robust on loaded CI machines; the A4
        # benchmark demonstrates the full (near-linear) multiplex gain.
        assert async_.wall_time < serial.wall_time
