"""Test-stand interpreter: executes XML test scripts on a (virtual) stand.

The interpreter is the component the paper requires *"for those test stands,
that are going to be used for component tests"*.  It only consumes

* the stand-independent test script,
* the stand's own resource table and connection matrix,
* the DUT adapter information (which signal sits on which pin),

which is precisely the boundary that makes the test definitions portable.
The execution convention per step is: apply all stimuli of the step, let the
step's Δt elapse, then evaluate all expectations.

The interpreter offers two execution entry points over one shared core:
:meth:`TestStandInterpreter.run` performs every instrument call
synchronously (blocking for the instrument's ``io_delay``), while
:meth:`TestStandInterpreter.arun` awaits the same calls through
:meth:`~repro.instruments.Instrument.aexecute` - so an asyncio event loop
can interleave many script runs on latency-simulated stands.  Both paths
walk the identical setup/step/action sequence and produce the identical
:class:`~repro.teststand.verdict.TestResult`.
"""

from __future__ import annotations

import time as _time
from typing import Mapping

from ..core.errors import (
    AllocationError,
    ExecutionError,
    InstrumentError,
    TransientError,
)
from ..core.script import ScriptStep, SignalAction, TestScript
from ..core.signals import Signal, SignalSet
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, MethodRegistry, default_registry
from .allocator import Allocator
from .plan import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    PlanCursor,
    action_is_measurement,
    open_circuit_outcome,
    open_circuit_requested,
    registry_fingerprint,
)
from .profiling import PROFILER
from .stands import TestStand
from .verdict import ActionResult, StepResult, TestResult, Verdict
from .vm import VmCursor

__all__ = ["TestStandInterpreter", "run_script"]


class TestStandInterpreter:
    """Executes :class:`~repro.core.script.TestScript` objects on a stand.

    ``plan_cache`` selects the compile-once-run-many fast path: on every
    run the interpreter looks the (script x stand-topology x policy x
    variables) combination up in the cache, compiles its
    :class:`~repro.teststand.plan.ExecutionPlan` on first use and replays
    the pre-resolved allocations on every later run, re-checking only the
    cheap variable-dependent capability window and the availability of the
    planned routes per action (full search on any mismatch - verdicts are
    byte-identical with plans on or off).  It defaults to the process-wide
    :data:`~repro.teststand.plan.GLOBAL_PLAN_CACHE`; pass ``None`` to force
    the pre-plan full search on every action.

    ``use_vm`` (default on, requires a plan cache) selects the bytecode
    fast path on top: when the cached plan carries a compiled
    :class:`~repro.teststand.vm.VmProgram`, each run binds it to the stand,
    self-checks it in a prologue and - if everything matches - executes the
    flat instruction stream instead of walking actions, with verdicts
    byte-identical to the classic path (see :mod:`repro.teststand.vm`).
    """

    #: Domain class, not a pytest test class despite its name.
    __test__ = False

    def __init__(
        self,
        stand: TestStand,
        harness: TestHarness,
        signals: SignalSet,
        *,
        policy: str = "first_fit",
        registry: MethodRegistry | None = None,
        stop_on_error: bool = False,
        plan_cache: PlanCache | None = GLOBAL_PLAN_CACHE,
        use_vm: bool = True,
    ):
        self.stand = stand
        self.harness = harness
        self.signals = signals
        self.registry = registry or stand.registry or default_registry()
        self.policy = policy
        self.stop_on_error = stop_on_error
        self.plan_cache = plan_cache
        self.use_vm = bool(use_vm) and plan_cache is not None
        self._plan_cursor: PlanCursor | None = None
        self._vm_cursor: VmCursor | None = None
        self.allocator = Allocator(
            stand.resources, stand.connections, policy=policy, registry=self.registry
        )

    # -- public API --------------------------------------------------------------

    def run(self, script: TestScript) -> TestResult:
        """Execute *script* synchronously and return the collected verdicts.

        Each instrument call blocks for the instrument's ``io_delay`` - the
        path the serial / thread / process backends use.  When the cached
        plan carries a compiled VM program and its run prologue validates,
        the whole measurement loop executes as the flat instruction stream;
        otherwise (or on any prologue mismatch) the classic per-action walk
        below runs, producing identical verdicts.
        """
        wall_start, variables, clock_start = self._begin(script)

        cursor = self._vm_cursor
        if cursor is not None:
            t0 = _time.perf_counter() if PROFILER.enabled else None
            setup_results, steps = cursor.execute(variables)
            if t0 is not None:
                PROFILER.add("vm_execute", _time.perf_counter() - t0)
            return self._collect(
                script, setup_results, steps, clock_start, wall_start)

        setup_results: list[ActionResult] = []
        setup_failed = False
        for action in script.setup:
            result = self._perform_action(action, variables)
            setup_results.append(result)
            if self.stop_on_error and result.verdict is Verdict.ERROR:
                # A broken setup invalidates every step; abort the run but
                # keep the setup results so the report shows what happened.
                setup_failed = True
                break

        steps: list[StepResult] = []
        if not setup_failed:
            for step in script.steps:
                result = self._run_step(step, variables)
                steps.append(result)
                if self.stop_on_error and result.verdict is Verdict.ERROR:
                    break

        return self._collect(script, setup_results, steps, clock_start, wall_start)

    async def arun(self, script: TestScript) -> TestResult:
        """Execute *script*, awaiting every instrument call.

        The awaitable twin of :meth:`run`: the same setup/step/action walk
        with the same stop-on-error semantics, but instrument I/O goes
        through :meth:`~repro.instruments.Instrument.aexecute` so the event
        loop can run other scripts while this stand's (simulated) I/O is in
        flight.  Aborting a run - a setup error under ``stop_on_error``, or
        the surrounding task being cancelled - therefore never blocks the
        loop on instrument latency that no longer matters.
        """
        wall_start, variables, clock_start = self._begin(script)

        cursor = self._vm_cursor
        if cursor is not None:
            t0 = _time.perf_counter() if PROFILER.enabled else None
            setup_results, steps = await cursor.aexecute(variables)
            if t0 is not None:
                PROFILER.add("vm_execute", _time.perf_counter() - t0)
            return self._collect(
                script, setup_results, steps, clock_start, wall_start)

        setup_results: list[ActionResult] = []
        setup_failed = False
        for action in script.setup:
            result = await self._aperform_action(action, variables)
            setup_results.append(result)
            if self.stop_on_error and result.verdict is Verdict.ERROR:
                setup_failed = True
                break

        steps: list[StepResult] = []
        if not setup_failed:
            for step in script.steps:
                result = await self._arun_step(step, variables)
                steps.append(result)
                if self.stop_on_error and result.verdict is Verdict.ERROR:
                    break

        return self._collect(script, setup_results, steps, clock_start, wall_start)

    # -- internals -----------------------------------------------------------------

    def _begin(self, script: TestScript) -> tuple[float, dict[str, float], float]:
        """Shared run prologue: reset allocations, check stand variables."""
        wall_start = _time.perf_counter()
        self.allocator.release_all()
        self.harness.set_ubatt(self.stand.supply_voltage)
        variables = self._variables()
        missing = [name for name in script.variables if name not in variables]
        if missing:
            raise ExecutionError(
                f"test stand {self.stand.name!r} does not provide variables {missing}"
            )
        self._plan_cursor = None
        self._vm_cursor = None
        if self.plan_cache is not None:
            # One cache lookup per run; the first run of a combination pays
            # the compile, every later run replays.  Plan trouble of any
            # kind silently degrades to the full per-action search.
            try:
                plan = self.plan_cache.plan_for(
                    script, self.signals, self.stand,
                    policy=self.policy, registry=self.registry,
                    variables=variables,
                )
                self._plan_cursor = plan.cursor()
            except Exception:
                plan = None
                self._plan_cursor = None
            if self.use_vm and plan is not None and plan.program is not None:
                # VM fast path: bind the program to this stand and run its
                # prologue self-check.  Any mismatch - a live signal pinned
                # differently than compiled, a variable-dependent window
                # that no longer fits - degrades this whole run to the
                # classic walk before anything has executed.
                cursor = VmCursor(
                    plan.program, self.stand,
                    signals=self.signals, allocator=self.allocator,
                    harness=self.harness, stop_on_error=self.stop_on_error,
                )
                if cursor.validate(variables):
                    self._vm_cursor = cursor
                else:
                    self.plan_cache.note_vm_degrade()
        return wall_start, variables, self.harness.now

    def _collect(
        self,
        script: TestScript,
        setup_results: list[ActionResult],
        steps: list[StepResult],
        clock_start: float,
        wall_start: float,
    ) -> TestResult:
        """Shared run epilogue: release resources, assemble the result."""
        self.allocator.release_all()
        cursor = self._plan_cursor
        if cursor is not None:
            if self.plan_cache is not None:
                if self._vm_cursor is not None:
                    # The VM executed the run; the untouched plan cursor
                    # carries no action counters worth folding in.
                    self.plan_cache.note_vm_run()
                else:
                    self.plan_cache.note_run(cursor.hits, cursor.misses)
            self._plan_cursor = None
        self._vm_cursor = None
        # Simulated duration is the harness clock delta, which also covers
        # `wait` actions and time spent during setup - not just the sum of
        # the step durations.
        return TestResult(
            script,
            self.stand.name,
            setup=tuple(setup_results),
            steps=steps,
            duration=self.harness.now - clock_start,
            wall_time=_time.perf_counter() - wall_start,
        )

    def _variables(self) -> dict[str, float]:
        variables = dict(self.harness.variables())
        variables.update(self.stand.variables)
        variables["ubatt"] = self.stand.supply_voltage
        return variables

    def _signal_for(self, action: SignalAction) -> Signal:
        return self.signals.get(action.signal)

    def _is_measurement(self, action: SignalAction) -> bool:
        # Shared with the plan compiler: both must split steps identically.
        return action_is_measurement(self.registry, action.method)

    def _split_step(
        self, step: ScriptStep
    ) -> tuple[float, tuple[SignalAction, ...], tuple[SignalAction, ...]]:
        """Step prologue shared by both paths: stimuli before expectations.

        The split depends only on (step, registry), so it is memoised on
        the step object - campaign runs walk the same steps thousands of
        times with the same registry.
        """
        start_time = self.harness.now
        # Keyed by registry *content*: every stand carries its own
        # default_registry() instance, so an identity key would thrash
        # across workers - and the fingerprint (unlike a registry) adds
        # nothing noticeable to a pickled step.
        registry_key = registry_fingerprint(self.registry)
        cached = step.__dict__.get("_split_memo")
        if cached is not None and cached[0] == registry_key:
            return start_time, cached[1], cached[2]
        stimuli = tuple(a for a in step.actions if not self._is_measurement(a))
        expectations = tuple(a for a in step.actions if self._is_measurement(a))
        step.__dict__["_split_memo"] = (registry_key, stimuli, expectations)
        return start_time, stimuli, expectations

    def _step_result(
        self, step: ScriptStep, results: list[ActionResult], start_time: float
    ) -> StepResult:
        return StepResult(
            number=step.number,
            duration=step.duration,
            actions=tuple(results),
            remark=step.remark,
            start_time=start_time,
        )

    def _run_step(self, step: ScriptStep, variables: Mapping[str, float]) -> StepResult:
        start_time, stimuli, expectations = self._split_step(step)
        results: list[ActionResult] = []
        for action in stimuli:
            results.append(self._perform_action(action, variables))
        # Let the step duration elapse before the expectations are evaluated.
        self.harness.advance(step.duration)
        for action in expectations:
            results.append(self._perform_action(action, variables))
        return self._step_result(step, results, start_time)

    async def _arun_step(
        self, step: ScriptStep, variables: Mapping[str, float]
    ) -> StepResult:
        start_time, stimuli, expectations = self._split_step(step)
        results: list[ActionResult] = []
        for action in stimuli:
            results.append(await self._aperform_action(action, variables))
        # The step duration is *simulated* time: advancing the harness clock
        # costs no wall time and therefore needs no await.
        self.harness.advance(step.duration)
        for action in expectations:
            results.append(await self._aperform_action(action, variables))
        return self._step_result(step, results, start_time)

    def _prepare_action(
        self, action: SignalAction, variables: Mapping[str, float]
    ):
        """Everything before the instrument call: signal lookup, ``wait``
        handling, open-circuit realisation and resource allocation.

        Returns a terminal :class:`ActionResult` when the action is already
        decided, else the ``(resource, allocation, signal)`` triple the
        sync/async executors hand to the instrument.
        """
        try:
            signal = self._signal_for(action)
        except Exception as exc:
            return ActionResult(action, Verdict.ERROR, error=f"unknown signal: {exc}")

        if action.method.lower() == "wait":
            duration = float(action.call.param("t", "0") or 0)
            self.harness.advance(duration)
            return ActionResult(action, Verdict.PASS)

        allocation = None
        cursor = self._plan_cursor
        if cursor is not None:
            # Plan fast path: the next planned entry must describe exactly
            # this action (the cursor verifies signal and method, and the
            # replay re-checks window and route availability) - any
            # mismatch falls through to the full slow path below.
            entry = cursor.take(signal.key, action.method)
            if entry is not None:
                if entry.kind == "open":
                    cursor.hits += 1
                    return self._apply_open_circuit(action, signal, entry.outcome)
                allocation = self.allocator.replay(
                    signal, action.call, entry.allocation, variables,
                    window=entry.window,
                )
                if allocation is not None:
                    cursor.hits += 1
                else:
                    cursor.reject()

        if allocation is None:
            open_circuit = self._realise_open_circuit(action, signal, variables)
            if open_circuit is not None:
                return open_circuit
            t0 = _time.perf_counter() if PROFILER.enabled else None
            try:
                allocation = self.allocator.allocate(signal, action.call, variables)
            except AllocationError as exc:
                if t0 is not None:
                    PROFILER.add("allocation", _time.perf_counter() - t0)
                return ActionResult(action, Verdict.ERROR, error=str(exc))
            if t0 is not None:
                PROFILER.add("allocation", _time.perf_counter() - t0)

        resource = self.stand.resources.get(allocation.resource)
        return resource, allocation, signal

    def _perform_action(
        self, action: SignalAction, variables: Mapping[str, float]
    ) -> ActionResult:
        prepared = self._prepare_action(action, variables)
        if isinstance(prepared, ActionResult):
            return prepared
        resource, allocation, signal = prepared
        t0 = _time.perf_counter() if PROFILER.enabled else None
        try:
            outcome = resource.instrument.execute(
                action.call, signal, allocation.pins, self.harness, dict(variables)
            )
        # Transient infrastructure failures (flaky instrument I/O, chaos
        # injections) must reach the executor's retry layer, not become an
        # ERROR verdict: a retried job's verdicts then match a clean run.
        except TransientError:
            raise
        except InstrumentError as exc:
            return ActionResult(action, Verdict.ERROR, allocation=allocation, error=str(exc))
        except Exception as exc:  # harness / model errors surface as execution errors
            return ActionResult(action, Verdict.ERROR, allocation=allocation, error=str(exc))
        finally:
            if t0 is not None:
                PROFILER.add("instrument_io", _time.perf_counter() - t0)
        verdict = Verdict.PASS if outcome.passed else Verdict.FAIL
        return ActionResult(action, verdict, outcome=outcome, allocation=allocation)

    async def _aperform_action(
        self, action: SignalAction, variables: Mapping[str, float]
    ) -> ActionResult:
        prepared = self._prepare_action(action, variables)
        if isinstance(prepared, ActionResult):
            return prepared
        resource, allocation, signal = prepared
        t0 = _time.perf_counter() if PROFILER.enabled else None
        try:
            outcome = await resource.instrument.aexecute(
                action.call, signal, allocation.pins, self.harness, dict(variables)
            )
        except TransientError:  # propagate to the retry layer (see _perform_action)
            raise
        except InstrumentError as exc:
            return ActionResult(action, Verdict.ERROR, allocation=allocation, error=str(exc))
        # asyncio.CancelledError derives from BaseException, so task
        # cancellation propagates instead of being recorded as a verdict.
        except Exception as exc:
            return ActionResult(action, Verdict.ERROR, allocation=allocation, error=str(exc))
        finally:
            if t0 is not None:
                PROFILER.add("instrument_io", _time.perf_counter() - t0)
        verdict = Verdict.PASS if outcome.passed else Verdict.FAIL
        return ActionResult(action, verdict, outcome=outcome, allocation=allocation)

    def _realise_open_circuit(
        self, action: SignalAction, signal: Signal, variables: Mapping[str, float]
    ) -> ActionResult | None:
        """Realise ``put_r r="INF"`` by simply disconnecting the pin.

        A door in its "Closed" status is an open contact; the cheapest (and
        physically most faithful) realisation is to not connect any resource
        at all.  Doing so also frees the resistor decade for other door
        signals - exactly what a human test-stand operator would do.  The
        acceptance window still has to allow an open circuit (``r_max`` must
        be unbounded), otherwise the normal allocation path is used.  The
        decision itself is shared with the plan compiler
        (:func:`~repro.teststand.plan.open_circuit_requested`), which must
        apply the same release to stay in lock-step.
        """
        if not open_circuit_requested(action, signal, variables):
            return None
        return self._apply_open_circuit(
            action, signal, open_circuit_outcome(action, signal)
        )

    def _apply_open_circuit(
        self, action: SignalAction, signal: Signal, outcome: MethodOutcome
    ) -> ActionResult:
        """Disconnect the signal's pins and record the ready-made outcome.

        Shared by the slow path (which just decided the action is an open
        circuit) and the plan fast path (which decided at compile time and
        carries the identical immutable outcome in its entry).
        """
        self.allocator.release(signal.key)
        for pin in signal.pins:
            self.harness.release_resistance(pin)
        return ActionResult(action, Verdict.PASS, outcome=outcome)


def run_script(
    script: TestScript,
    stand: TestStand,
    harness: TestHarness,
    signals: SignalSet,
    *,
    policy: str = "first_fit",
) -> TestResult:
    """Convenience wrapper: build an interpreter and run one script."""
    interpreter = TestStandInterpreter(stand, harness, signals, policy=policy)
    return interpreter.run(script)
