"""Span tracer for the campaign benchmark: per-layer work counts and self time.

The program under test carries no instrumentation of its own.  While a
:class:`Tracer` is installed it wraps, from outside, the public functions and
methods through which a campaign enters each layer - at the class (or at
every module that bound a function), so calls made *inside* the program are
caught too - and removes every wrapper again on :meth:`Tracer.uninstall`.
Untraced passes therefore run the unmodified program.

Accounting model
----------------
A span is one call of a wrapped entry point.  Time is charged *exclusively*:
at every span boundary the time since the previous boundary on the same
thread goes to the span that was innermost at that moment.  A span's self
time is therefore its duration minus its child spans, and on one thread the
self times of all spans add up to the wall clock of the outermost span
exactly - which is how the benchmark checks that the layers account for a
traced pass.

The open-span stack lives in a :class:`contextvars.ContextVar`, so every
asyncio task keeps its own stack and the async backend's interleaved jobs
do not corrupt each other's parents.  Instrument latency sleeps are wrapped
as ``instruments.io_wait`` spans; while every in-flight job of the event
loop is parked in one, the loop is idle and the idle time is charged there,
which is exactly the waiting the latency-simulated stands cause.

Each thread keeps its own book.  The service worker's spans run while the
client thread waits for it, so summed over threads the layer self times
still fit inside the client's pass; what is left over is client code and
waiting the worker's spans do not cover.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import inspect
import sys
import threading
import time

_clock = time.perf_counter
#: The real sleeps, captured before any wrapper is installed; the wrappers
#: call them and :meth:`Tracer.uninstall` puts them back.
real_sleep = time.sleep
real_async_sleep = asyncio.sleep

#: Spans whose latency sleeps are instrument round trips: the VM pays one
#: per I/O batch, the classic path one per ``Instrument.execute`` call.
_IO_PARENTS = frozenset({"teststand.vm.execute", "instruments.execute"})

#: (module, class, method, span): entry points wrapped at the class.
METHOD_SPANS = (
    ("repro.dut.network", "Network", "solve", "dut.network.solve"),
    ("repro.dut.harness", "TestHarness", "measure_voltage", "dut.measure.voltage"),
    ("repro.dut.harness", "TestHarness", "measure_current", "dut.measure.current"),
    ("repro.dut.harness", "TestHarness", "measure_resistance", "dut.measure.resistance"),
    ("repro.dut.harness", "TestHarness", "advance", "dut.advance"),
    ("repro.can.bus", "CanBus", "transmit", "can.transmit"),
    ("repro.teststand.plan", "PlanCache", "plan_for", "teststand.plan.lookup"),
    ("repro.teststand.vm", "VmCursor", "execute", "teststand.vm.execute"),
    ("repro.teststand.vm", "VmCursor", "aexecute", "teststand.vm.execute"),
    ("repro.teststand.interpreter", "TestStandInterpreter", "run",
     "teststand.interpreter.run"),
    ("repro.teststand.interpreter", "TestStandInterpreter", "arun",
     "teststand.interpreter.run"),
    ("repro.teststand.stands", "TestStand", "reset", "teststand.executor.stand_reset"),
    ("repro.instruments.base", "Instrument", "execute", "instruments.execute"),
    ("repro.instruments.base", "Instrument", "aexecute", "instruments.execute"),
    ("repro.core.compiler", "Compiler", "compile_suite", "core.compile_suite"),
    ("repro.analysis.campaign", "FaultCampaign", "run", "analysis.campaign_run"),
    ("repro.store.store", "ResultStore", "__init__", "store.open"),
    ("repro.store.store", "ResultStore", "record_campaign", "store.record"),
    ("repro.store.store", "ResultStore", "save_checkpoint", "store.checkpoint"),
    ("repro.store.store", "ResultStore", "load_checkpoints", "store.resume"),
    ("repro.store.store", "ResultStore", "clear_checkpoints", "store.resume"),
    ("repro.store.store", "ResultStore", "get_run", "store.read"),
    ("repro.store.store", "ResultStore", "diff_runs", "store.read"),
    ("repro.store.store", "StoredRun", "execution_report", "store.read"),
    ("repro.store.store", "StoredRun", "campaign_result", "store.read"),
)

#: (module, function, span): module functions, wrapped in every ``repro``
#: module that bound them (``from .executor import run_jobs`` copies).
FUNCTION_SPANS = (
    ("repro.teststand.executor", "run_jobs", "teststand.executor.run_jobs"),
    ("repro.teststand.executor", "execute_job", "teststand.executor.job"),
    ("repro.teststand.executor", "aexecute_job", "teststand.executor.job"),
    ("repro.teststand.plan", "compile_plan", "teststand.plan.compile"),
    ("repro.targets", "build_campaign", "targets.build_campaign"),
    ("repro.targets", "run_campaign", "targets.run_campaign"),
)


class _Book:
    """One thread's accumulators."""

    __slots__ = ("current", "last", "self_s", "calls", "root_s")

    def __init__(self) -> None:
        self.current: str | None = None
        self.last = 0.0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Summed duration of this thread's outermost spans.
        self.root_s = 0.0


class Totals:
    """Accumulated self times and counts, summed over threads."""

    def __init__(self, self_s: dict[str, float], calls: dict[str, int],
                 root_s: float):
        self.self_s = self_s
        self.calls = calls
        #: Outermost-span wall clock of the thread the snapshot was taken on.
        self.root_s = root_s

    def __sub__(self, other: "Totals") -> "Totals":
        return Totals(
            {k: v - other.self_s.get(k, 0.0) for k, v in self.self_s.items()},
            {k: v - other.calls.get(k, 0) for k, v in self.calls.items()},
            self.root_s - other.root_s,
        )


class Tracer:
    """Exclusive-time span accounting over wrapped program entry points."""

    def __init__(self) -> None:
        self._stack: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._local = threading.local()
        self._books: list[tuple[int, _Book]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _book(self) -> _Book:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _Book()
            with self._lock:
                self._books.append((threading.get_ident(), book))
        return book

    def enter(self, name: str) -> tuple:
        now = _clock()
        book = self._book()
        current = book.current
        if current is not None:
            book.self_s[current] = book.self_s.get(current, 0.0) + (now - book.last)
        book.last = now
        book.current = name
        book.calls[name] = book.calls.get(name, 0) + 1
        node = (name, self._stack.get(), now)
        self._stack.set(node)
        return node

    def exit(self, node: tuple) -> None:
        now = _clock()
        book = self._book()
        current = book.current
        if current is not None:
            book.self_s[current] = book.self_s.get(current, 0.0) + (now - book.last)
        book.last = now
        parent = node[1]
        self._stack.set(parent)
        if parent is None:
            book.current = None
            book.root_s += now - node[2]
        else:
            book.current = parent[0]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (no-op when not installed)."""
        if not self._patches:
            yield
            return
        node = self.enter(name)
        try:
            yield
        finally:
            self.exit(node)

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to a counter that is not a span (e.g. attempts)."""
        book = self._book()
        book.calls[name] = book.calls.get(name, 0) + n

    def top(self) -> str | None:
        node = self._stack.get()
        return node[0] if node is not None else None

    def snapshot(self) -> Totals:
        """Totals so far; ``root_s`` is the calling thread's."""
        me = threading.get_ident()
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        root_s = 0.0
        with self._lock:
            books = list(self._books)
        for ident, book in books:
            for name, value in list(book.self_s.items()):
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in list(book.calls.items()):
                calls[name] = calls.get(name, 0) + value
            if ident == me:
                root_s += book.root_s
        return Totals(self_s, calls, root_s)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                node = tracer.enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.exit(node)
        elif name == "teststand.executor.run_jobs":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                node = tracer.enter(name)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    tracer.exit(node)
                tracer.count("teststand.executor.jobs", len(report.results))
                tracer.count("teststand.executor.attempts",
                             sum(r.attempts for r in report.results))
                return report
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                node = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(node)
        return traced

    def _sleep_wrappers(self):
        tracer = self

        def sleep(seconds):
            if tracer.top() not in _IO_PARENTS:
                return real_sleep(seconds)
            node = tracer.enter("instruments.io_wait")
            try:
                return real_sleep(seconds)
            finally:
                tracer.exit(node)

        async def async_sleep(delay, result=None):
            if tracer.top() not in _IO_PARENTS:
                return await real_async_sleep(delay, result)
            node = tracer.enter("instruments.io_wait")
            try:
                return await real_async_sleep(delay, result)
            finally:
                tracer.exit(node)

        return sleep, async_sleep

    def install(self) -> None:
        """Wrap every entry point of :data:`METHOD_SPANS` / :data:`FUNCTION_SPANS`."""
        patches = self._patches
        for module_name, class_name, attribute, name in METHOD_SPANS:
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__[attribute]
            patches.append((cls, attribute, original))
            setattr(cls, attribute, self._wrap(original, name))
        repro_modules = [module for key, module in list(sys.modules.items())
                         if module is not None
                         and (key == "repro" or key.startswith("repro."))]
        for module_name, function, name in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], function)
            traced = self._wrap(original, name)
            for module in repro_modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attribute, original))
                        setattr(module, attribute, traced)
        sleep, async_sleep = self._sleep_wrappers()
        patches.append((time, "sleep", real_sleep))
        patches.append((asyncio, "sleep", real_async_sleep))
        time.sleep = sleep
        asyncio.sleep = async_sleep

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
