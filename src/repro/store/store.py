"""The persistent result store: record, query, re-render, diff.

:class:`ResultStore` turns :class:`~repro.teststand.executor.ExecutionReport`
objects - which otherwise die with the process - into rows of a normalized
SQLite database (see :mod:`repro.store.schema`), stamped with the git SHA
and ``repro.__version__`` of the producing process.  The contract mirrors
the dict serialization it is built on: a recorded run re-renders
**byte-identically** - ``get_run(run_id).render()`` equals what
``repro-campaign`` printed live, and ``diff_runs(a, b)`` of two identical
campaigns (e.g. the same family campaign on the serial and async backends)
is empty.

Concurrency model: every public call opens its own connection (with a busy
timeout) and commits one transaction, so many threads - or many processes -
may record into the same store file.  ``":memory:"`` stores keep a single
shared connection behind a lock instead (handy for tests and the service's
default), at the price of dying with the process like any in-memory
database.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .. import chaos as _chaos
from ..analysis.campaign import BASELINE_GROUP, CampaignResult, FaultRunOutcome
from ..analysis.faults import FaultModel
from ..core.errors import ReproError
from ..teststand.executor import ExecutionReport, JobResult
from ..teststand.report import format_table
from ..teststand.serialize import (
    REPORT_SCHEMA,
    report_from_dict,
    report_to_dict,
    restored_factory,
)
from .schema import DDL, STORE_SCHEMA

__all__ = [
    "StoreError",
    "ResultStore",
    "StoredRun",
    "RunInfo",
    "CaseRow",
    "VerdictDelta",
    "RunDiff",
    "current_git_sha",
]


class StoreError(ReproError):
    """A result-store operation failed (unknown run, schema mismatch...)."""


def current_git_sha() -> str | None:
    """Best-effort git SHA of the producing process's working tree.

    ``None`` when git is unavailable or the process does not run inside a
    repository - recording never fails over provenance metadata.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def _canonical(document: object) -> str:
    """Canonical JSON: the store's content-fingerprint input format."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _catalogue_content(faults: Sequence[FaultModel]) -> list[dict]:
    return [
        {
            "name": fault.name,
            "description": fault.description,
            "expected_detected": bool(fault.expected_detected),
        }
        for fault in faults
    ]


def _restored_faults(content: Iterable[Mapping]) -> list[FaultModel]:
    """Catalogue metadata rows back into (render-only) fault models.

    The factories are :func:`~repro.teststand.serialize.restored_factory`
    placeholders: a stored catalogue describes what *was* injected, it
    cannot rebuild the faulty ECUs.
    """
    return [
        FaultModel(
            name=entry["name"],
            description=entry.get("description", ""),
            factory=restored_factory,
            expected_detected=bool(entry.get("expected_detected", True)),
        )
        for entry in content
    ]


@dataclass(frozen=True)
class RunInfo:
    """One row of :meth:`ResultStore.list_runs`."""

    run_id: int
    created_at: float
    dut: str
    stand: str
    backend: str
    workers: int
    wall_time: float
    jobs: int
    verdict: str
    git_sha: str
    repro_version: str


@dataclass(frozen=True)
class CaseRow:
    """One row of :meth:`ResultStore.query`: a (run x job x case) verdict."""

    run_id: int
    created_at: float
    job: str
    script: str
    dut: str
    group: str
    stand: str
    verdict: str
    passed: bool
    duration: float
    wall_time: float


@dataclass(frozen=True)
class VerdictDelta:
    """One changed sheet in a run-vs-run diff."""

    job: str
    verdict_a: str
    verdict_b: str


@dataclass(frozen=True)
class RunDiff:
    """Per-sheet verdict deltas between two stored runs.

    ``changed`` lists jobs present in both runs whose verdicts differ;
    ``only_a`` / ``only_b`` list job ids that exist in one run only.  Jobs
    are matched by their deterministic
    :attr:`~repro.teststand.executor.Job.job_id`
    (``group[@stand]/script#index``), so backend and worker-count choices
    never show up as deltas.
    """

    run_a: int
    run_b: int
    changed: tuple[VerdictDelta, ...] = ()
    only_a: tuple[str, ...] = ()
    only_b: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        """True when the two runs carry identical per-sheet verdicts."""
        return not (self.changed or self.only_a or self.only_b)

    def table(self) -> str:
        """Text table of the deltas (empty diffs render a one-line note)."""
        if self.empty:
            return f"runs {self.run_a} and {self.run_b}: no verdict deltas"
        header = ("job", f"run {self.run_a}", f"run {self.run_b}")
        rows = [(delta.job, delta.verdict_a, delta.verdict_b)
                for delta in self.changed]
        rows.extend((job, "-", "(missing)") for job in self.only_a)
        rows.extend((job, "(missing)", "-") for job in self.only_b)
        return format_table(header, rows)

    def summary(self) -> str:
        return (
            f"diff runs {self.run_a} vs {self.run_b}: "
            f"{len(self.changed)} changed verdict(s), "
            f"{len(self.only_a)} only in {self.run_a}, "
            f"{len(self.only_b)} only in {self.run_b}"
        )


class StoredRun:
    """One recorded run, lazily rebuilt into live report objects.

    Attribute access is cheap (row data only); :meth:`execution_report`
    and :meth:`campaign_result` rebuild real
    :class:`~repro.teststand.executor.ExecutionReport` /
    :class:`~repro.analysis.campaign.CampaignResult` objects from the rows
    (cached per instance), so :meth:`render` reproduces the live
    ``repro-campaign`` stdout byte-identically.
    """

    def __init__(self, store: "ResultStore", row: Mapping,
                 campaign: Mapping | None, catalogue: list[dict] | None):
        self._store = store
        self.run_id = int(row["id"])
        self.created_at = float(row["created_at"])
        self.git_sha = row["git_sha"] or ""
        self.repro_version = row["repro_version"]
        self.backend = row["backend"]
        self.workers = int(row["workers"])
        self.wall_time = float(row["wall_time"])
        #: Plan-cache statistics snapshot of the producing process (dict),
        #: or None when none was recorded.
        self.plan_cache = (
            json.loads(row["plan_cache"]) if row["plan_cache"] else None
        )
        #: Campaign configuration metadata (dict) or None for bare reports.
        self.campaign = dict(campaign) if campaign is not None else None
        #: Selected fault-catalogue metadata (list of dicts) or None.
        self.catalogue = catalogue
        self._report: ExecutionReport | None = None
        self._result: CampaignResult | None = None

    @property
    def dut(self) -> str:
        if self.campaign and self.campaign.get("dut"):
            return self.campaign["dut"]
        report = self.execution_report()
        for job_result in report.results:
            if job_result.job.script.dut:
                return job_result.job.script.dut
        return ""

    def execution_report(self) -> ExecutionReport:
        """The run's :class:`ExecutionReport`, rebuilt from the rows."""
        if self._report is None:
            self._report = ExecutionReport.from_dict(
                self._store._report_document(self.run_id)
            )
        return self._report

    def campaign_result(self) -> CampaignResult:
        """The run's :class:`CampaignResult`, rebuilt from report + catalogue.

        Raises :class:`StoreError` for runs recorded without a fault
        catalogue (bare ``record_report`` calls) - there is no fault table
        to rebuild for those; use :meth:`execution_report` instead.
        """
        if self._result is not None:
            return self._result
        if self.catalogue is None:
            raise StoreError(
                f"run {self.run_id} was recorded without a fault catalogue; "
                "only the execution report is available"
            )
        report = self.execution_report()
        if report.failed_jobs:
            raise StoreError(
                f"run {self.run_id} contains terminally failed job(s); "
                "a fault table cannot be rebuilt from a partial campaign"
            )
        by_group = report.by_group()
        baseline = tuple(
            jr.result for jr in by_group.get(BASELINE_GROUP, ())
        )
        outcomes = [
            FaultRunOutcome(
                fault, tuple(jr.result for jr in by_group.get(fault.name, ()))
            )
            for fault in _restored_faults(self.catalogue)
        ]
        self._result = CampaignResult(baseline, outcomes, execution=report)
        return self._result

    def verdict_table(self) -> str:
        """The execution report's per-job verdict table."""
        return self.execution_report().verdict_table()

    def render(self) -> str:
        """Exactly what ``repro-campaign`` printed on stdout for this run.

        Campaign runs render the fault table plus the campaign summary
        line; bare report runs fall back to the per-job verdict table plus
        the execution summary.
        """
        if self.catalogue is not None:
            result = self.campaign_result()
            return f"{result.table()}\n{result.summary()}"
        report = self.execution_report()
        return f"{report.verdict_table()}\n{report.summary()}"

    def __repr__(self) -> str:
        return (
            f"StoredRun(id={self.run_id}, dut={self.dut!r}, "
            f"backend={self.backend!r}, version={self.repro_version!r})"
        )


class ResultStore:
    """SQL-backed persistent store for execution reports and campaigns.

    >>> store = ResultStore("results.db")
    >>> run_id = store.record_campaign(result, spec)
    >>> store.get_run(run_id).render() == result.table() + "\\n" + result.summary()
    True

    All methods are safe to call from multiple threads (and the file-backed
    form from multiple processes): each call runs one transaction on its
    own connection with a busy timeout.
    """

    def __init__(self, path: str, *, timeout: float = 30.0):
        self.path = str(path)
        self.timeout = float(timeout)
        self._memory = self.path == ":memory:"
        self._lock = threading.Lock()
        self._shared: sqlite3.Connection | None = None
        try:
            if self._memory:
                self._shared = self._open()
            # Several processes or threads may create the same fresh file
            # at once; the WAL switch and the DDL then lose the lock race
            # without waiting on the busy timeout, so they retry like any
            # other write.
            self._with_write_retry(self._initialise)
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open result store {self.path!r}: {exc}"
            ) from exc

    # -- connection plumbing ------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self.timeout,
            check_same_thread=not self._memory,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA foreign_keys = ON")
        if not self._memory:
            # WAL lets concurrent writers queue behind the busy timeout
            # instead of failing immediately, and readers never block
            # writers.  The mode is persistent, but setting it is cheap
            # and idempotent, so every connection just asserts it.
            conn.execute("PRAGMA journal_mode = WAL")
        return conn

    class _Session:
        """Context manager: shared-locked connection or a fresh one."""

        def __init__(self, store: "ResultStore"):
            self._store = store
            self._conn: sqlite3.Connection | None = None

        def __enter__(self) -> sqlite3.Connection:
            if self._store._memory:
                self._store._lock.acquire()
                self._conn = self._store._shared
            else:
                self._conn = self._store._open()
            return self._conn

        def __exit__(self, exc_type, exc, tb) -> None:
            conn = self._conn
            try:
                if exc_type is None:
                    if _chaos.ACTIVE is not None:
                        # Chaos commit-point hook: may raise a one-shot
                        # "database is locked" for the bounded write
                        # retry to absorb.
                        _chaos.on_store_commit()
                    conn.commit()
                else:
                    conn.rollback()
            except BaseException:
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise
            finally:
                if self._store._memory:
                    self._store._lock.release()
                else:
                    conn.close()

    def _connect(self) -> "_Session":
        return self._Session(self)

    #: Attempts one write transaction gets against a locked database
    #: before the store gives up.
    WRITE_RETRIES = 5

    def _with_write_retry(self, operation):
        """Run a write transaction, retrying bounded on database-locked.

        SQLite raises ``OperationalError: database is locked`` when another
        writer holds the file past the busy timeout.  Transactions roll
        back cleanly (see ``_Session``) and all inserts are idempotent
        (``INSERT OR IGNORE`` interning, fresh rowids), so re-running the
        whole transaction is safe.  Retries back off exponentially;
        anything but a locked/busy error propagates immediately.
        """
        delay = 0.05
        for attempt in range(1, self.WRITE_RETRIES + 1):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt >= self.WRITE_RETRIES:
                    raise StoreError(
                        f"store {self.path!r} stayed locked after "
                        f"{self.WRITE_RETRIES} attempts: {exc}"
                    ) from exc
                time.sleep(delay)
                delay = min(1.0, delay * 2.0)

    def _initialise(self) -> None:
        with self._connect() as conn:
            conn.executescript(DDL)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'store_schema'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("store_schema", str(STORE_SCHEMA)),
                )
            elif int(row["value"]) != STORE_SCHEMA:
                raise StoreError(
                    f"store {self.path!r} uses schema {row['value']}, this "
                    f"release reads schema {STORE_SCHEMA}"
                )

    def close(self) -> None:
        """Close the shared connection of an in-memory store (no-op else)."""
        if self._shared is not None:
            with self._lock:
                self._shared.close()
                self._shared = None

    # -- recording ----------------------------------------------------------

    def _intern_script(self, conn: sqlite3.Connection, script_doc: dict) -> int:
        content = _canonical(script_doc)
        fingerprint = _fingerprint(content)
        conn.execute(
            "INSERT OR IGNORE INTO scripts (name, dut, fingerprint, content) "
            "VALUES (?, ?, ?, ?)",
            (script_doc["name"], script_doc["dut"], fingerprint, content),
        )
        row = conn.execute(
            "SELECT id FROM scripts WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def _intern_catalogue(self, conn: sqlite3.Connection, dut: str,
                          content: list[dict]) -> int:
        text = _canonical({"dut": dut, "faults": content})
        fingerprint = _fingerprint(text)
        conn.execute(
            "INSERT OR IGNORE INTO catalogues (dut, fingerprint, content) "
            "VALUES (?, ?, ?)",
            (dut, fingerprint, json.dumps(content)),
        )
        row = conn.execute(
            "SELECT id FROM catalogues WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def _intern_campaign(self, conn: sqlite3.Connection, spec,
                         catalogue_id: int | None) -> int:
        composition = getattr(spec, "composition", None)
        fields = {
            "dut": spec.dut,
            "composition": composition,
            "stand": spec.stand,
            "policy": spec.policy,
            "backend": spec.backend,
            "jobs": int(spec.jobs),
            "concurrency": int(spec.concurrency),
            "retries": int(spec.retries),
            "use_plans": bool(spec.use_plans),
            "reuse_stands": bool(spec.reuse_stands),
            "catalogue": catalogue_id,
        }
        fingerprint = _fingerprint(_canonical(fields))
        conn.execute(
            "INSERT OR IGNORE INTO campaigns (dut, composition, stand, "
            "policy, backend, jobs, concurrency, retries, use_plans, "
            "reuse_stands, catalogue_id, fingerprint) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (spec.dut, composition, spec.stand, spec.policy, spec.backend,
             int(spec.jobs), int(spec.concurrency), int(spec.retries),
             int(spec.use_plans), int(spec.reuse_stands), catalogue_id,
             fingerprint),
        )
        row = conn.execute(
            "SELECT id FROM campaigns WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return int(row["id"])

    def record_report(
        self,
        report: ExecutionReport,
        spec=None,
        *,
        faults: Sequence[FaultModel] | None = None,
        plan_cache: Mapping | None = None,
        git_sha: str | None = None,
        created_at: float | None = None,
    ) -> int:
        """Record one execution report; returns the new run id.

        *spec* is the producing :class:`~repro.targets.CampaignSpec` (or
        any object with its fields), *faults* the selected fault models in
        catalogue order - both optional, but required for
        :meth:`StoredRun.campaign_result` / fault-table re-rendering.
        *git_sha* defaults to :func:`current_git_sha`, *created_at* to now;
        *plan_cache* may carry a plan-cache statistics snapshot.
        """
        from .. import __version__

        document = report.to_dict()
        if git_sha is None:
            git_sha = current_git_sha()
        if created_at is None:
            created_at = time.time()
        return self._with_write_retry(
            lambda: self._record_report_txn(
                document, report, spec, faults, plan_cache,
                git_sha, created_at, __version__,
            )
        )

    def _record_report_txn(
        self, document, report, spec, faults, plan_cache,
        git_sha, created_at, version,
    ) -> int:
        """One recording transaction (retried by :meth:`record_report`)."""
        with self._connect() as conn:
            campaign_id = None
            if spec is not None or faults is not None:
                catalogue_id = None
                if faults is not None:
                    dut = (spec.dut if spec is not None else None) or next(
                        (s["dut"] for s in document["scripts"]), "")
                    catalogue_id = self._intern_catalogue(
                        conn, dut or "", _catalogue_content(faults))
                if spec is not None:
                    campaign_id = self._intern_campaign(
                        conn, spec, catalogue_id)
                else:
                    # Faults without a spec still need an anchor row so the
                    # catalogue is reachable from the run.
                    campaign_id = self._intern_campaign(
                        conn, _AnonymousSpec(), catalogue_id)
            cursor = conn.execute(
                "INSERT INTO runs (created_at, git_sha, repro_version, "
                "backend, workers, wall_time, plan_cache, campaign_id) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (created_at, git_sha, version, document["backend"],
                 document["workers"], document["wall_time"],
                 json.dumps(dict(plan_cache)) if plan_cache else None,
                 campaign_id),
            )
            run_id = int(cursor.lastrowid)
            script_ids = [
                self._intern_script(conn, script_doc)
                for script_doc in document["scripts"]
            ]
            for ordinal, job in enumerate(document["jobs"]):
                cursor = conn.execute(
                    "INSERT INTO jobs (run_id, ordinal, job_index, script_id, "
                    "group_name, stand_label, policy, stop_on_error, "
                    "use_plans, reuse_stands, attempts, error, wall_time) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (run_id, ordinal, job["index"],
                     script_ids[job["script"]], job["group"],
                     job["stand_label"], job["policy"],
                     int(job["stop_on_error"]), int(job["use_plans"]),
                     int(job["reuse_stands"]), job["attempts"], job["error"],
                     job["wall_time"]),
                )
                job_id = int(cursor.lastrowid)
                result = job["result"]
                if result is None:
                    continue
                verdict = report.results[ordinal].verdict
                cursor = conn.execute(
                    "INSERT INTO case_results (job_id, stand, verdict, "
                    "passed, duration, wall_time, setup) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (job_id, result["stand"], verdict.value,
                     int(verdict.ok), result["duration"],
                     result["wall_time"], json.dumps(result["setup"])),
                )
                case_id = int(cursor.lastrowid)
                steps = report.results[ordinal].result.steps
                for step_ordinal, step in enumerate(result["steps"]):
                    conn.execute(
                        "INSERT INTO step_results (case_id, ordinal, number, "
                        "duration, start_time, remark, verdict, actions) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (case_id, step_ordinal, step["number"],
                         step["duration"], step["start_time"], step["remark"],
                         steps[step_ordinal].verdict.value,
                         json.dumps(step["actions"])),
                    )
        return run_id

    def record_campaign(self, result: CampaignResult, spec=None, **kwargs) -> int:
        """Record a finished campaign (report + fault catalogue metadata).

        Convenience wrapper around :meth:`record_report` that extracts the
        execution report and the injected fault models from the
        :class:`~repro.analysis.campaign.CampaignResult`; the stored run
        then re-renders the full fault table byte-identically.
        """
        if result.execution is None:
            raise StoreError(
                "campaign result carries no execution report; "
                "only executor-produced results can be recorded"
            )
        faults = [outcome.fault for outcome in result.outcomes]
        return self.record_report(result.execution, spec,
                                  faults=faults, **kwargs)

    # -- checkpoints (campaign resume) --------------------------------------

    def save_checkpoint(self, campaign_key: str, job_result: JobResult) -> bool:
        """Persist one finished job of an in-flight resumable campaign.

        The payload is a full single-result report document, so
        :meth:`load_checkpoints` restores the :class:`JobResult` (and every
        verdict detail in it) byte-identically.  Failed jobs are *not*
        checkpointed - a resumed campaign gets to retry them - and the call
        reports whether it stored anything.  Committed per job: a SIGKILL
        between jobs loses at most the job in flight.
        """
        if job_result.result is None:
            return False
        payload = json.dumps(report_to_dict(ExecutionReport([job_result])))
        job_key = job_result.job.job_id

        def _write() -> None:
            with self._connect() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO checkpoints "
                    "(campaign_key, job_key, payload, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    (campaign_key, job_key, payload, time.time()),
                )

        self._with_write_retry(_write)
        return True

    def load_checkpoints(self, campaign_key: str) -> dict[str, JobResult]:
        """All checkpointed job results of a campaign, keyed by ``job_id``.

        The restored results render byte-identically but carry placeholder
        factories (:func:`~repro.teststand.serialize.restored_factory`);
        :func:`~repro.teststand.executor.run_jobs` slots them into the
        report without executing anything.
        """
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT job_key, payload FROM checkpoints "
                "WHERE campaign_key = ? ORDER BY id",
                (campaign_key,),
            ).fetchall()
        restored: dict[str, JobResult] = {}
        for row in rows:
            report = report_from_dict(json.loads(row["payload"]))
            restored[row["job_key"]] = report.results[0]
        return restored

    def clear_checkpoints(self, campaign_key: str) -> int:
        """Drop a campaign's checkpoints (after its final report recorded)."""

        def _write() -> int:
            with self._connect() as conn:
                cursor = conn.execute(
                    "DELETE FROM checkpoints WHERE campaign_key = ?",
                    (campaign_key,),
                )
                return cursor.rowcount

        return self._with_write_retry(_write)

    # -- reading ------------------------------------------------------------

    def _report_document(self, run_id: int) -> dict:
        """Rebuild the exact :func:`report_to_dict` document of a run."""
        with self._connect() as conn:
            run = conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
            if run is None:
                raise StoreError(f"no stored run with id {run_id}")
            job_rows = conn.execute(
                "SELECT jobs.*, scripts.content AS script_content "
                "FROM jobs JOIN scripts ON scripts.id = jobs.script_id "
                "WHERE jobs.run_id = ? ORDER BY jobs.ordinal", (run_id,)
            ).fetchall()
            cases = {
                row["job_id"]: row for row in conn.execute(
                    "SELECT case_results.* FROM case_results "
                    "JOIN jobs ON jobs.id = case_results.job_id "
                    "WHERE jobs.run_id = ?", (run_id,)
                ).fetchall()
            }
            steps_by_case: dict[int, list] = {}
            for row in conn.execute(
                    "SELECT step_results.* FROM step_results "
                    "JOIN case_results ON case_results.id = step_results.case_id "
                    "JOIN jobs ON jobs.id = case_results.job_id "
                    "WHERE jobs.run_id = ? "
                    "ORDER BY step_results.case_id, step_results.ordinal",
                    (run_id,)):
                steps_by_case.setdefault(row["case_id"], []).append(row)
        scripts: list[dict] = []
        index_by_id: dict[int, int] = {}
        jobs: list[dict] = []
        for row in job_rows:
            script_index = index_by_id.get(row["script_id"])
            if script_index is None:
                script_index = index_by_id[row["script_id"]] = len(scripts)
                scripts.append(json.loads(row["script_content"]))
            case = cases.get(row["id"])
            result_doc = None
            if case is not None:
                result_doc = {
                    "stand": case["stand"],
                    "duration": case["duration"],
                    "wall_time": case["wall_time"],
                    "setup": json.loads(case["setup"]),
                    "steps": [
                        {
                            "number": step["number"],
                            "duration": step["duration"],
                            "start_time": step["start_time"],
                            "remark": step["remark"],
                            "actions": json.loads(step["actions"]),
                        }
                        for step in steps_by_case.get(case["id"], [])
                    ],
                }
            jobs.append({
                "index": row["job_index"],
                "script": script_index,
                "group": row["group_name"],
                "stand_label": row["stand_label"],
                "policy": row["policy"],
                "stop_on_error": bool(row["stop_on_error"]),
                "use_plans": bool(row["use_plans"]),
                "reuse_stands": bool(row["reuse_stands"]),
                "attempts": row["attempts"],
                "error": row["error"],
                "wall_time": row["wall_time"],
                "result": result_doc,
            })
        return {
            "schema": REPORT_SCHEMA,
            "kind": "execution-report",
            "backend": run["backend"],
            "workers": run["workers"],
            "wall_time": run["wall_time"],
            "scripts": scripts,
            "jobs": jobs,
        }

    def get_run(self, run_id: int) -> StoredRun:
        """Load one stored run (metadata now, report rebuilt lazily)."""
        with self._connect() as conn:
            run = conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
            if run is None:
                raise StoreError(f"no stored run with id {run_id}")
            campaign = None
            catalogue = None
            if run["campaign_id"] is not None:
                row = conn.execute(
                    "SELECT * FROM campaigns WHERE id = ?",
                    (run["campaign_id"],),
                ).fetchone()
                if row is not None:
                    campaign = {
                        "dut": row["dut"],
                        "composition": row["composition"],
                        "stand": row["stand"],
                        "policy": row["policy"],
                        "backend": row["backend"],
                        "jobs": row["jobs"],
                        "concurrency": row["concurrency"],
                        "retries": row["retries"],
                        "use_plans": bool(row["use_plans"]),
                        "reuse_stands": bool(row["reuse_stands"]),
                    }
                    if row["catalogue_id"] is not None:
                        cat = conn.execute(
                            "SELECT content FROM catalogues WHERE id = ?",
                            (row["catalogue_id"],),
                        ).fetchone()
                        if cat is not None:
                            catalogue = json.loads(cat["content"])
        return StoredRun(self, run, campaign, catalogue)

    def run_ids(self) -> tuple[int, ...]:
        """All stored run ids, oldest first."""
        with self._connect() as conn:
            rows = conn.execute("SELECT id FROM runs ORDER BY id").fetchall()
        return tuple(row["id"] for row in rows)

    def list_runs(self, *, dut: str | None = None,
                  limit: int | None = None) -> list[RunInfo]:
        """Run metadata rows, newest first, optionally filtered by DUT."""
        sql = (
            "SELECT runs.*, "
            "COALESCE(campaigns.dut, ("
            "  SELECT scripts.dut FROM jobs JOIN scripts "
            "  ON scripts.id = jobs.script_id "
            "  WHERE jobs.run_id = runs.id ORDER BY jobs.ordinal LIMIT 1"
            "), '') AS run_dut, "
            "COALESCE(campaigns.stand, '') AS run_stand, "
            "(SELECT COUNT(*) FROM jobs WHERE jobs.run_id = runs.id) AS n_jobs, "
            "(SELECT CASE "
            "   WHEN EXISTS (SELECT 1 FROM jobs LEFT JOIN case_results "
            "     ON case_results.job_id = jobs.id WHERE jobs.run_id = runs.id "
            "     AND COALESCE(case_results.verdict, 'error') = 'error') "
            "     THEN 'error' "
            "   WHEN EXISTS (SELECT 1 FROM jobs JOIN case_results "
            "     ON case_results.job_id = jobs.id WHERE jobs.run_id = runs.id "
            "     AND case_results.verdict = 'fail') THEN 'fail' "
            "   ELSE 'pass' END) AS worst "
            "FROM runs LEFT JOIN campaigns ON campaigns.id = runs.campaign_id "
        )
        params: list = []
        if dut is not None:
            sql += "WHERE LOWER(run_dut) = LOWER(?) "
            params.append(dut)
        sql += "ORDER BY runs.id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [
            RunInfo(
                run_id=row["id"],
                created_at=row["created_at"],
                dut=row["run_dut"],
                stand=row["run_stand"],
                backend=row["backend"],
                workers=row["workers"],
                wall_time=row["wall_time"],
                jobs=row["n_jobs"],
                verdict=row["worst"],
                git_sha=row["git_sha"] or "",
                repro_version=row["repro_version"],
            )
            for row in rows
        ]

    def query(self, *, dut: str | None = None, stand: str | None = None,
              verdict: str | None = None,
              since: float | None = None) -> list[CaseRow]:
        """Per-case verdict rows across all runs, newest run first.

        Filters combine with AND: *dut* matches the script's DUT, *stand*
        the executing stand name as shown in verdict tables, *verdict* one
        of ``pass`` / ``fail`` / ``error`` / ``skipped`` (jobs that failed
        terminally count as ``error``), *since* a unix timestamp lower
        bound on the run's ``created_at``.  All string matches are
        case-insensitive - which is why ``repro-lint``'s
        X-UNSTORABLE-RESULT rule flags case-colliding sheet names.
        """
        sql = (
            "SELECT runs.id AS run_id, runs.created_at, jobs.job_index, "
            "jobs.group_name, jobs.stand_label, scripts.name AS script, "
            "scripts.dut AS dut, "
            "COALESCE(case_results.stand, '-') AS stand, "
            "COALESCE(case_results.verdict, 'error') AS verdict, "
            "COALESCE(case_results.passed, 0) AS passed, "
            "COALESCE(case_results.duration, 0.0) AS duration, "
            "COALESCE(case_results.wall_time, 0.0) AS wall_time "
            "FROM jobs "
            "JOIN runs ON runs.id = jobs.run_id "
            "JOIN scripts ON scripts.id = jobs.script_id "
            "LEFT JOIN case_results ON case_results.job_id = jobs.id "
        )
        clauses: list[str] = []
        params: list = []
        if dut is not None:
            clauses.append("LOWER(scripts.dut) = LOWER(?)")
            params.append(dut)
        if stand is not None:
            clauses.append("LOWER(COALESCE(case_results.stand, '-')) = LOWER(?)")
            params.append(stand)
        if verdict is not None:
            clauses.append("COALESCE(case_results.verdict, 'error') = LOWER(?)")
            params.append(str(verdict))
        if since is not None:
            clauses.append("runs.created_at >= ?")
            params.append(float(since))
        if clauses:
            sql += "WHERE " + " AND ".join(clauses) + " "
        sql += "ORDER BY runs.id DESC, jobs.ordinal"
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        result = []
        for row in rows:
            label = row["group_name"] or "-"
            if row["stand_label"]:
                label = f"{label}@{row['stand_label']}"
            result.append(CaseRow(
                run_id=row["run_id"],
                created_at=row["created_at"],
                job=f"{label}/{row['script']}#{row['job_index']}",
                script=row["script"],
                dut=row["dut"],
                group=row["group_name"],
                stand=row["stand"],
                verdict=row["verdict"],
                passed=bool(row["passed"]),
                duration=row["duration"],
                wall_time=row["wall_time"],
            ))
        return result

    def diff_runs(self, a: int, b: int) -> RunDiff:
        """Per-sheet verdict deltas between stored runs *a* and *b*.

        Two recordings of the same campaign - regardless of backend,
        worker count or plan-cache state - produce an ``empty`` diff;
        anything else lists exactly which sheet's verdict moved.
        """
        verdicts: dict[int, dict[str, str]] = {}
        with self._connect() as conn:
            for run_id in (a, b):
                if conn.execute("SELECT 1 FROM runs WHERE id = ?",
                                (run_id,)).fetchone() is None:
                    raise StoreError(f"no stored run with id {run_id}")
                rows = conn.execute(
                    "SELECT jobs.job_index, jobs.group_name, jobs.stand_label, "
                    "scripts.name AS script, "
                    "COALESCE(case_results.verdict, 'error') AS verdict "
                    "FROM jobs "
                    "JOIN scripts ON scripts.id = jobs.script_id "
                    "LEFT JOIN case_results ON case_results.job_id = jobs.id "
                    "WHERE jobs.run_id = ? ORDER BY jobs.ordinal", (run_id,)
                ).fetchall()
                table = {}
                for row in rows:
                    label = row["group_name"] or "-"
                    if row["stand_label"]:
                        label = f"{label}@{row['stand_label']}"
                    key = f"{label}/{row['script']}#{row['job_index']}"
                    table[key] = row["verdict"]
                verdicts[run_id] = table
        table_a, table_b = verdicts[a], verdicts[b]
        changed = tuple(
            VerdictDelta(job=key, verdict_a=table_a[key], verdict_b=table_b[key])
            for key in table_a if key in table_b and table_a[key] != table_b[key]
        )
        only_a = tuple(key for key in table_a if key not in table_b)
        only_b = tuple(key for key in table_b if key not in table_a)
        return RunDiff(run_a=a, run_b=b, changed=changed,
                       only_a=only_a, only_b=only_b)


class _AnonymousSpec:
    """Neutral campaign fields for reports recorded with faults but no spec."""

    dut = None
    composition = None
    stand = None
    policy = "first_fit"
    backend = "auto"
    jobs = 1
    concurrency = 0
    retries = 1
    use_plans = True
    reuse_stands = True
