"""Tests for repro.store: the persistent, queryable result store.

The acceptance bar from the campaign-as-a-service issue: a campaign
recorded into the store re-renders its verdict table **byte-identically**
after a round trip (serial and async backends, which must agree with each
other too), ``diff_runs`` of two identical campaigns is empty, queries
slice the history by DUT / stand / verdict / time, and two writer threads
sharing one sqlite file never corrupt or lose a run.  A file-backed store
opens one connection per thread (and per forked process), reuses it for
every later call, and ``close()`` closes them all.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sqlite3
import sys
import threading
from pathlib import Path

import pytest

from repro.store import CaseRow, ResultStore, RunInfo, StoreError
from repro.targets import CampaignSpec, campaignable_dut_names, run_campaign


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.db")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One store carrying the same wiper campaign twice: serial and async."""
    path = str(tmp_path_factory.mktemp("store") / "family.db")
    serial = run_campaign(CampaignSpec(dut="wiper_ecu", store=path))
    asynced = run_campaign(CampaignSpec(
        dut="wiper_ecu", backend="async", jobs=4, store=path))
    return path, serial, asynced


def test_run_campaign_records_and_assigns_run_id(recorded):
    path, serial, asynced = recorded
    assert serial.store_run_id is not None
    assert asynced.store_run_id is not None
    assert serial.store_run_id != asynced.store_run_id
    store = ResultStore(path)
    assert set(store.run_ids()) == {serial.store_run_id,
                                    asynced.store_run_id}


def test_stored_run_rerenders_byte_identically(recorded):
    path, serial, asynced = recorded
    store = ResultStore(path)
    live = f"{serial.table()}\n{serial.summary()}"
    for result in (serial, asynced):
        run = store.get_run(result.store_run_id)
        # the campaign fault table + summary: what repro-campaign printed
        assert run.render() == f"{result.table()}\n{result.summary()}"
        # the per-job verdict table of the underlying execution report
        assert run.verdict_table() == result.execution.verdict_table()
        # the stored document is the exact serialized report
        assert run.execution_report().to_dict() == result.execution.to_dict()
        # serial and async campaigns agree with each other, stored or live
        assert run.render() == live


def test_diff_runs_of_identical_campaigns_is_empty(recorded):
    path, serial, asynced = recorded
    store = ResultStore(path)
    diff = store.diff_runs(serial.store_run_id, asynced.store_run_id)
    assert diff.empty
    assert diff.changed == ()
    assert diff.only_a == () and diff.only_b == ()
    assert "no verdict deltas" in diff.table()


def test_diff_runs_between_different_duts_reports_deltas(store_path):
    wiper = run_campaign(CampaignSpec(dut="wiper_ecu", store=store_path))
    other = run_campaign(CampaignSpec(dut="interior_light_ecu",
                                      store=store_path))
    store = ResultStore(store_path)
    diff = store.diff_runs(wiper.store_run_id, other.store_run_id)
    assert not diff.empty
    assert diff.only_a and diff.only_b  # disjoint job sets
    assert str(wiper.store_run_id) in diff.summary()


def test_list_runs_and_metadata(recorded):
    path, serial, asynced = recorded
    store = ResultStore(path)
    infos = store.list_runs(dut="wiper_ecu")
    assert all(isinstance(info, RunInfo) for info in infos)
    assert {info.run_id for info in infos} >= {serial.store_run_id,
                                               asynced.store_run_id}
    by_id = {info.run_id: info for info in infos}
    assert by_id[serial.store_run_id].backend == "serial"
    assert by_id[asynced.store_run_id].backend == "async"
    for info in infos:
        assert info.dut == "wiper_ecu"
        assert info.jobs == len(serial.execution.results)
        assert info.repro_version
    assert store.list_runs(limit=1)[0].run_id == max(store.run_ids())


def test_query_slices_by_dut_stand_and_verdict(recorded):
    path, serial, _ = recorded
    store = ResultStore(path)
    rows = store.query(dut="wiper_ecu")
    assert rows and all(isinstance(row, CaseRow) for row in rows)
    assert {row.dut for row in rows} == {"wiper_ecu"}
    # case-insensitive match, as the lint rule X-UNSTORABLE-RESULT warns
    assert len(store.query(dut="WIPER_ECU")) == len(rows)
    passes = store.query(dut="wiper_ecu", verdict="pass")
    assert passes and all(row.verdict == "pass" for row in passes)
    assert store.query(dut="no_such_dut") == []
    assert store.query(since=float("inf")) == []
    stands = {row.stand for row in rows}
    assert len(store.query(dut="wiper_ecu", stand=stands.pop())) == len(rows)


def test_get_unknown_run_raises(store_path):
    store = ResultStore(store_path)
    with pytest.raises(StoreError):
        store.get_run(999)
    with pytest.raises(StoreError):
        store.diff_runs(1, 2)


def test_family_history_accumulates(store_path):
    """The whole body-electronics family recorded into one store."""
    run_ids = []
    for dut in campaignable_dut_names():
        result = run_campaign(CampaignSpec(dut=dut, store=store_path))
        run_ids.append(result.store_run_id)
    store = ResultStore(store_path)
    assert store.run_ids() == tuple(sorted(run_ids))
    infos = store.list_runs()
    assert {info.dut for info in infos} == set(campaignable_dut_names())
    # every stored run still re-renders
    for run_id in run_ids:
        assert "fault campaign:" in store.get_run(run_id).render()


def test_concurrent_writers_share_one_store(store_path):
    """Two threads recording into the same sqlite file: no lost runs, no
    corruption, every stored report intact."""
    results = [run_campaign(CampaignSpec(dut="wiper_ecu")),
               run_campaign(CampaignSpec(dut="interior_light_ecu"))]
    store = ResultStore(store_path)
    per_thread = 4
    recorded_ids: list[list[int]] = [[], []]
    errors: list[Exception] = []

    def write(slot: int) -> None:
        try:
            for _ in range(per_thread):
                recorded_ids[slot].append(
                    store.record_campaign(results[slot]))
        except Exception as exc:  # surfaced on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(slot,))
               for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    all_ids = recorded_ids[0] + recorded_ids[1]
    assert len(all_ids) == 2 * per_thread
    assert len(set(all_ids)) == len(all_ids)
    assert store.run_ids() == tuple(sorted(all_ids))
    for slot in (0, 1):
        expected = results[slot].execution.to_dict()
        for run_id in recorded_ids[slot]:
            assert store.get_run(run_id).execution_report().to_dict() \
                == expected


def test_content_keyed_dedup_of_scripts_and_catalogues(recorded):
    """Recording the same campaign twice interns scripts/catalogue once."""
    import sqlite3

    path, serial, asynced = recorded
    with sqlite3.connect(path) as connection:
        scripts = connection.execute(
            "SELECT COUNT(*) FROM scripts").fetchone()[0]
        catalogues = connection.execute(
            "SELECT COUNT(*) FROM catalogues").fetchone()[0]
        campaigns = connection.execute(
            "SELECT COUNT(*) FROM campaigns").fetchone()[0]
    document = serial.execution.to_dict()
    assert scripts == len(document["scripts"])  # not 2x: content-keyed
    assert catalogues == 1
    # serial and async runs differ in backend/jobs, hence two campaign rows
    assert campaigns == 2


def test_memory_store_supports_threads():
    result = run_campaign(CampaignSpec(dut="wiper_ecu"))
    store = ResultStore(":memory:")
    ids = []

    def write():
        ids.append(store.record_campaign(result))

    threads = [threading.Thread(target=write) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(ids) == list(store.run_ids())
    assert store.get_run(ids[0]).render() == \
        f"{result.table()}\n{result.summary()}"


def test_composition_provenance_round_trips(store_path):
    """A composed campaign records which composition produced the run."""
    result = run_campaign(CampaignSpec(
        composition="lock+cluster",
        faults=("cluster.speed_tx_truncated", "lock.no_auto_lock"),
        store=store_path,
    ))
    store = ResultStore(store_path)
    run = store.get_run(result.store_run_id)
    assert run.campaign["composition"] == "lock+cluster"
    assert run.campaign["dut"] is None
    assert run.render() == f"{result.table()}\n{result.summary()}"
    # Single-DUT campaigns keep NULL composition provenance.
    single = run_campaign(CampaignSpec(
        dut="wiper_ecu", faults=("motor_stuck_off",), store=store_path))
    assert store.get_run(single.store_run_id).campaign["composition"] is None


# ---------------------------------------------------------------------------
# Connection lifecycle: one connection per thread, closed by close()
# ---------------------------------------------------------------------------

@pytest.fixture
def opened(monkeypatch):
    """Every connection a ResultStore opens, in order (wraps ``_open``)."""
    connections: list[sqlite3.Connection] = []
    original = ResultStore._open

    def counting_open(self):
        conn = original(self)
        connections.append(conn)
        return conn

    monkeypatch.setattr(ResultStore, "_open", counting_open)
    return connections


def _db_files(path: str) -> list[str]:
    return sorted(p.name for p in Path(path).parent.glob(Path(path).name + "*"))


def test_one_thread_opens_exactly_one_connection(recorded, store_path, opened):
    """25 checkpoints, a record and every read on one thread share the one
    connection the thread opened on its first call."""
    _, serial, _ = recorded
    job_results = serial.execution.results[:25]
    assert len(job_results) == 25
    store = ResultStore(store_path)
    for job_result in job_results:
        assert store.save_checkpoint("campaign", job_result)
    assert len(store.load_checkpoints("campaign")) == 25
    run_id = store.record_campaign(serial)
    run = store.get_run(run_id)
    assert run.render() == f"{serial.table()}\n{serial.summary()}"
    assert run.report_document() == serial.execution.to_dict()
    assert store.run_ids() == (run_id,)
    assert [info.run_id for info in store.list_runs()] == [run_id]
    assert store.query(dut="wiper_ecu")
    assert store.diff_runs(run_id, run_id).empty
    assert store.clear_checkpoints("campaign") == 25
    assert len(opened) == 1
    store.close()


def test_two_threads_get_two_connections_that_see_each_others_commits(
        recorded, store_path, opened):
    _, serial, _ = recorded
    store = ResultStore(store_path)
    first = store.record_campaign(serial)
    turn = threading.Event()
    done = threading.Event()
    seen: dict[str, object] = {}
    errors: list[Exception] = []

    def worker() -> None:
        try:
            seen["first"] = store.get_run(first).render()
            seen["second_id"] = store.record_campaign(serial)
            turn.set()
            done.wait(30)
            # The worker's connection is reused, and holds no read
            # snapshot from its earlier calls: the main thread's newer
            # commit is visible.
            seen["ids"] = store.run_ids()
        except Exception as exc:  # surfaced on the main thread below
            errors.append(exc)
            turn.set()

    expected = f"{serial.table()}\n{serial.summary()}"
    thread = threading.Thread(target=worker)
    thread.start()
    assert turn.wait(30)
    assert errors == []
    assert store.get_run(seen["second_id"]).render() == expected
    third = store.record_campaign(serial)
    done.set()
    thread.join(30)
    assert errors == []
    assert seen["first"] == expected
    assert seen["ids"] == (first, seen["second_id"], third)
    assert len(opened) == 2
    store.close()


def test_many_threads_track_one_connection_each(recorded, store_path, opened):
    """Stress: more threads than cores, switching often, each opening its
    connection while the others write.  Every connection is tracked once
    and every checkpoint lands."""
    _, serial, _ = recorded
    job_results = serial.execution.results
    store = ResultStore(store_path)
    threads_n, per_thread = 8, 4
    barrier = threading.Barrier(threads_n)
    errors: list[Exception] = []

    def write(slot: int) -> None:
        try:
            barrier.wait(30)
            for number in range(per_thread):
                job = job_results[(slot * per_thread + number) % len(job_results)]
                store.save_checkpoint(f"campaign-{slot}", job)
        except Exception as exc:  # surfaced on the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for slot in range(threads_n):
        assert len(store.load_checkpoints(f"campaign-{slot}")) == per_thread
    assert len(opened) == threads_n + 1
    assert len(store._opened) == threads_n + 1
    store.close()
    assert _db_files(store_path) == ["results.db"]


def test_a_finished_threads_connection_is_released(store_path):
    """Threads that come and go (say, one per request) leave no open
    connection behind them."""
    store = ResultStore(store_path)
    for _ in range(5):
        thread = threading.Thread(target=store.run_ids)
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
    gc.collect()  # a connection sits in a reference cycle with its caches
    assert len(store._opened) == 1  # the constructing thread's
    store.close()


def test_close_closes_every_connection(recorded, store_path, opened):
    """After close() no connection is left: sqlite folds the WAL back into
    the file and deletes it, the files can be deleted, and a fresh store at
    the same path starts empty."""
    _, serial, _ = recorded
    with ResultStore(store_path) as store:
        store.record_campaign(serial)
        thread = threading.Thread(target=store.run_ids)
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        assert len(opened) == 2
        assert any(name.endswith("-wal") for name in _db_files(store_path))
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")
    assert _db_files(store_path) == ["results.db"]
    os.unlink(store_path)
    fresh = ResultStore(store_path)
    assert fresh.run_ids() == ()
    fresh.close()
    # A closed store stays usable: the next call opens a new connection.
    assert store.run_ids() == ()
    store.close()


def test_run_campaign_closes_its_store(store_path, opened):
    result = run_campaign(CampaignSpec(dut="wiper_ecu", store=store_path,
                                       resume=True))
    assert result.store_run_id == 1
    assert len(opened) == 1
    assert _db_files(store_path) == ["results.db"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_opens_its_own_connection(recorded, store_path, opened):
    """A child forked with the store open never uses (or closes) the
    parent's connection; the parent keeps working after it."""
    _, serial, _ = recorded
    store = ResultStore(store_path)
    first = store.record_campaign(serial)
    parent_conn = opened[0]
    context = multiprocessing.get_context("fork")
    queue = context.Queue()

    def child() -> None:
        try:
            before = len(opened)
            run_id = store.record_campaign(serial, git_sha="")
            queue.put((run_id, len(opened) - before,
                       store._local.conn is parent_conn))
        except Exception as exc:  # reported to the parent, asserted below
            queue.put(repr(exc))

    process = context.Process(target=child)
    process.start()
    reply = queue.get(timeout=60)
    assert isinstance(reply, tuple), reply
    child_run, child_opens, reused = reply
    process.join(60)
    assert process.exitcode == 0
    assert child_opens == 1 and not reused
    assert child_run == first + 1
    # The parent's connection is untouched and sees the child's commit.
    assert store.run_ids() == (first, child_run)
    assert store.get_run(child_run).render() == \
        f"{serial.table()}\n{serial.summary()}"
    assert store.record_campaign(serial) == child_run + 1
    assert opened == [parent_conn]
    store.close()
