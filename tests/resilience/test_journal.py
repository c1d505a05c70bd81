"""The durable job journal: records, protocol marks, recovery."""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.resilience.journal import JobJournal, JobRecord


@pytest.fixture
def journal(tmp_path) -> JobJournal:
    return JobJournal(tmp_path / "jobs")


def _race(directory, action, job_ids, barrier, results) -> None:
    """One process's side of a race: ``start`` or cancel each job.

    Reads take 5 ms longer, widening every read-to-write window.
    """
    journal = JobJournal(directory)
    read = journal.load

    def slow_load(job_id):
        record = read(job_id)
        time.sleep(0.005)
        return record

    journal.load = slow_load
    for job_id in job_ids:
        barrier.wait()
        if action == "start":
            results.put((job_id, journal.start(job_id) is not None))
        else:
            journal.request_cancel(job_id)


def _record(job_id="job1", **overrides) -> JobRecord:
    fields = dict(
        job_id=job_id,
        dataset_id="ds",
        method="kendall",
        epsilon=1.0,
        k=8.0,
        seed=42,
    )
    fields.update(overrides)
    return JobRecord(**fields)


class TestLifecycleRecords:
    def test_create_load_roundtrip(self, journal):
        journal.create(_record())
        loaded = journal.load("job1")
        assert loaded.state == "queued"
        assert loaded.seed == 42
        assert "job1" in journal

    def test_duplicate_create_rejected(self, journal):
        journal.create(_record())
        with pytest.raises(ValueError, match="already journaled"):
            journal.create(_record())

    def test_update_persists_fields(self, journal):
        journal.create(_record())
        journal.update("job1", state="running", attempts=1)
        reread = JobJournal(journal.directory).load("job1")
        assert reread.state == "running"
        assert reread.attempts == 1

    def test_update_rejects_unknown_fields(self, journal):
        journal.create(_record())
        with pytest.raises(AttributeError):
            journal.update("job1", bogus=True)

    def test_load_unknown_job_raises(self, journal):
        with pytest.raises(KeyError):
            journal.load("ghost")

    def test_delete_removes_record(self, journal):
        journal.create(_record())
        journal.delete("job1")
        assert "job1" not in journal
        journal.delete("job1")  # idempotent

    def test_list_skips_unreadable_records(self, journal):
        journal.create(_record())
        (journal.directory / "broken.json").write_text("{not json")
        assert [r.job_id for r in journal.list()] == ["job1"]

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": None},
            {"epsilon": "lots"},
            {"seed": 1e999},
            {"started_at": []},
            {"dataset_id": KeyError},
        ],
        ids=["null-seed", "text-epsilon", "infinite-seed", "list-start", "no-dataset"],
    )
    def test_malformed_record_raises_value_error_naming_the_job(self, change):
        payload = _record().to_dict()
        for name, value in change.items():
            if value is KeyError:
                del payload[name]
            else:
                payload[name] = value
        with pytest.raises(ValueError, match="'job1'"):
            JobRecord.from_dict(payload)

    def test_noise_and_refund_marks_persist(self, journal):
        created = journal.create(_record())
        assert (created.noise_drawn, created.refund_due) == (False, False)
        journal.update("job1", noise_drawn=True)
        journal.update("job1", state="failed", refund_due=True)
        reread = JobJournal(journal.directory).load("job1")
        assert (reread.noise_drawn, reread.refund_due) == (True, True)


class TestCancellation:
    def test_request_cancel_sets_flag(self, journal):
        journal.create(_record())
        journal.request_cancel("job1")
        assert journal.load("job1").cancel_requested

    def test_cancelling_an_unknown_job_raises(self, journal):
        with pytest.raises(KeyError):
            journal.request_cancel("ghost")
        assert "ghost" not in journal

    def test_cancel_settles_a_queued_job_in_one_write(self, journal):
        journal.create(_record())
        record = journal.request_cancel("job1")
        assert (record.state, record.cancel_requested) == ("cancelled", True)
        assert record.finished_at is not None
        assert journal.start("job1") is None
        assert journal.load("job1").started_at is None

    def test_cancel_of_a_running_job_only_sets_the_flag(self, journal):
        journal.create(_record())
        started = journal.start("job1")
        assert (started.state, started.attempts) == ("running", 1)
        record = journal.request_cancel("job1")
        assert (record.state, record.cancel_requested) == ("running", True)
        assert record.finished_at is None

    def test_start_honors_a_pending_cancel_flag(self, journal):
        journal.create(_record(cancel_requested=True))
        assert journal.start("job1") is None
        assert journal.load("job1").state == "cancelled"

    def test_concurrent_cancel_and_start_never_both_take_effect(
        self, journal, monkeypatch
    ):
        # Widen the read-to-write window: without the journal's lock,
        # both threads would read the record while it is still queued.
        read = journal.load

        def slow_load(job_id):
            record = read(job_id)
            time.sleep(0.005)
            return record

        monkeypatch.setattr(journal, "load", slow_load)
        for i in range(10):
            job_id = f"race{i}"
            journal.create(_record(job_id))
            barrier = threading.Barrier(2, timeout=5.0)
            started = []

            def start():
                barrier.wait()
                started.append(journal.start(job_id))

            def cancel():
                barrier.wait()
                journal.request_cancel(job_id)

            threads = [threading.Thread(target=start), threading.Thread(target=cancel)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
                assert not thread.is_alive()
            final = read(job_id)
            assert final.cancel_requested
            if started[0] is None:
                assert (final.state, final.started_at) == ("cancelled", None)
            else:
                assert (final.state, final.finished_at) == ("running", None)

    def test_cancel_and_start_in_two_processes_never_lose_a_write(self, tmp_path):
        # Two pre-fork workers, each with its own journal over one
        # directory: the fit owner starts a queued job while a follower
        # cancels it.  Only the two serial outcomes may ever appear.
        directory = tmp_path / "jobs"
        journal = JobJournal(directory)
        job_ids = [f"race{i}" for i in range(12)]
        for job_id in job_ids:
            journal.create(_record(job_id))
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2, timeout=60.0)
        results = context.Queue()
        sides = [
            context.Process(
                target=_race, args=(directory, action, job_ids, barrier, results)
            )
            for action in ("start", "cancel")
        ]
        for side in sides:
            side.start()
        started = dict(results.get(timeout=120.0) for _ in job_ids)
        for side in sides:
            side.join(30.0)
            assert not side.is_alive()
            assert side.exitcode == 0
        for job_id in job_ids:
            final = journal.load(job_id)
            assert final.cancel_requested
            if started[job_id]:
                assert (final.state, final.finished_at) == ("running", None)
            else:
                assert (final.state, final.started_at) == ("cancelled", None)


def _stage_era_payload(**overrides):
    """A record as the journal wrote it while fits kept stage checkpoints."""
    payload = {
        "job_id": "job1",
        "dataset_id": "ds",
        "method": "kendall",
        "epsilon": 1.0,
        "k": 8.0,
        "seed": 42,
        "state": "running",
        "charged": False,
        "attempts": 1,
        "stages_done": [],
        "stage_computed": {},
        "cancel_requested": False,
        "model_id": None,
        "error": None,
        "submitted_at": 1.0,
        "started_at": 2.0,
        "finished_at": None,
        "updated_at": 2.0,
    }
    payload.update(overrides)
    return payload


class TestOlderRecords:
    def test_a_stage_era_record_loads(self, journal):
        (journal.directory / "job1.json").write_text(
            json.dumps(_stage_era_payload())
        )
        record = journal.load("job1")
        assert (record.state, record.attempts, record.seed) == ("running", 1, 42)
        assert (record.noise_drawn, record.refund_due) == (False, False)
        assert [r.job_id for r in journal.recoverable()] == ["job1"]

    @pytest.mark.parametrize(
        "stages",
        [{"stages_done": ["margins"]}, {"stage_computed": {"margins": 1}}],
        ids=["stages_done", "stage_computed"],
    )
    def test_computed_stages_count_as_noise_drawn(self, journal, stages):
        path = journal.directory / "job1.json"
        path.write_text(json.dumps(_stage_era_payload(**stages)))
        assert journal.load("job1").noise_drawn
        # The next write keeps the mark in the field that now carries it.
        journal.update("job1", state="queued")
        payload = json.loads(path.read_text())
        assert payload["noise_drawn"] is True
        assert not {"charged", "stages_done", "stage_computed"} & set(payload)

    def test_leftover_stage_files_are_ignored(self, journal):
        journal.create(_record())
        (journal.directory / "job1.margins.npz").write_bytes(b"PK\x03\x04")
        (journal.directory / "job1.correlation.npz").write_bytes(b"")
        assert [r.job_id for r in journal.list()] == ["job1"]
        assert [r.job_id for r in journal.recoverable()] == ["job1"]
        assert not journal.load("job1").noise_drawn


class TestRecovery:
    def test_recoverable_returns_active_jobs_oldest_first(self, journal):
        journal.create(_record("a", submitted_at=3.0))
        journal.create(_record("b", submitted_at=1.0, state="running"))
        journal.create(_record("c", submitted_at=2.0, state="done"))
        assert [r.job_id for r in journal.recoverable()] == ["b", "a"]

    def test_void_closes_out_a_job(self, journal):
        journal.create(_record())
        journal.void("job1", "dataset gone")
        record = journal.load("job1")
        assert record.state == "voided"
        assert record.error == "dataset gone"
        assert journal.recoverable() == []

    def test_void_stamps_finished_at(self, journal):
        journal.create(_record())
        assert journal.void("job1", "dataset gone").finished_at is not None

    def test_records_without_timestamps_still_load(self, journal):
        journal.create(_record(state="done"))
        path = journal.directory / "job1.json"
        payload = json.loads(path.read_text())
        del payload["started_at"], payload["finished_at"]
        path.write_text(json.dumps(payload))
        record = journal.load("job1")
        assert (record.state, record.started_at, record.finished_at) == (
            "done", None, None
        )

    def test_records_are_valid_json_on_disk(self, journal):
        journal.create(_record())
        payload = json.loads((journal.directory / "job1.json").read_text())
        assert payload["job_id"] == "job1"
        assert payload["state"] == "queued"
