"""The durable job journal: records, checkpoints, recovery."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.resilience import faults
from repro.resilience.journal import JobJournal, JobRecord


@pytest.fixture
def journal(tmp_path) -> JobJournal:
    return JobJournal(tmp_path / "jobs")


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

    def test_mark_stage_computed_counts_computations(self, journal):
        journal.create(_record())
        journal.mark_stage_computed("job1", "margins")
        journal.mark_stage_computed("job1", "margins")
        assert journal.load("job1").stage_computed == {"margins": 2}


class TestCancellation:
    def test_request_cancel_sets_flag(self, journal):
        journal.create(_record())
        journal.request_cancel("job1")
        assert journal.cancel_requested("job1")

    def test_unknown_job_is_not_cancelled(self, journal):
        assert not journal.cancel_requested("ghost")

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


class TestStageCheckpoints:
    def test_save_load_roundtrip(self, journal):
        journal.create(_record())
        arrays = {"margin_0": np.arange(5.0), "margin_1": np.ones(3)}
        journal.save_stage("job1", "margins", arrays)
        loaded = journal.load_stage("job1", "margins")
        assert set(loaded) == set(arrays)
        np.testing.assert_array_equal(loaded["margin_0"], arrays["margin_0"])

    def test_absent_stage_is_none(self, journal):
        assert journal.load_stage("job1", "margins") is None

    def test_torn_checkpoint_is_treated_as_absent(self, journal):
        journal.create(_record())
        faults.configure("journal.save_stage:truncate:0.3")
        journal.save_stage("job1", "margins", {"m": np.arange(10.0)})
        faults.configure(None)
        assert journal.load_stage("job1", "margins") is None

    def test_has_stage_checkpoints_tracks_disk_state(self, journal):
        journal.create(_record())
        assert not journal.has_stage_checkpoints("job1")
        journal.save_stage("job1", "margins", {"m": np.arange(3.0)})
        # The lifecycle record says nothing about the stage, yet the
        # checkpoint on disk must be visible: the refund guard keys off
        # exactly this (a durable release the record failed to mention).
        assert journal.load("job1").stage_computed == {}
        assert journal.has_stage_checkpoints("job1")
        journal.drop_stages("job1")
        assert not journal.has_stage_checkpoints("job1")

    def test_drop_stages_deletes_checkpoints(self, journal):
        journal.create(_record())
        journal.save_stage("job1", "margins", {"m": np.arange(3.0)})
        journal.save_stage("job1", "correlation", {"c": np.eye(2)})
        journal.drop_stages("job1")
        assert journal.load_stage("job1", "margins") is None
        assert journal.load_stage("job1", "correlation") is None


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
