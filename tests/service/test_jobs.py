"""Tests for the background fit worker and the service core."""

import threading

import numpy as np
import pytest

from repro.resilience.deadlines import DeadlineExceeded
from repro.resilience.journal import JobJournal, JobRecord
from repro.service import SynthesisService, ServiceConfig
from repro.service.errors import (
    BudgetRefusedError,
    JobCancelledError,
    NotFoundError,
    ValidationError,
)
from repro.service.jobs import FitCheckpoint, FitJob, FitWorker, JobStatus


class TestFitWorker:
    def test_runs_jobs_in_order(self):
        finished = []
        worker = FitWorker(lambda job: finished.append(job.job_id) or job.job_id)
        for i in range(3):
            worker.submit(FitJob(job_id=f"j{i}", dataset_id="d", method="kendall",
                                 epsilon=1.0, k=8.0))
        last = worker.wait("j2", timeout=5.0)
        assert last.status == JobStatus.DONE
        assert finished == ["j0", "j1", "j2"]
        worker.close()

    def test_failure_recorded_and_worker_survives(self):
        def runner(job):
            if job.job_id == "bad":
                raise RuntimeError("boom")
            return "model-ok"

        worker = FitWorker(runner)
        worker.submit(FitJob(job_id="bad", dataset_id="d", method="kendall",
                             epsilon=1.0, k=8.0))
        worker.submit(FitJob(job_id="good", dataset_id="d", method="kendall",
                             epsilon=1.0, k=8.0))
        bad = worker.wait("bad", timeout=5.0)
        good = worker.wait("good", timeout=5.0)
        assert bad.status == JobStatus.FAILED
        assert "boom" in bad.error
        assert good.status == JobStatus.DONE
        assert good.model_id == "model-ok"
        worker.close()

    def test_unknown_job_raises(self):
        worker = FitWorker(lambda job: "m")
        with pytest.raises(KeyError):
            worker.get("missing")
        worker.close()

    def test_duplicate_id_rejected(self):
        block = threading.Event()
        worker = FitWorker(lambda job: block.wait(5) or "m")
        job = FitJob(job_id="j", dataset_id="d", method="kendall", epsilon=1.0, k=8.0)
        worker.submit(job)
        with pytest.raises(ValueError, match="already submitted"):
            worker.submit(job)
        block.set()
        worker.close()

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ValueError, match="max_workers"):
            FitWorker(lambda job: "m", max_workers=0)

    def test_pool_overlaps_jobs(self):
        """With two workers, two blocking jobs run concurrently."""
        rendezvous = threading.Barrier(2, timeout=5.0)

        def runner(job):
            rendezvous.wait()  # deadlocks unless both jobs run at once
            return job.job_id

        worker = FitWorker(runner, max_workers=2)
        for i in range(2):
            worker.submit(FitJob(job_id=f"p{i}", dataset_id="d",
                                 method="kendall", epsilon=1.0, k=8.0))
        assert worker.wait("p0", timeout=5.0).status == JobStatus.DONE
        assert worker.wait("p1", timeout=5.0).status == JobStatus.DONE
        worker.close()

    def test_pool_drains_more_jobs_than_workers(self):
        done = []
        worker = FitWorker(lambda job: done.append(job.job_id) or job.job_id,
                           max_workers=3)
        for i in range(10):
            worker.submit(FitJob(job_id=f"q{i}", dataset_id="d",
                                 method="kendall", epsilon=1.0, k=8.0))
        for i in range(10):
            assert worker.wait(f"q{i}", timeout=5.0).status == JobStatus.DONE
        assert sorted(done) == sorted(f"q{i}" for i in range(10))
        worker.close()


class _WatchedJob(FitJob):
    """A job that snapshots its API document after every field write.

    Each snapshot is a state a concurrent ``GET /fits/<id>`` could
    observe, so checking all of them covers every interleaving.  Each
    also records the journaled state at that instant.
    """

    def __init__(self, *args, journal, **kwargs):
        super().__init__(*args, **kwargs)
        self.__dict__["journal"] = journal
        self.__dict__["documents"] = []

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if "documents" in self.__dict__:
            document = self.to_dict()
            document["journal_state"] = self.journal.load(self.job_id).state
            self.documents.append(document)


def _raise(exc):
    def runner(job):
        raise exc

    return runner


class TestJobDocument:
    @pytest.mark.parametrize(
        "runner, cancel_first, expected",
        [
            (lambda job: "model-ok", False, JobStatus.DONE),
            (_raise(RuntimeError("boom")), False, JobStatus.FAILED),
            (_raise(DeadlineExceeded("late")), False, JobStatus.FAILED),
            (_raise(JobCancelledError("stop")), False, JobStatus.CANCELLED),
            (lambda job: "never-run", True, JobStatus.CANCELLED),
        ],
        ids=["done", "failed", "deadline", "cancelled", "cancelled-before-start"],
    )
    def test_terminal_status_never_visible_before_finished_at(
        self, tmp_path, runner, cancel_first, expected
    ):
        journal = JobJournal(tmp_path / "jobs")
        journal.create(JobRecord(job_id="j", dataset_id="d", method="kendall",
                                 epsilon=1.0, k=8.0, seed=1))
        worker = FitWorker(runner, journal=journal)
        job = _WatchedJob(job_id="j", dataset_id="d", method="kendall",
                          epsilon=1.0, k=8.0, cancel_requested=cancel_first,
                          journal=journal)
        worker.submit(job)
        assert worker.wait("j", timeout=5.0).status == expected
        worker.close()
        terminal = [
            doc for doc in job.documents if doc["status"] in JobStatus.TERMINAL
        ]
        # The journal is written first, finished_at next, status last.
        torn = [
            doc for doc in terminal
            if doc["finished_at"] is None or doc["journal_state"] != expected
        ]
        assert terminal and not torn, torn
        assert job.documents[-1]["status"] == expected
        assert job.documents[-1]["finished_at"] >= job.submitted_at


class TestFitCheckpoint:
    def test_save_journals_the_stage_before_persisting_noise(
        self, tmp_path, monkeypatch
    ):
        """A crash inside save() must never leave a noise-bearing
        checkpoint that the journal knows nothing about — that is the
        window where a later pre-noise failure would refund ε for noise
        that durably exists.  The safe order is journal first: a crash
        then leaves an over-claiming journal (refund blocked, stage
        recomputed bitwise from its seed), never an unclaimed release.
        """
        journal = JobJournal(tmp_path / "jobs")
        journal.create(
            JobRecord(
                job_id="j1",
                dataset_id="ds",
                method="kendall",
                epsilon=1.0,
                k=8.0,
                seed=42,
            )
        )
        monkeypatch.setattr(
            journal,
            "save_stage",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk died")),
        )
        checkpoint = FitCheckpoint(journal, "j1")
        with pytest.raises(OSError):
            checkpoint.save("margins", {"m": np.arange(3.0)})
        record = journal.load("j1")
        assert record.stage_computed.get("margins") == 1
        assert not journal.has_stage_checkpoints("j1")


class TestPooledService:
    """The service wired with a fit pool and a parallel context."""

    def test_concurrent_fits_register_models(self, tmp_path, csv_text):
        config = ServiceConfig(
            data_dir=tmp_path / "pooled",
            epsilon_cap=10.0,
            fit_workers=2,
            parallel_backend="thread",
            parallel_workers=2,
        )
        service = SynthesisService(config)
        try:
            service.upload_dataset("d1", csv_text)
            jobs = [
                service.submit_fit(
                    {"dataset_id": "d1", "epsilon": 0.5, "seed": i}
                )
                for i in range(3)
            ]
            for job in jobs:
                finished = service.worker.wait(job["job_id"], timeout=60.0)
                assert finished.status == JobStatus.DONE, finished.error
            assert len(service.list_models()) == 3
            assert service.budget_summary("d1")["epsilon_spent"] == pytest.approx(1.5)
        finally:
            service.close()


class TestServiceCore:
    """Service-level validation without going through HTTP."""

    def test_upload_and_inspect(self, service, csv_text):
        summary = service.upload_dataset("demo", csv_text)
        assert summary["dataset_id"] == "demo"
        assert summary["n_records"] == 300
        inspected = service.inspect_dataset("demo")
        assert inspected["attributes"][0]["name"] == "a"
        assert inspected["budget"]["epsilon_spent"] == 0.0

    def test_upload_rejects_bad_csv(self, service):
        with pytest.raises(ValidationError):
            service.upload_dataset("bad", "x,y\n1,2\n")
        with pytest.raises(ValidationError):
            service.upload_dataset("empty", "   ")

    def test_upload_rejects_duplicate_id(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        with pytest.raises(ValidationError, match="already exists"):
            service.upload_dataset("demo", csv_text)

    def test_fit_unknown_dataset(self, service):
        with pytest.raises(NotFoundError):
            service.submit_fit({"dataset_id": "missing", "epsilon": 1.0})

    def test_fit_rejects_hybrid(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        with pytest.raises(ValidationError, match="hybrid"):
            service.submit_fit({"dataset_id": "demo", "method": "hybrid"})

    def test_fit_rejects_bad_epsilon(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        with pytest.raises(ValidationError):
            service.submit_fit({"dataset_id": "demo", "epsilon": -1.0})

    def test_fit_over_cap_fast_fails(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        with pytest.raises(BudgetRefusedError):
            service.submit_fit({"dataset_id": "demo", "epsilon": 99.0})

    def test_fit_to_sample_pipeline(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        job = service.submit_fit(
            {"dataset_id": "demo", "method": "kendall", "epsilon": 1.0, "seed": 0}
        )
        done = service.worker.wait(job["job_id"], timeout=60.0)
        assert done.status == JobStatus.DONE
        result = service.sample(done.model_id, n=25, seed=1)
        assert result["n_records"] == 25
        assert result["privacy_cost"] == 0.0
        assert service.accountant.spent("demo") == pytest.approx(1.0)

    def test_sample_validation(self, service, released_model):
        record = service.registry.put(released_model, dataset_id="d", method="kendall")
        with pytest.raises(NotFoundError):
            service.sample("missing", n=10)
        with pytest.raises(ValidationError):
            service.sample(record.model_id, n=0)
        with pytest.raises(ValidationError):
            service.sample(record.model_id, n=10, seed="not-an-int")
