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
from repro.core.dpcopula import DPCopulaKendall, DPCopulaMLE
from repro.io import ReleasedModel
from repro.service.jobs import (
    FitCheckpoint,
    FitWorker,
    job_document,
    mark_refund_due,
)


def _journaled(journal, job_id, **overrides):
    """Journal a queued record for ``job_id`` and return it."""
    fields = dict(job_id=job_id, dataset_id="d", method="kendall",
                  epsilon=1.0, k=8.0, seed=1)
    fields.update(overrides)
    return journal.create(JobRecord(**fields))


@pytest.fixture
def journal(tmp_path):
    return JobJournal(tmp_path / "jobs")


class TestFitWorker:
    def test_runs_jobs_in_order(self, journal):
        finished = []
        worker = FitWorker(lambda job: finished.append(job.job_id) or job.job_id,
                           journal)
        for i in range(3):
            worker.submit(_journaled(journal, f"j{i}"))
        last = worker.wait("j2", timeout=5.0)
        assert last.state == "done"
        assert finished == ["j0", "j1", "j2"]
        worker.close()

    def test_failure_recorded_and_worker_survives(self, journal):
        def runner(job):
            if job.job_id == "bad":
                raise RuntimeError("boom")
            return "model-ok"

        worker = FitWorker(runner, journal)
        worker.submit(_journaled(journal, "bad"))
        worker.submit(_journaled(journal, "good"))
        bad = worker.wait("bad", timeout=5.0)
        good = worker.wait("good", timeout=5.0)
        assert bad.state == "failed"
        assert "boom" in bad.error
        assert good.state == "done"
        assert good.model_id == "model-ok"
        worker.close()

    def test_unknown_job_raises(self, journal):
        worker = FitWorker(lambda job: "m", journal)
        with pytest.raises(KeyError):
            worker.wait("missing", timeout=1.0)
        worker.close()

    def test_duplicate_id_rejected(self, journal):
        block = threading.Event()
        worker = FitWorker(lambda job: block.wait(5) or "m", journal)
        job = _journaled(journal, "j")
        worker.submit(job)
        with pytest.raises(ValueError, match="already submitted"):
            worker.submit(job)
        block.set()
        worker.close()

    def test_rejects_bad_pool_size(self, journal):
        with pytest.raises(ValueError, match="max_workers"):
            FitWorker(lambda job: "m", journal, max_workers=0)

    def test_pool_overlaps_jobs(self, journal):
        """With two workers, two blocking jobs run concurrently."""
        rendezvous = threading.Barrier(2, timeout=5.0)

        def runner(job):
            rendezvous.wait()  # deadlocks unless both jobs run at once
            return job.job_id

        worker = FitWorker(runner, journal, max_workers=2)
        for i in range(2):
            worker.submit(_journaled(journal, f"p{i}"))
        assert worker.wait("p0", timeout=5.0).state == "done"
        assert worker.wait("p1", timeout=5.0).state == "done"
        worker.close()

    def test_pool_drains_more_jobs_than_workers(self, journal):
        done = []
        worker = FitWorker(lambda job: done.append(job.job_id) or job.job_id,
                           journal, max_workers=3)
        for i in range(10):
            worker.submit(_journaled(journal, f"q{i}"))
        for i in range(10):
            assert worker.wait(f"q{i}", timeout=5.0).state == "done"
        assert sorted(done) == sorted(f"q{i}" for i in range(10))
        worker.close()


class _WatchedJournal(JobJournal):
    """A journal that reads back, as a job document, every record it writes.

    Each written record is a state a concurrent ``GET /fits/<id>`` could
    observe, so checking all of them covers every interleaving.
    """

    def __init__(self, directory):
        super().__init__(directory)
        self.documents = []

    def _write(self, record):
        super()._write(record)
        self.documents.append(job_document(self.load(record.job_id)))


def _raise(exc):
    def runner(job):
        raise exc

    return runner


class TestJobDocument:
    @pytest.mark.parametrize(
        "runner, cancel_first, expected",
        [
            (lambda job: "model-ok", False, "done"),
            (_raise(RuntimeError("boom")), False, "failed"),
            (_raise(DeadlineExceeded("late")), False, "failed"),
            (_raise(JobCancelledError("stop")), False, "cancelled"),
            (lambda job: "never-run", True, "cancelled"),
        ],
        ids=["done", "failed", "deadline", "cancelled", "cancelled-before-start"],
    )
    def test_terminal_status_never_visible_before_finished_at(
        self, tmp_path, runner, cancel_first, expected
    ):
        journal = _WatchedJournal(tmp_path / "jobs")
        record = _journaled(journal, "j", cancel_requested=cancel_first)
        worker = FitWorker(runner, journal)
        worker.submit(record)
        assert worker.wait("j", timeout=5.0).state == expected
        worker.close()
        documents = journal.documents
        torn = [
            doc for doc in documents
            if (doc["status"] in ("done", "failed", "cancelled"))
            != (doc["finished_at"] is not None)
            or (doc["status"] == "running" and doc["started_at"] is None)
        ]
        assert len(documents) >= 2 and not torn, torn
        final = documents[-1]
        assert final == job_document(journal.load("j"))
        assert final["status"] == expected
        assert final["finished_at"] >= record.submitted_at
        if not cancel_first:
            assert record.submitted_at <= final["started_at"] <= final["finished_at"]


class TestFitCheckpoint:
    @pytest.fixture
    def running(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        _journaled(journal, "j1")
        journal.start("j1")
        return journal

    def test_save_journals_the_noise_mark_once(self, running, monkeypatch):
        """The first stage boundary writes the mark; later ones only read."""
        writes = []
        real_write = running._write
        monkeypatch.setattr(
            running, "_write", lambda record: writes.append(record) or real_write(record)
        )
        checkpoint = FitCheckpoint(running, "j1")
        checkpoint.save("margins")
        assert running.load("j1").noise_drawn
        checkpoint.save("correlation")
        FitCheckpoint(running, "j1").save("margins")  # a rerun's hook
        assert [record.noise_drawn for record in writes] == [True]

    def test_a_failed_mark_write_stops_the_fit_unmarked(self, running, monkeypatch):
        """save() returns only once the mark is durable: if the write
        fails, no mechanism runs and the record still allows a refund."""
        monkeypatch.setattr(
            running,
            "_write",
            lambda record: (_ for _ in ()).throw(OSError("disk died")),
        )
        with pytest.raises(OSError):
            FitCheckpoint(running, "j1").save("margins")
        assert not running.load("j1").noise_drawn

    def test_save_polls_the_cancel_flag_before_marking(self, running):
        running.request_cancel("j1")
        with pytest.raises(JobCancelledError, match="before stage 'margins'"):
            FitCheckpoint(running, "j1").save("margins")
        assert not running.load("j1").noise_drawn


class TestRefundHook:
    @pytest.mark.parametrize("due", [True, False], ids=["due", "not-due"])
    def test_refund_runs_after_the_terminal_write_that_makes_it_due(
        self, journal, due
    ):
        seen = []

        def runner(job):
            exc = RuntimeError("boom")
            raise mark_refund_due(exc) if due else exc

        def refund(record):
            # The terminal record is durable before the hook runs.
            seen.append((record.job_id, journal.load(record.job_id).state))

        worker = FitWorker(runner, journal, refund=refund)
        worker.submit(_journaled(journal, "j"))
        record = worker.wait("j", timeout=5.0)
        worker.close()
        assert (record.state, record.refund_due) == ("failed", due)
        assert seen == ([("j", "failed")] if due else [])


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
                assert finished.state == "done", finished.error
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

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": float("inf")},
            {"k": float("nan")},
            {"k": True},
            {"epsilon": float("inf")},
            {"epsilon": float("nan")},
            {"epsilon": True},
            {"seed": True},
        ],
        ids=["k-inf", "k-nan", "k-bool", "eps-inf", "eps-nan", "eps-bool",
             "seed-bool"],
    )
    def test_fit_rejects_non_finite_and_boolean_numbers(
        self, service, csv_text, bad
    ):
        service.upload_dataset("demo", csv_text)
        ledger = service.config.ledger_path
        before = ledger.read_bytes() if ledger.exists() else None
        with pytest.raises(ValidationError):
            service.submit_fit(
                {"dataset_id": "demo", "epsilon": 1.0, "seed": 1, **bad}
            )
        assert (ledger.read_bytes() if ledger.exists() else None) == before
        assert service.journal.list() == []

    def test_recovered_non_finite_k_fails_without_charge(
        self, tmp_path, csv_text
    ):
        config = ServiceConfig(data_dir=tmp_path / "data", epsilon_cap=3.0)
        first = SynthesisService(config)
        first.upload_dataset("demo", csv_text)
        first.journal.create(JobRecord(job_id="inf-k", dataset_id="demo",
                                       method="kendall", epsilon=1.0,
                                       k=float("inf"), seed=1))
        first.close()
        revived = SynthesisService(config)
        try:
            record = revived.worker.wait("inf-k", timeout=60.0)
            assert record.state == "failed"
            assert "k must be a finite positive number" in record.error
            assert revived.accountant.summary("demo")["epsilon_spent"] == 0.0
            assert not config.ledger_path.exists()
        finally:
            revived.close()

    def test_fit_over_cap_fast_fails(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        with pytest.raises(BudgetRefusedError):
            service.submit_fit({"dataset_id": "demo", "epsilon": 99.0})

    @pytest.mark.parametrize(
        "method, library", [("kendall", DPCopulaKendall), ("mle", DPCopulaMLE)]
    )
    def test_service_fit_is_the_library_fit_for_its_seed(
        self, service, csv_text, method, library
    ):
        service.upload_dataset("demo", csv_text)
        job = service.submit_fit(
            {"dataset_id": "demo", "method": method, "epsilon": 1.0, "k": 4.0,
             "seed": 7}
        )
        done = service.worker.wait(job["job_id"], timeout=60.0)
        assert done.state == "done", done.error
        served = ReleasedModel.load(
            service.config.models_dir / f"{done.model_id}.npz"
        )
        expected = ReleasedModel.from_synthesizer(
            library(1.0, k=4.0, rng=7).fit(service.datasets.get("demo"))
        )
        np.testing.assert_array_equal(served.correlation, expected.correlation)
        assert len(served.margin_counts) == len(expected.margin_counts)
        for got, want in zip(served.margin_counts, expected.margin_counts):
            np.testing.assert_array_equal(got, want)

    def test_a_fit_leaves_only_its_record_in_the_journal(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        job = service.submit_fit({"dataset_id": "demo", "epsilon": 1.0, "seed": 0})
        assert service.worker.wait(job["job_id"], timeout=60.0).state == "done"
        assert sorted(p.name for p in service.config.jobs_dir.iterdir()) == [
            ".lock",
            f"{job['job_id']}.json",
        ]

    def test_fit_to_sample_pipeline(self, service, csv_text):
        service.upload_dataset("demo", csv_text)
        job = service.submit_fit(
            {"dataset_id": "demo", "method": "kendall", "epsilon": 1.0, "seed": 0}
        )
        done = service.worker.wait(job["job_id"], timeout=60.0)
        assert done.state == "done"
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
        with pytest.raises(ValidationError):
            service.sample(record.model_id, n=10, seed=True)
        with pytest.raises(ValidationError):
            service.sample(record.model_id, n=10, seed=-1)
