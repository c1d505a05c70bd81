"""Chaos tests: injected faults against the real fit/serve paths.

Each test arms a deterministic fault plan (``repro.resilience.faults``)
and asserts the system-level resilience property — bitwise-identical
retries, single ε charges across restarts, refunds only before noise,
backpressure with ``Retry-After`` — rather than any implementation
detail of the failure itself.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.dpcopula import DPCopulaKendall
from repro.dp.budget import parse_ledger_line
from repro.io import ReleasedModel
from repro.parallel import ExecutionContext
from repro.resilience import faults
from repro.resilience.journal import JobJournal, JobRecord
from repro.service import ServiceConfig, SynthesisService, build_server
from repro.service import registry as registry_module
from repro.service.accountant import PrivacyAccountant, budget_overview, replay_ledger


def _square(task, shared):
    return task * task


def _service(root, **overrides) -> SynthesisService:
    return SynthesisService(
        ServiceConfig(data_dir=root, epsilon_cap=3.0, **overrides)
    )


def _submit(service, csv_text, seed=7, epsilon=0.5):
    if "ds" not in service.datasets:
        service.upload_dataset("ds", csv_text)
    return service.submit_fit(
        {"dataset_id": "ds", "epsilon": epsilon, "seed": seed}
    )


def _model_arrays(npz_path):
    with np.load(npz_path, allow_pickle=False) as archive:
        return {key: np.array(archive[key]) for key in archive.files}


def _ledger_lines(root):
    path = root / "ledger.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


class TestWorkerKill:
    def test_sigkilled_pool_worker_is_retried_bitwise(self, tmp_path, monkeypatch):
        # The kill clause fires inside a pool worker (the parent never
        # executes chunks on the process backend); the latch directory
        # caps it at one SIGKILL fleet-wide, so the retried dispatch
        # — a fresh pool over the same deterministic tasks — succeeds.
        latch = tmp_path / "latch"
        latch.mkdir()
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "parallel.chunk:kill::1")
        monkeypatch.setenv(faults.FAULTS_LATCH_ENV_VAR, str(latch))
        context = ExecutionContext(backend="process", max_workers=2, chunk_size=2)
        result = context.map_tasks(_square, list(range(8)))
        assert result == [task * task for task in range(8)]
        assert len(list(latch.iterdir())) == 1  # the kill fired exactly once


class TestStageHang:
    def test_hung_stage_fails_at_the_deadline(self, tmp_path, service_csv):
        faults.configure("fit.correlation:delay:0.6:1")
        service = _service(tmp_path / "data", fit_timeout_seconds=0.25)
        try:
            submitted = _submit(service, service_csv)
            job = service.worker.wait(submitted["job_id"], timeout=30.0)
            assert job.state == "failed"
            assert "deadline" in (job.error or "").lower()
            # The hang hit *after* the margins drew their noise, so the
            # ε is genuinely spent and must stay charged.
            assert service.accountant.spent("ds") == pytest.approx(0.5)
        finally:
            service.close()


class TestRestartResume:
    def test_crash_mid_fit_resumes_bitwise_for_one_charge(
        self, tmp_path, service_csv
    ):
        # Control: the same seed fit with no interference.
        control = _service(tmp_path / "control")
        try:
            control_job = _submit(control, service_csv, seed=7)
            assert control.worker.wait(control_job["job_id"]).state == "done"
            control_model = _model_arrays(
                tmp_path / "control" / "models" / f"m-{control_job['job_id']}.npz"
            )
        finally:
            control.close()

        # Chaos: fail after the margins drew their noise, then restart.
        faults.configure("fit.correlation:raise::1")
        service = _service(tmp_path / "data")
        try:
            submitted = _submit(service, service_csv, seed=7)
            job_id = submitted["job_id"]
            assert service.worker.wait(job_id).state == "failed"
            faults.configure(None)
            # A real crash leaves the record in flight rather than
            # cleanly failed; emulate that before the restart.
            service.journal.update(job_id, state="running")
        finally:
            service.close()

        revived = _service(tmp_path / "data")
        try:
            assert revived.worker.wait(job_id).state == "done"
            record = revived.journal.load(job_id)
            assert (record.noise_drawn, record.refund_due) == (True, False)
            # One charge total across both attempts.
            summary = revived.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            charges = [
                entry
                for entry in _ledger_lines(tmp_path / "data")
                if entry.get("key") == f"fit:{job_id}"
            ]
            assert len(charges) == 1
            # The rerun release is bitwise the uninterrupted release.
            resumed_model = _model_arrays(
                tmp_path / "data" / "models" / f"m-{job_id}.npz"
            )
            assert set(resumed_model) == set(control_model)
            for key, expected in control_model.items():
                assert np.array_equal(resumed_model[key], expected), key
        finally:
            revived.close()


class TestRefundWindow:
    def test_failure_before_noise_refunds_the_charge(self, tmp_path, service_csv):
        faults.configure("fit.margins:raise::1")
        service = _service(tmp_path / "data")
        try:
            submitted = _submit(service, service_csv)
            record = service.worker.wait(submitted["job_id"])
            assert (record.state, record.noise_drawn, record.refund_due) == (
                "failed", False, True
            )
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.0)
            assert summary["epsilon_remaining"] == pytest.approx(3.0)
            assert [c["kind"] for c in summary["charges"]] == ["charge", "refund"]
        finally:
            service.close()

    def test_failure_after_noise_never_refunds(self, tmp_path, service_csv):
        faults.configure("fit.correlation:raise::1")
        service = _service(tmp_path / "data")
        try:
            submitted = _submit(service, service_csv)
            record = service.worker.wait(submitted["job_id"])
            assert (record.state, record.noise_drawn, record.refund_due) == (
                "failed", True, False
            )
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            service.close()

    def test_a_stage_era_record_with_computed_stages_is_never_refunded(
        self, tmp_path, service_csv
    ):
        """A record written while fits kept stage checkpoints says noise
        was drawn through its stage lists, not through ``noise_drawn``.

        Attempt 1 draws the margins' noise, then fails.  The record is
        rewritten as that older journal left it after a crash, with the
        checkpoint it left beside it, and the service restarts.  The
        rerun fails again before its own noise mark; the record's stage
        lists alone must keep the ε charged.
        """
        faults.configure("fit.correlation:raise::1")
        service = _service(tmp_path / "data")
        try:
            job_id = _submit(service, service_csv, seed=7)["job_id"]
            assert service.worker.wait(job_id).state == "failed"
        finally:
            service.close()
        record_path = tmp_path / "data" / "jobs" / f"{job_id}.json"
        payload = json.loads(record_path.read_text())
        for field in ("noise_drawn", "refund_due"):
            del payload[field]
        payload.update(
            state="running",
            finished_at=None,
            error=None,
            charged=False,
            stages_done=["margins"],
            stage_computed={"margins": 1},
        )
        record_path.write_text(json.dumps(payload))
        (record_path.parent / f"{job_id}.margins.npz").write_bytes(b"PK\x03\x04")

        faults.configure("fit.margins:raise::1")
        revived = _service(tmp_path / "data")
        try:
            record = revived.worker.wait(job_id)
            assert (record.state, record.noise_drawn, record.refund_due) == (
                "failed", True, False
            )
            summary = revived.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            revived.close()

    def test_a_refund_cut_short_by_a_crash_never_releases_a_model(
        self, tmp_path, service_csv
    ):
        """A service that appended ``refund:<job>`` and crashed before
        journaling the job terminal left it ``running`` with its charge
        and its refund both in the ledger.  Its charge is a known key, so
        a rerun charges nothing; it must then release nothing either."""
        faults.configure("fit.margins:raise::1")
        service = _service(tmp_path / "data")
        try:
            job_id = _submit(service, service_csv)["job_id"]
            assert service.worker.wait(job_id).state == "failed"
            faults.configure(None)
        finally:
            service.close()
        record_path = tmp_path / "data" / "jobs" / f"{job_id}.json"
        payload = json.loads(record_path.read_text())
        payload.pop("refund_due", None)
        payload.update(state="running", finished_at=None, error=None)
        record_path.write_text(json.dumps(payload))

        revived = _service(tmp_path / "data")
        try:
            assert revived.worker.wait(job_id).state == "failed"
            assert f"m-{job_id}" not in revived.registry
            summary = revived.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.0)
            assert [c["kind"] for c in summary["charges"]] == ["charge", "refund"]
        finally:
            revived.close()

    def test_jobs_that_never_charged_append_no_refund(
        self, tmp_path, service_csv, monkeypatch
    ):
        # A refund under a job that holds no charge would take ε off
        # the dataset's other charges and under-count its spend.
        service = _service(tmp_path / "data")
        try:
            done = _submit(service, service_csv, seed=1)
            assert service.worker.wait(done["job_id"]).state == "done"
            # Refused at the worker: past the advisory submit-time
            # check, the ledger's cap refuses the charge itself.
            monkeypatch.setattr(service.accountant, "can_charge", lambda *a: True)
            refused = _submit(service, service_csv, seed=2, epsilon=2.9)
            refused_record = service.worker.wait(refused["job_id"])
            assert refused_record.state == "failed"
            assert "BudgetExhausted" in refused_record.error
            # Failed before its charge: the dataset is gone.
            ghost = JobRecord(
                job_id="ghost", dataset_id="gone", method="kendall",
                epsilon=0.5, k=8.0, seed=3,
            )
            service.journal.create(ghost)
            service.worker.submit(ghost)
            assert service.worker.wait("ghost").state == "failed"
            for job_id in (refused["job_id"], "ghost"):
                assert not service.journal.load(job_id).refund_due
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            service.close()


class TestCancelRunning:
    def _cancel_when(self, service, job_id, ready):
        deadline = time.monotonic() + 30.0
        while not ready(service.journal.load(job_id)):
            assert time.monotonic() < deadline, "the job never got there"
            time.sleep(0.01)
        service.cancel_job(job_id)

    def test_cancelled_before_the_noise_mark_is_refunded(
        self, tmp_path, service_csv
    ):
        faults.configure("fit.margins:delay:1.0:1")
        service = _service(tmp_path / "data")
        try:
            job_id = _submit(service, service_csv)["job_id"]
            self._cancel_when(service, job_id, lambda r: r.state == "running")
            record = service.worker.wait(job_id)
            assert (record.state, record.noise_drawn, record.refund_due) == (
                "cancelled", False, True
            )
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.0)
            assert [c["kind"] for c in summary["charges"]] == ["charge", "refund"]
        finally:
            service.close()

    def test_cancelled_after_the_noise_mark_keeps_its_charge(
        self, tmp_path, service_csv
    ):
        faults.configure("fit.correlation:delay:1.0:1")
        service = _service(tmp_path / "data")
        try:
            job_id = _submit(service, service_csv)["job_id"]
            self._cancel_when(service, job_id, lambda r: r.noise_drawn)
            record = service.worker.wait(job_id)
            assert (record.state, record.noise_drawn, record.refund_due) == (
                "cancelled", True, False
            )
            assert f"m-{job_id}" not in service.registry
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            service.close()


class TestLedgerRetry:
    def test_transient_append_failure_charges_exactly_once(
        self, tmp_path, service_csv
    ):
        # The first append raises OSError; the accountant rolls the
        # in-memory spend back and the worker's retry policy re-issues
        # the charge, so the durable ledger ends up with one line.
        faults.configure("ledger.append:raise:OSError:1")
        service = _service(tmp_path / "data")
        try:
            submitted = _submit(service, service_csv)
            job_id = submitted["job_id"]
            assert service.worker.wait(job_id).state == "done"
            assert service.accountant.spent("ds") == pytest.approx(0.5)
            charges = [
                entry
                for entry in _ledger_lines(tmp_path / "data")
                if entry.get("key") == f"fit:{job_id}"
            ]
            assert len(charges) == 1
        finally:
            service.close()


#: The durable writes of one fit, in protocol order, as
#: :func:`_probe_writes` names them: a clean fit, and one that fails
#: before its noise mark and is refunded.
_FIT_WRITES = {
    "clean": (
        None,
        (
            "journal.queued",
            "journal.running",
            "ledger.charge",
            "journal.noise_mark",
            "registry.npz",
            "registry.sidecar",
            "journal.done",
        ),
    ),
    "refunded": (
        "fit.margins:raise::1",
        (
            "journal.queued",
            "journal.running",
            "ledger.charge",
            "journal.failed",
            "ledger.refund",
        ),
    ),
}

_CRASH_EXIT = 70


def _probe_writes(patch, on_write):
    """Route each durable write of a fit through ``on_write(name, write)``.

    ``patch(owner, attribute, value)`` installs the probes (``setattr``
    in a child that dies anyway, ``monkeypatch.setattr`` in process).
    """
    journal_write = JobJournal._write
    registry_write = registry_module.atomic_write_bytes
    ledger_append = PrivacyAccountant._append

    def journal(self, record):
        name = (
            "journal.noise_mark"
            if record.state == "running" and record.noise_drawn
            else f"journal.{record.state}"
        )
        return on_write(name, lambda: journal_write(self, record))

    def registry(path, payload):
        name = "registry.npz" if Path(path).suffix == ".npz" else "registry.sidecar"
        return on_write(name, lambda: registry_write(path, payload))

    def ledger(self, line):
        name = f"ledger.{parse_ledger_line(line).kind}"
        return on_write(name, lambda: ledger_append(self, line))

    patch(JobJournal, "_write", journal)
    patch(registry_module, "atomic_write_bytes", registry)
    patch(PrivacyAccountant, "_append", ledger)


def _crash_child(root, csv_text, fault, crash_at, when):
    """Run one fit on ``root``; ``os._exit`` at write ``crash_at``."""
    writes = []

    def on_write(name, write):
        hit = len(writes) == crash_at
        writes.append(name)
        if hit and when == "before":
            os._exit(_CRASH_EXIT)
        result = write()
        if hit and when == "after":
            os._exit(_CRASH_EXIT)
        return result

    _probe_writes(setattr, on_write)
    faults.configure(fault)
    service = _service(root)
    service.worker.wait(_submit(service, csv_text)["job_id"])
    os._exit(0)


def _library_release(dataset):
    """The library's release for the seed and ε :func:`_submit` uses."""
    synthesizer = DPCopulaKendall(0.5, rng=7).fit(dataset)
    buffer = io.BytesIO()
    ReleasedModel.from_synthesizer(synthesizer).save(buffer)
    buffer.seek(0)
    return _model_arrays(buffer)


class TestCrashAtEveryDurableWrite:
    """A fit process dies before or after each write its fit makes.

    Restarting on the same data directory must leave the ledger equal to
    what was released: one counted charge per model, no refund after a
    noise mark, the library's release bitwise, and one reading of the
    ledger.
    """

    @pytest.mark.parametrize("scenario", sorted(_FIT_WRITES))
    def test_a_fit_makes_these_writes_in_this_order(
        self, tmp_path, service_csv, monkeypatch, scenario
    ):
        fault, expected = _FIT_WRITES[scenario]
        writes = []
        _probe_writes(
            monkeypatch.setattr, lambda name, write: writes.append(name) or write()
        )
        faults.configure(fault)
        service = _service(tmp_path / "data")
        try:
            service.worker.wait(_submit(service, service_csv)["job_id"])
        finally:
            service.close()
        assert tuple(writes) == expected

    @pytest.mark.parametrize(
        "scenario, index, when",
        [
            (scenario, index, when)
            for scenario, (_, writes) in sorted(_FIT_WRITES.items())
            for index in range(len(writes))
            for when in ("before", "after")
        ],
    )
    def test_restart_after_a_crash_settles_the_fit(
        self, tmp_path, service_csv, scenario, index, when
    ):
        fault, writes = _FIT_WRITES[scenario]
        root = tmp_path / "data"
        # Forked from a single-threaded server, not from this process.
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        child = context.Process(
            target=_crash_child, args=(root, service_csv, fault, index, when)
        )
        child.start()
        child.join(120)
        if child.is_alive():
            child.kill()
            child.join(10)
        assert child.exitcode == _CRASH_EXIT, f"no crash {when} {writes[index]}"

        revived = _service(root)
        try:
            records = [
                revived.worker.wait(record.job_id)
                for record in revived.journal.list()
            ]
            entries = replay_ledger(root / "ledger.jsonl")
            keys = [entry.key for entry in entries]
            models = {model["model_id"] for model in revived.list_models()}
            for record in records:
                charges = keys.count(f"fit:{record.job_id}")
                refunds = keys.count(f"refund:{record.job_id}")
                if f"m-{record.job_id}" in models:
                    assert (record.state, charges, refunds) == ("done", 1, 0)
                if record.noise_drawn:
                    assert refunds == 0
            # What the ledger says was spent is what was released.
            assert revived.accountant.spent("ds") == pytest.approx(
                0.5 * len(models)
            )
            if models:
                control = _library_release(revived.datasets.get("ds"))
            for model_id in models:
                released = _model_arrays(root / "models" / f"{model_id}.npz")
                assert set(released) == set(control)
                for key, expected in control.items():
                    assert np.array_equal(released[key], expected), key
            # GET /budget's lock-free replay agrees with the accountant.
            overview = budget_overview(root, revived.accountant.epsilon_cap)
            for doc in overview["datasets"]:
                assert doc["epsilon_spent"] == revived.accountant.spent(
                    doc["dataset_id"]
                )
        finally:
            revived.close()


class _RawClient:
    """urllib client that surfaces response headers (for Retry-After)."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def post(self, path, body):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), json.loads(
                    response.read()
                )
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return response.status, json.loads(response.read())


@pytest.fixture
def http_chaos(tmp_path, service_csv):
    """Factory: a served SynthesisService with chosen config overrides."""
    state = {}

    def build(**overrides):
        service = _service(tmp_path / "data", **overrides)
        service.upload_dataset("ds", service_csv)
        server = build_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        state.update(service=service, server=server)
        return service, _RawClient(server.server_address[1])

    yield build
    if state:
        state["server"].shutdown()
        state["server"].server_close()
        state["service"].close()


class TestHttpBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, http_chaos):
        # Hold the worker inside job 1's margins stage; with a queue
        # bound of 1, job 2 queues and job 3 must be refused.
        faults.configure("fit.margins:delay:0.6:1")
        service, client = http_chaos(max_queued_fits=1)
        body = {"dataset_id": "ds", "epsilon": 0.1, "seed": 1}
        status1, _, job1 = client.post("/fits", body)
        status2, _, job2 = client.post("/fits", body)
        status3, headers3, refusal = client.post("/fits", body)
        assert (status1, status2) == (202, 202)
        assert status3 == 429
        assert float(headers3["Retry-After"]) > 0
        assert "queue" in refusal["error"].lower()
        # The refused submission left no journal record behind.
        assert {job1["job_id"], job2["job_id"]} == {
            record.job_id for record in service.journal.list()
        }
        for job in (job1, job2):
            assert service.worker.wait(job["job_id"]).state == "done"

    def test_cancel_a_queued_job_over_http(self, http_chaos):
        faults.configure("fit.margins:delay:0.5:1")
        service, client = http_chaos()
        body = {"dataset_id": "ds", "epsilon": 0.1, "seed": 1}
        _, _, running = client.post("/fits", body)
        _, _, queued = client.post("/fits", body)
        status, _, cancelled = client.post(
            f"/fits/{queued['job_id']}/cancel", {}
        )
        assert status == 202
        assert service.worker.wait(queued["job_id"]).state == "cancelled"
        assert service.worker.wait(running["job_id"]).state == "done"
        # The cancelled job never charged the dataset.
        assert service.accountant.spent("ds") == pytest.approx(0.1)
        status, view = client.get(f"/fits/{queued['job_id']}")
        assert (status, view["status"]) == (200, "cancelled")


class TestDrainAndRecover:
    def test_fast_shutdown_leaves_queued_jobs_recoverable(
        self, tmp_path, service_csv
    ):
        faults.configure("fit.margins:delay:0.4:1")
        service = _service(tmp_path / "data")
        running = _submit(service, service_csv, seed=1, epsilon=0.1)
        queued = _submit(service, service_csv, seed=2, epsilon=0.1)
        # Fast shutdown: the running job finishes, the queued one is
        # skipped but stays journaled as queued.
        service.close(drain=False)
        faults.configure(None)
        revived = _service(tmp_path / "data")
        try:
            assert revived.worker.wait(queued["job_id"]).state == "done"
            assert f"m-{queued['job_id']}" in revived.registry
            assert revived.job_status(running["job_id"])["status"] == "done"
            assert revived.accountant.spent("ds") == pytest.approx(0.2)
        finally:
            revived.close()
