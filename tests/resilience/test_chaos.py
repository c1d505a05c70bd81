"""Chaos tests: injected faults against the real fit/serve paths.

Each test arms a deterministic fault plan (``repro.resilience.faults``)
and asserts the system-level resilience property — bitwise-identical
retries, single ε charges across restarts, refunds only before noise,
backpressure with ``Retry-After`` — rather than any implementation
detail of the failure itself.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.parallel import ExecutionContext
from repro.resilience import faults
from repro.service import ServiceConfig, SynthesisService, build_server


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

        # Chaos: die after the margins stage checkpointed, then restart.
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
            # Margins were computed by the first attempt only; resume
            # restored them from the checkpoint.
            assert record.stage_computed.get("margins") == 1
            # One charge total across both attempts.
            summary = revived.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            charges = [
                entry
                for entry in _ledger_lines(tmp_path / "data")
                if entry.get("key") == f"fit:{job_id}"
            ]
            assert len(charges) == 1
            # The resumed release is bitwise the uninterrupted release.
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
            assert service.worker.wait(submitted["job_id"]).state == "failed"
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
            assert service.worker.wait(submitted["job_id"]).state == "failed"
            summary = service.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            service.close()

    def test_orphaned_checkpoint_vetoes_the_refund(self, tmp_path, service_csv):
        """Double-spend regression: a stage checkpoint the journal never
        recorded (torn record write) must still block the refund.

        Attempt 1 checkpoints the margins, then dies at the correlation
        stage.  We erase the journal's stage bookkeeping — emulating a
        crash between persisting the NPZ and journaling it — and
        restart.  The resumed fit restores the margins from the
        checkpoint (so ``privacy_touched_`` stays False) and fails
        again pre-noise; every *record*-based refund guard passes, yet
        the noisy margins durably exist, so the ε must stay charged.
        """
        faults.configure("fit.correlation:raise::1")
        service = _service(tmp_path / "data")
        try:
            submitted = _submit(service, service_csv, seed=7)
            job_id = submitted["job_id"]
            assert service.worker.wait(job_id).state == "failed"
            assert service.journal.has_stage_checkpoints(job_id)
            # Emulate the torn journal write: checkpoint on disk, record
            # claiming no stage was ever computed, job still in flight.
            service.journal.update(
                job_id, state="running", stages_done=[], stage_computed={}
            )
        finally:
            service.close()

        faults.configure("fit.correlation:raise::1")
        revived = _service(tmp_path / "data")
        try:
            assert revived.worker.wait(job_id).state == "failed"
            summary = revived.accountant.summary("ds")
            assert summary["epsilon_spent"] == pytest.approx(0.5)
            assert [c["kind"] for c in summary["charges"]] == ["charge"]
        finally:
            revived.close()


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
