"""Tests for the service's /metrics, /healthz and failure observability."""

import json
import logging

import pytest

from repro.telemetry.metrics import REGISTRY

from tests.telemetry.test_aggregate import assert_buckets_ascend


@pytest.fixture
def propagating_logs(monkeypatch):
    """Let dpcopula records reach caplog even when a handler is configured.

    A configured JSON handler (e.g. a DPCOPULA_LOG=debug CI run) sets
    propagate=False on the namespace; caplog listens on the root logger.
    """
    monkeypatch.setattr(logging.getLogger("dpcopula"), "propagate", True)


def upload_and_fit(service, csv_text, dataset_id="obs", epsilon=1.0):
    service.upload_dataset(dataset_id, csv_text)
    job = service.submit_fit(
        {"dataset_id": dataset_id, "epsilon": epsilon, "seed": 11}
    )
    return service.worker.wait(job["job_id"])


class TestHealthz:
    def test_healthy_service_reports_200(self, http_service):
        _, client = http_service
        status, body = client.get("/healthz")
        assert status == 200
        assert body["healthy"] is True
        assert body["checks"] == {
            "fit_worker_alive": True,
            "ledger_writable": True,
            "models_dir_writable": True,
            "jobs_dir_writable": True,
        }
        assert body["queue_depth"] == 0

    def test_dead_worker_reports_503(self, http_service):
        service, client = http_service
        service.worker.close()
        status, body = client.get("/healthz")
        assert status == 503
        assert body["healthy"] is False
        assert body["checks"]["fit_worker_alive"] is False

    def test_unwritable_storage_reports_503(self, http_service, monkeypatch):
        # chmod tricks don't work when the suite runs as root, so stub
        # the writability probe itself.
        service, client = http_service
        monkeypatch.setattr(
            "repro.service.app.os.access", lambda path, mode: False
        )
        status, body = client.get("/healthz")
        assert status == 503
        assert body["checks"]["ledger_writable"] is False
        assert body["checks"]["models_dir_writable"] is False


class TestMetricsEndpoint:
    def test_prometheus_text_is_the_default(self, http_service):
        _, client = http_service
        status, text, content_type = client.get_raw("/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE dpcopula_fit_seconds histogram" in text
        assert "# TYPE dpcopula_sample_seconds histogram" in text
        assert "dpcopula_fit_queue_depth 0" in text

    def test_json_via_accept_header(self, http_service):
        _, client = http_service
        status, body = client.get(
            "/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        assert body["dpcopula_fit_seconds"]["type"] == "histogram"
        assert body["dpcopula_fit_queue_depth"]["type"] == "gauge"

    def test_fit_and_sample_populate_the_metrics(self, http_service, csv_text):
        service, client = http_service
        fit_before = REGISTRY.get("dpcopula_fit_seconds").count(method="kendall")
        records_before = REGISTRY.get("dpcopula_sample_records_total").value()

        job = upload_and_fit(service, csv_text)
        assert job.state == "done"
        service.sample(job.model_id, n=40, seed=3)

        status, text, _ = client.get_raw("/metrics")
        assert status == 200
        assert (
            REGISTRY.get("dpcopula_fit_seconds").count(method="kendall")
            == fit_before + 1
        )
        assert (
            REGISTRY.get("dpcopula_sample_records_total").value()
            == records_before + 40
        )
        # The traced service fit feeds the per-stage histograms.
        assert 'dpcopula_stage_seconds_count{stage="margins"}' in text
        assert 'dpcopula_stage_seconds_count{stage="correlation"}' in text
        assert_buckets_ascend(text)

    def test_epsilon_gauges_track_the_accountant(self, http_service, csv_text):
        service, client = http_service
        upload_and_fit(service, csv_text, dataset_id="gauges", epsilon=1.25)
        status, text, _ = client.get_raw("/metrics")
        assert status == 200
        assert 'dpcopula_epsilon_spent{dataset="gauges"} 1.25' in text
        assert 'dpcopula_epsilon_remaining{dataset="gauges"} 1.75' in text

        status, body = client.get(
            "/metrics", headers={"Accept": "application/json"}
        )
        spent = {
            s["labels"]["dataset"]: s["value"]
            for s in body["dpcopula_epsilon_spent"]["series"]
        }
        assert spent["gauges"] == 1.25

    def test_http_requests_are_counted(self, http_service):
        _, client = http_service
        counter = REGISTRY.get("dpcopula_http_requests_total")
        before = counter.value(method="GET", route="health", status="200")
        client.get("/health")
        assert (
            counter.value(method="GET", route="health", status="200")
            == before + 1
        )
        unrouted_before = counter.value(
            method="GET", route="<unrouted>", status="404"
        )
        client.get("/nonsense")
        assert (
            counter.value(method="GET", route="<unrouted>", status="404")
            == unrouted_before + 1
        )


class TestFailureObservability:
    def test_failed_fit_logs_traceback_and_counts(
        self, service, csv_text, caplog, monkeypatch, propagating_logs
    ):
        service.upload_dataset("failing", csv_text)
        errors = REGISTRY.get("dpcopula_fit_errors_total")
        jobs = REGISTRY.get("dpcopula_fit_jobs_total")
        errors_before = errors.value(stage="fit_job")
        failed_before = jobs.value(status="failed")

        def explode(job):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(service.worker, "_runner", explode)
        with caplog.at_level("ERROR", logger="dpcopula"):
            job = service.submit_fit({"dataset_id": "failing", "epsilon": 0.5})
            finished = service.worker.wait(job["job_id"])

        assert finished.state == "failed"
        assert finished.error == "RuntimeError: synthetic failure"
        assert errors.value(stage="fit_job") == errors_before + 1
        assert jobs.value(status="failed") == failed_before + 1
        failure_records = [
            r for r in caplog.records if r.message == "fit job failed"
        ]
        assert failure_records, "fit failure was not logged"
        assert "synthetic failure" in str(failure_records[0].exc_info[1])

    def test_registry_sidecar_records_fit_provenance(self, service, csv_text):
        job = upload_and_fit(service, csv_text, dataset_id="prov")
        assert job.state == "done"
        record = service.registry.record(job.model_id)
        extra = record.extra
        assert extra["job_id"] == job.job_id
        assert extra["fit_seconds"] > 0
        assert extra["fit_workers"] == 1
        # The execution context is the code's choice, not a setting.
        assert "parallel_backend" not in extra
        assert "parallel_workers" not in extra
        # The sidecar on disk carries the same provenance.
        sidecar = json.loads(
            (service.config.models_dir / f"{job.model_id}.json").read_text()
        )
        assert sidecar["extra"] == extra

    def test_hybrid_cell_failure_is_counted_and_logged(
        self, small_dataset, caplog, monkeypatch, propagating_logs
    ):
        import repro.core.hybrid as hybrid_module
        from repro.core.hybrid import DPCopulaHybrid
        from repro.data.dataset import Attribute, Dataset, Schema
        import numpy as np

        # Build a dataset with one small-domain attribute so the hybrid
        # actually partitions, then make every per-cell fit explode.
        rng = np.random.default_rng(0)
        values = np.column_stack(
            [
                rng.integers(0, 2, size=120),
                small_dataset.values[:120, 0],
                small_dataset.values[:120, 1],
            ]
        )
        schema = Schema(
            [Attribute("flag", 2), Attribute("x", 50), Attribute("y", 40)]
        )
        dataset = Dataset(values, schema)

        def explode(task, shared):
            raise ValueError("cell blew up")

        monkeypatch.setattr(hybrid_module, "_fit_cell_task", explode)
        errors = REGISTRY.get("dpcopula_fit_errors_total")
        before = errors.value(stage="hybrid_cell_fit")

        synthesizer = DPCopulaHybrid(epsilon=2.0, rng=5)
        with caplog.at_level("ERROR", logger="dpcopula"):
            with pytest.raises(ValueError, match="cell blew up"):
                synthesizer.fit_sample(dataset)

        assert errors.value(stage="hybrid_cell_fit") == before + 1
        failure_records = [
            r for r in caplog.records if r.message == "hybrid per-cell fit failed"
        ]
        assert failure_records, "hybrid failure was not logged"
        assert "cell blew up" in str(failure_records[0].exc_info[1])
