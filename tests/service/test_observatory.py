"""Tests for the fleet observatory: budget timelines, utility probes and
the /budget + /debug/observatory endpoints."""

import json
import urllib.request

import pytest

from repro.dp.budget import parse_ledger_line
from repro.service import ServiceConfig, SynthesisService, build_server
from repro.service.registry import ModelRegistry
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.observatory import (
    UtilityProbe,
    budget_timelines,
    load_probe_document,
    probe_seed,
)

from tests.service.test_observability import upload_and_fit


def _entries(*records):
    """Ledger entries as the replay reads them: one parsed line each."""
    return [parse_ledger_line(json.dumps(record)) for record in records]


class TestBudgetTimelines:
    def test_charges_accumulate_into_burn_down(self):
        entries = _entries(
            {"dataset": "adult", "epsilon": 1.0, "label": "fit:a", "timestamp": 10.0},
            {"dataset": "adult", "epsilon": 0.5, "label": "fit:b", "timestamp": 20.0},
            {"dataset": "census", "epsilon": 2.0, "label": "fit:c", "timestamp": 15.0},
        )
        doc = budget_timelines(entries, epsilon_cap=4.0)
        assert doc["epsilon_cap"] == 4.0
        by_id = {d["dataset_id"]: d for d in doc["datasets"]}
        adult = by_id["adult"]
        assert adult["epsilon_spent"] == 1.5
        assert adult["epsilon_remaining"] == 2.5
        assert adult["utilization"] == pytest.approx(1.5 / 4.0)
        assert [e["spent_after"] for e in adult["events"]] == [1.0, 1.5]
        assert [e["remaining_after"] for e in adult["events"]] == [3.0, 2.5]
        assert adult["events"][0]["label"] == "fit:a"
        assert by_id["census"]["epsilon_spent"] == 2.0

    def test_refunds_are_clipped_at_zero(self):
        entries = _entries(
            {"dataset": "d", "epsilon": 1.0, "kind": "charge"},
            {"dataset": "d", "epsilon": 5.0, "kind": "refund"},
            {"dataset": "d", "epsilon": 0.5, "kind": "charge"},
        )
        (timeline,) = budget_timelines(entries, epsilon_cap=2.0)["datasets"]
        assert [e["spent_after"] for e in timeline["events"]] == [1.0, 0.0, 0.5]
        assert timeline["epsilon_spent"] == 0.5

    def test_known_datasets_appear_with_full_headroom(self):
        doc = budget_timelines([], epsilon_cap=3.0, datasets=["quiet"])
        (timeline,) = doc["datasets"]
        assert timeline["dataset_id"] == "quiet"
        assert timeline["epsilon_spent"] == 0.0
        assert timeline["epsilon_remaining"] == 3.0
        assert timeline["events"] == []

    def test_overspent_dataset_clamps_remaining(self):
        entries = _entries({"dataset": "d", "epsilon": 9.0})
        (timeline,) = budget_timelines(entries, epsilon_cap=4.0)["datasets"]
        assert timeline["epsilon_remaining"] == 0.0
        assert timeline["utilization"] == pytest.approx(9.0 / 4.0)


class TestProbeSeed:
    def test_deterministic_per_model(self):
        assert probe_seed("m1") == probe_seed("m1")
        assert probe_seed("m1") != probe_seed("m2")


@pytest.fixture
def registry_with_model(tmp_path, released_model):
    registry = ModelRegistry(tmp_path / "models")
    record = registry.put(released_model, dataset_id="d", method="kendall")
    return registry, record.model_id


class TestUtilityProbe:
    def test_run_once_is_deterministic(
        self, tmp_path, registry_with_model
    ):
        registry, model_id = registry_with_model
        probe = UtilityProbe(
            registry, tmp_path / "obs", sample_size=64, interval=0.0
        )
        first = probe.run_once()
        second = probe.run_once()
        assert first["models_probed"] == 1
        (model_a,) = first["models"]
        (model_b,) = second["models"]
        assert model_a["model_id"] == model_id
        assert model_a["seed"] == probe_seed(model_id)
        assert model_a["sample_size"] == 64
        # Same model → same seed → bitwise-identical sample → identical
        # utility numbers.
        assert model_a["margin_tvd"] == model_b["margin_tvd"]
        assert model_a["tau_error"] == model_b["tau_error"]
        assert model_a["copula_misfit"] == model_b["copula_misfit"]
        assert 0.0 <= model_a["margin_tvd_max"] <= 1.0
        # The two-way probe compares the sample's empirical pair tables
        # against the copula-implied distributions; a healthy model on
        # its own sample should sit well inside [0, 1].
        assert model_a["kway_tvd_max"] == model_b["kway_tvd_max"]
        assert 0.0 <= model_a["kway_tvd_max"] <= 1.0

    def test_run_once_publishes_gauges_and_persists(
        self, tmp_path, registry_with_model
    ):
        registry, model_id = registry_with_model
        probe = UtilityProbe(registry, tmp_path / "obs", sample_size=64)
        document = probe.run_once()
        assert (
            REGISTRY.get("dpcopula_probe_margin_tvd_max").value(model=model_id)
            == document["models"][0]["margin_tvd_max"]
        )
        assert (
            REGISTRY.get("dpcopula_probe_kway_tvd_max").value(model=model_id)
            == document["models"][0]["kway_tvd_max"]
        )
        persisted = load_probe_document(tmp_path / "obs")
        assert persisted == document
        assert persisted["worker"] == "main"

    def test_probe_consumes_zero_epsilon(self, tmp_path, registry_with_model):
        registry, _ = registry_with_model
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(
            json.dumps({"dataset": "d", "epsilon": 1.0, "key": "fit:1"}) + "\n"
        )
        before = ledger.read_bytes()
        UtilityProbe(registry, tmp_path / "obs", sample_size=64).run_once()
        # Probing is pure post-processing of the released model: the
        # privacy ledger is byte-identical across a cycle.
        assert ledger.read_bytes() == before

    def test_failed_model_is_counted_not_fatal(self, tmp_path, registry_with_model):
        registry, model_id = registry_with_model
        # Corrupt the NPZ: the probe cycle must survive and count it.
        (registry.directory / f"{model_id}.npz").write_bytes(b"not-an-npz")
        registry._cache.clear()
        probe = UtilityProbe(registry, tmp_path / "obs", sample_size=64)
        failures = REGISTRY.get("dpcopula_probe_failures_total")
        before = failures.value(model=model_id)
        document = probe.run_once()
        assert document["models_probed"] == 0
        assert failures.value(model=model_id) == before + 1

    def test_background_loop_respects_interval_zero(
        self, tmp_path, registry_with_model
    ):
        registry, _ = registry_with_model
        probe = UtilityProbe(registry, tmp_path / "obs", interval=0.0)
        probe.start()  # no-op: no thread
        assert probe._thread is None
        probe.stop()


class TestServiceEndpoints:
    def test_budget_endpoint_replays_the_ledger(self, http_service, csv_text):
        service, client = http_service
        job = upload_and_fit(service, csv_text, dataset_id="budgeted")
        assert job.state == "done"
        status, body = client.get("/budget")
        assert status == 200
        assert body["epsilon_cap"] == 3.0
        by_id = {d["dataset_id"]: d for d in body["datasets"]}
        timeline = by_id["budgeted"]
        assert timeline["epsilon_spent"] == pytest.approx(1.0)
        assert timeline["epsilon_remaining"] == pytest.approx(2.0)
        (event,) = timeline["events"]
        assert event["kind"] == "charge"
        assert event["spent_after"] == pytest.approx(1.0)

    def test_budget_lists_quiet_datasets(self, http_service, csv_text):
        service, client = http_service
        service.upload_dataset("quiet", csv_text)
        _, body = client.get("/budget")
        by_id = {d["dataset_id"]: d for d in body["datasets"]}
        assert by_id["quiet"]["epsilon_spent"] == 0.0

    def test_observatory_snapshot_shape(self, http_service, csv_text):
        service, client = http_service
        job = upload_and_fit(service, csv_text)
        assert job.state == "done"
        service.probe.run_once()
        status, body = client.get("/debug/observatory")
        assert status == 200
        assert body["served_by"] == "main"
        assert body["budget"]["epsilon_cap"] == 3.0
        assert body["probes"]["models_probed"] == 1
        assert body["traces"]["enabled"] is True
        assert any(
            entry["file"].startswith("trace-")
            for entry in body["traces"]["files"]
        )
        assert body["requests_total"] >= 1
        import os

        assert body["workers"] == [{"worker": "main", "pid": os.getpid()}]

    def test_http_traffic_is_traced_to_the_ring(self, http_service):
        service, client = http_service
        client.get("/healthz")
        ring = service.config.traces_dir / "trace-main.jsonl"
        assert ring.exists()
        records = [
            json.loads(line) for line in ring.read_text().splitlines()
        ]
        assert any(r["root"]["name"] == "http.request" for r in records)


class TestRequestIdHeader:
    def _get(self, client, path, headers=None):
        request = urllib.request.Request(
            client.base + path, headers=headers or {}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response, response.read()

    def test_every_response_carries_a_request_id(self, http_service):
        _, client = http_service
        response, _ = self._get(client, "/healthz")
        first = response.headers["X-Request-ID"]
        assert first
        response, _ = self._get(client, "/metrics")
        assert response.headers["X-Request-ID"] != first

    def test_inbound_request_id_is_honored(self, http_service):
        _, client = http_service
        response, _ = self._get(
            client, "/healthz", headers={"X-Request-ID": "caller-abc123"}
        )
        assert response.headers["X-Request-ID"] == "caller-abc123"

    def test_request_id_joins_the_exported_trace(self, http_service):
        service, client = http_service
        self._get(client, "/healthz", headers={"X-Request-ID": "trace-join-1"})
        ring = service.config.traces_dir / "trace-main.jsonl"
        records = [json.loads(line) for line in ring.read_text().splitlines()]
        assert any(r["trace_id"] == "trace-join-1" for r in records)


class TestSlowRequests:
    def test_threshold_zero_flags_everything(self, tmp_path):
        service = SynthesisService(
            ServiceConfig(data_dir=tmp_path / "data", slow_request_seconds=0.0)
        )
        try:
            import threading

            server = build_server(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            slow = REGISTRY.get("dpcopula_http_slow_requests_total")
            before = slow.value(route="healthz")
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30
            ):
                pass
            assert slow.value(route="healthz") == before + 1
            server.shutdown()
            server.server_close()
        finally:
            service.close()


class TestExemplarsInSnapshot:
    def test_request_latency_carries_trace_exemplar(self, http_service):
        _, client = http_service
        status, text, _ = client.get_raw(
            "/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        snapshot = json.loads(text)
        series = snapshot["dpcopula_http_request_seconds"]["series"]
        exemplars = {}
        for entry in series:
            exemplars.update(entry.get("exemplars", {}))
        assert exemplars, "request latency buckets must carry exemplars"
        assert all(e["trace_id"] for e in exemplars.values())
        # The 0.0.4 text exposition stays exemplar-free (no trace ids
        # on any sample line; "exemplars" may appear in HELP text).
        _, text, _ = client.get_raw("/metrics")
        for trace_id in {e["trace_id"] for e in exemplars.values()}:
            assert trace_id not in text
