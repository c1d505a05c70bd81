"""End-to-end and concurrency tests for the HTTP synthesis API."""

import concurrent.futures
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service import (
    ModelRegistry,
    PreforkServer,
    ServiceConfig,
    SynthesisService,
    build_server,
)
from repro.service.errors import QueueFullError
from repro.service.http import _SLOT, _json_body
from repro.service.serializers import RECORDS_JSON_MIN_CELLS, records_json

from tests.service.conftest import ServiceClient


def poll_job(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = client.get(f"/fits/{job_id}")
        assert status == 200
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} did not finish")


def raw_exchange(port, request: bytes, timeout=10.0) -> bytes:
    """Send raw request bytes; return everything read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestRouting:
    def test_health(self, http_service):
        _, client = http_service
        status, body = client.get("/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_route_404(self, http_service):
        _, client = http_service
        status, body = client.get("/nope")
        assert status == 404
        assert "error" in body

    def test_wrong_method_405(self, http_service):
        _, client = http_service
        status, _ = client.post("/health")
        assert status == 405

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    @pytest.mark.parametrize(
        "path, expected", [("/health", 405), ("/models/m1", 405), ("/nope", 404)]
    )
    def test_every_method_gets_a_json_error(self, http_service, method, path, expected):
        _, client = http_service
        status, body = client.request(method, path)
        assert status == expected
        assert method in body["error"]

    def test_head_keeps_the_stdlib_501(self, http_service):
        _, client = http_service
        connection = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
        try:
            connection.request("HEAD", "/health")
            assert connection.getresponse().status == 501
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_invalid_content_length_400_at_once_and_closed(self, http_service, length):
        # Reading a body of length -1 would wait out the socket
        # timeout (30 s by default).
        service, client = http_service
        started = time.monotonic()
        response = raw_exchange(
            client.port,
            f"POST /fits HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        assert time.monotonic() - started < 5.0
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]
        assert service.list_jobs() == []

    def test_unknown_model_404(self, http_service):
        _, client = http_service
        status, _ = client.post("/models/missing/sample", {"n": 10})
        assert status == 404
        status, body = client.get("/models/missing")
        assert status == 404
        assert body["error"] == "no model registered under id 'missing'"

    def test_malformed_json_400(self, http_service):
        service, client = http_service
        import urllib.request

        request = urllib.request.Request(
            client.base + "/fits",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_hybrid_fit_rejected_400(self, http_service, csv_text):
        _, client = http_service
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        status, body = client.post(
            "/fits", {"dataset_id": "d", "method": "hybrid", "epsilon": 1.0}
        )
        assert status == 400
        assert "hybrid" in body["error"]

    def test_non_finite_k_rejected_400_without_charge(self, http_service, csv_text):
        # 1e309 is valid JSON that parses to inf.
        service, client = http_service
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        ledger = service.config.ledger_path
        before = ledger.read_bytes() if ledger.exists() else None
        request = urllib.request.Request(
            client.base + "/fits",
            data=b'{"dataset_id": "d", "epsilon": 1.0, "k": 1e309, "seed": 1}',
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400
            assert "k must be a finite positive" in json.loads(error.read())["error"]
        assert (ledger.read_bytes() if ledger.exists() else None) == before
        assert service.list_jobs() == []

    def test_negative_seed_sample_400(self, http_service, released_model):
        # np.random.default_rng(-1) raises ValueError: a 500 before.
        service, client = http_service
        model_id = service.registry.put(
            released_model, dataset_id="d", method="kendall"
        ).model_id
        status, body = client.post(f"/models/{model_id}/sample", {"n": 5, "seed": -1})
        assert status == 400
        assert "non-negative" in body["error"]

    def test_negative_seed_fit_400_without_job_or_charge(self, http_service, csv_text):
        # Accepted before, the job then failed in default_rng.
        service, client = http_service
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        ledger = service.config.ledger_path
        before = ledger.read_bytes() if ledger.exists() else None
        status, body = client.post(
            "/fits", {"dataset_id": "d", "epsilon": 1.0, "seed": -7}
        )
        assert status == 400
        assert "non-negative" in body["error"]
        assert client.get("/fits") == (200, {"jobs": []})
        assert (ledger.read_bytes() if ledger.exists() else None) == before


class TestEndToEnd:
    def test_full_lifecycle_with_restart(self, tmp_path, csv_text):
        """The acceptance scenario: upload → fit → poll → sample → restart."""
        data_dir = tmp_path / "data"
        service = SynthesisService(ServiceConfig(data_dir=data_dir, epsilon_cap=3.0))
        server = build_server(service)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(port)
        try:
            status, summary = client.post(
                "/datasets", {"dataset_id": "adult", "csv": csv_text}
            )
            assert status == 201
            assert summary["n_records"] == 300

            status, job = client.post(
                "/fits",
                {"dataset_id": "adult", "method": "kendall", "epsilon": 1.0,
                 "seed": 7},
            )
            assert status == 202
            job = poll_job(client, job["job_id"])
            assert job["status"] == "done", job["error"]
            model_id = job["model_id"]

            status, sample = client.post(
                f"/models/{model_id}/sample", {"n": 1000, "seed": 42}
            )
            assert status == 200
            assert sample["n_records"] == 1000
            values = np.asarray(sample["records"])
            assert values.shape == (1000, 2)
            assert values[:, 0].min() >= 0 and values[:, 0].max() < 60
            assert values[:, 1].min() >= 0 and values[:, 1].max() < 80

            status, budget = client.get("/datasets/adult/budget")
            assert status == 200
            assert budget["epsilon_spent"] == pytest.approx(1.0)
            assert f"fit:kendall:{job['job_id']}" in [
                charge["label"] for charge in budget["charges"]
            ]
            ledger_lines = (data_dir / "ledger.jsonl").read_text().splitlines()
            assert json.loads(ledger_lines[0])["epsilon"] == 1.0
        finally:
            server.shutdown()
            server.server_close()
            service.close()

        # Restart over the same data dir: the model is served without
        # refitting and the accountant still knows the spend.
        rebooted = SynthesisService(ServiceConfig(data_dir=data_dir, epsilon_cap=3.0))
        server2 = build_server(rebooted)
        threading.Thread(target=server2.serve_forever, daemon=True).start()
        client2 = ServiceClient(server2.server_address[1])
        try:
            status, models = client2.get("/models")
            assert status == 200
            assert [m["model_id"] for m in models["models"]] == [model_id]
            # Job history is durable: the finished job is still listed
            # (from the journal), done, and was not refitted.  Its
            # document is the one served before the restart,
            # timestamps included.
            status, jobs = client2.get("/fits")
            assert [j["status"] for j in jobs["jobs"]] == ["done"]
            assert jobs["jobs"] == [job]
            assert client2.get(f"/fits/{job['job_id']}") == (200, job)
            assert job["submitted_at"] <= job["started_at"] <= job["finished_at"]

            status, sample = client2.post(
                f"/models/{model_id}/sample", {"n": 50, "seed": 5}
            )
            assert status == 200
            assert sample["n_records"] == 50

            status, budget = client2.get("/datasets/adult/budget")
            assert budget["epsilon_spent"] == pytest.approx(1.0)
            assert budget["epsilon_remaining"] == pytest.approx(2.0)
        finally:
            server2.shutdown()
            server2.server_close()
            rebooted.close()

    def test_budget_cap_refuses_second_fit(self, http_service, csv_text):
        service, client = http_service  # ε cap 3.0
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        status, job = client.post("/fits", {"dataset_id": "d", "epsilon": 2.0})
        assert status == 202
        assert poll_job(client, job["job_id"])["status"] == "done"
        status, body = client.post("/fits", {"dataset_id": "d", "epsilon": 2.0})
        assert status == 409
        assert "cap" in body["error"]


class _WriteLog:
    """A handler's ``wfile`` that records each write before making it."""

    def __init__(self, wfile, writes):
        self._wfile, self._writes = wfile, writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestTransport:
    """Responses leave in one write on a TCP_NODELAY socket.

    Headers and body in two writes meet Nagle's algorithm and the
    client's delayed ACK: every small keep-alive response then takes
    about 40 ms.  ``ServiceClient`` opens a connection per request, so
    these tests hold one ``http.client`` connection open instead.
    """

    @staticmethod
    def _timed(connection, method, path, body=None):
        started = time.perf_counter()
        connection.request(method, path, body=body)
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        return time.perf_counter() - started

    def test_keep_alive_requests_do_not_wait_for_a_delayed_ack(
        self, http_service, released_model
    ):
        service, client = http_service
        model_id = service.registry.put(
            released_model, dataset_id="d", method="kendall"
        ).model_id
        connection = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
        try:
            health = [self._timed(connection, "GET", "/health") for _ in range(20)]
            sample = json.dumps({"n": 25, "seed": 1})
            samples = [
                self._timed(connection, "POST", f"/models/{model_id}/sample", sample)
                for _ in range(20)
            ]
        finally:
            connection.close()
        assert statistics.median(health) < 0.020
        assert statistics.median(samples) < 0.020

    def test_each_response_is_one_write_on_a_nodelay_socket(
        self, service, monkeypatch
    ):
        server = build_server(service)
        writes, nodelay = [], []

        class Recording(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
                self.wfile = _WriteLog(self.wfile, writes)

        server.RequestHandlerClass = Recording
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def busy():
            raise QueueFullError("busy", retry_after=2.5)

        monkeypatch.setattr(service, "list_models", busy)
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            for method, path, status, content_type in [
                ("GET", "/health", 200, "application/json"),
                ("GET", "/metrics", 200, "text/plain"),
                ("GET", "/nope", 404, "application/json"),
                ("POST", "/health", 405, "application/json"),
                ("GET", "/models", 429, "application/json"),
            ]:
                writes.clear()
                connection.request(method, path, body=b"" if method == "POST" else None)
                response = connection.getresponse()
                body = response.read()
                assert response.status == status
                assert response.getheader("Content-Type").startswith(content_type)
                assert len(writes) == 1, (path, writes)
                assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
                assert writes[0].endswith(b"\r\n\r\n" + body)
            assert response.getheader("Retry-After") == "2.5"
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
        # One keep-alive connection, accepted once, with Nagle off.
        assert len(nodelay) == 1 and nodelay[0] != 0


class TestSampleBody:
    """A sample response's body, byte for byte, on both encoding paths."""

    @pytest.fixture(params=[1, 2], ids=["one-process", "two-worker-fleet"])
    def served_model(self, request, tmp_path, released_model):
        """(port, model record) of a server holding ``released_model``:
        one in-thread server, or a two-worker pre-fork fleet."""
        config = ServiceConfig(
            data_dir=tmp_path / "data", epsilon_cap=3.0, workers=request.param
        )
        config.ensure_layout()
        record = ModelRegistry(config.models_dir).put(
            released_model, dataset_id="d", method="kendall"
        )
        if config.workers > 1:
            supervisor = PreforkServer(config, port=0, quiet=True)
            try:
                supervisor.start(timeout=90)
                yield supervisor.port, record
            finally:
                supervisor.stop()
            return
        service = SynthesisService(config)
        server = build_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            yield server.server_address[1], record
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_body_equals_json_dumps_of_the_record_lists(
        self, served_model, released_model
    ):
        port, record = served_model
        m = released_model.schema.dimensions
        assert 25 * m < RECORDS_JSON_MIN_CELLS <= 10_000 * m
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for n, seed in [(1, 3), (25, 4), (10_000, 5)]:
                connection.request(
                    "POST",
                    f"/models/{record.model_id}/sample",
                    body=json.dumps({"n": n, "seed": seed}),
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                expected = released_model.sample(n, rng=np.random.default_rng(seed))
                document = {
                    "columns": released_model.schema.names,
                    "records": expected.values.tolist(),
                    "n_records": n,
                    "model_id": record.model_id,
                    "dataset_id": "d",
                    "epsilon": record.epsilon,
                    "seed": seed,
                    "privacy_cost": 0.0,
                }
                assert body == json.dumps(document).encode("utf-8"), n
        finally:
            connection.close()

    def test_slot_text_in_a_client_string_still_encodes_exactly(self):
        values = np.arange(12, dtype=np.int64).reshape(4, 3)
        for columns in (["a", "b", "c"], [_SLOT, "b", f"x{_SLOT}y"]):
            document = {"columns": columns, "records": records_json(values)}
            expected = {"columns": columns, "records": values.tolist()}
            assert _json_body(document) == json.dumps(expected).encode("utf-8")


class TestConcurrentSampling:
    def test_hammer_sample_endpoint(self, http_service, csv_text):
        """≥8 threads, distinct seeds: independent draws, no corruption."""
        _, client = http_service
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        _, job = client.post(
            "/fits", {"dataset_id": "d", "epsilon": 1.0, "seed": 0}
        )
        job = poll_job(client, job["job_id"])
        assert job["status"] == "done", job["error"]
        model_id = job["model_id"]

        n_threads, n_requests = 8, 48

        def draw(i):
            status, body = client.post(
                f"/models/{model_id}/sample", {"n": 120, "seed": i}
            )
            assert status == 200, body
            return np.asarray(body["records"])

        with concurrent.futures.ThreadPoolExecutor(n_threads) as pool:
            results = list(pool.map(draw, range(n_requests)))

        # Every response is well-formed and within the schema's domains.
        for values in results:
            assert values.shape == (120, 2)
            assert values[:, 0].min() >= 0 and values[:, 0].max() < 60
            assert values[:, 1].min() >= 0 and values[:, 1].max() < 80
        # Distinct seeds give independent (non-identical) draws.
        distinct = {values.tobytes() for values in results}
        assert len(distinct) == n_requests

    def test_same_seed_is_deterministic_under_concurrency(
        self, http_service, csv_text
    ):
        """Same-seed requests agree even when raced: no shared-RNG state."""
        _, client = http_service
        client.post("/datasets", {"dataset_id": "d", "csv": csv_text})
        _, job = client.post("/fits", {"dataset_id": "d", "epsilon": 1.0, "seed": 0})
        job = poll_job(client, job["job_id"])
        assert job["status"] == "done", job["error"]
        model_id = job["model_id"]

        def draw(_):
            status, body = client.post(
                f"/models/{model_id}/sample", {"n": 200, "seed": 1234}
            )
            assert status == 200, body
            return np.asarray(body["records"])

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(draw, range(16)))
        reference = results[0]
        for values in results[1:]:
            np.testing.assert_array_equal(values, reference)
