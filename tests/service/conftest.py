"""Shared fixtures for the synthesis-service tests."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.dpcopula import DPCopulaKendall
from repro.io import ReleasedModel
from repro.service import ServiceConfig, SynthesisService, build_server


@pytest.fixture
def csv_text(rng) -> str:
    """A 300-record correlated 2-attribute dataset as CSV text."""
    latent = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=300)
    a = np.clip(((latent[:, 0] + 3) / 6 * 60).astype(int), 0, 59)
    b = np.clip(((latent[:, 1] + 3) / 6 * 80).astype(int), 0, 79)
    return "a[60],b[80]\n" + "\n".join(f"{x},{y}" for x, y in zip(a, b)) + "\n"


@pytest.fixture
def released_model(small_dataset) -> ReleasedModel:
    """A quick fitted release of the 200-record conftest dataset."""
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=0)
    synthesizer.fit(small_dataset)
    return ReleasedModel.from_synthesizer(synthesizer)


@pytest.fixture
def service(tmp_path):
    """A SynthesisService over a fresh tmp data dir (ε cap 3.0)."""
    svc = SynthesisService(ServiceConfig(data_dir=tmp_path / "data", epsilon_cap=3.0))
    yield svc
    svc.close()


class ServiceClient:
    """Minimal JSON client for a running synthesis server."""

    def __init__(self, port: int):
        self.port = port
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method: str, path: str, body=None, headers=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get_raw(self, path: str, headers=None):
        """GET without JSON-decoding; returns (status, text, content_type)."""
        request = urllib.request.Request(
            self.base + path, method="GET", headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (
                    response.status,
                    response.read().decode("utf-8"),
                    response.headers.get("Content-Type", ""),
                )
        except urllib.error.HTTPError as error:
            return (
                error.code,
                error.read().decode("utf-8"),
                error.headers.get("Content-Type", ""),
            )

    def get(self, path: str, headers=None):
        return self.request("GET", path, headers=headers)

    def post(self, path: str, body=None):
        return self.request("POST", path, body if body is not None else {})


@pytest.fixture
def http_service(service):
    """The service bound to an ephemeral port, served from a thread."""
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.server_address[1])
    yield service, client
    server.shutdown()
    server.server_close()
