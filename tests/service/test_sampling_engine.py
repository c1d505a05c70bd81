"""Service-level tests for the sampling engine wiring.

The engine internals (plans, coalescer) are unit-tested under
``tests/engine/``; these tests pin the service-facing contract: bitwise
per-request determinism under concurrency, the overload → 429 mapping,
and the cache-bound configuration knob.
"""

import json
import threading

import numpy as np
import pytest

from repro.engine import EngineOverloadedError
from repro.service import ServiceConfig, SynthesisService
from repro.service.errors import QueueFullError
from repro.service.serializers import RECORDS_JSON_MIN_CELLS


@pytest.fixture
def service_with_model(service, released_model):
    record = service.registry.put(
        released_model, dataset_id="d1", method="kendall", model_id="m1"
    )
    return service, record.model_id, released_model


class TestDeterminism:
    def test_seeded_response_matches_pre_engine_path(self, service_with_model):
        """A seeded request reproduces the pre-engine serve output exactly.

        From ``RECORDS_JSON_MIN_CELLS`` cells up the records arrive as
        JSON bytes, compared with the list's encoding byte for byte.
        """
        service, model_id, released_model = service_with_model
        m = released_model.schema.dimensions
        assert 120 * m < RECORDS_JSON_MIN_CELLS <= 10_000 * m
        for n in (120, 10_000):
            expected = released_model.sample(n, rng=np.random.default_rng(42)).values
            records = service.sample(model_id, n=n, seed=42)["records"]
            if expected.size >= RECORDS_JSON_MIN_CELLS:
                assert records == json.dumps(expected.tolist()).encode("utf-8")
            else:
                assert records == expected.tolist()

    def test_concurrent_seeded_requests_bitwise_stable(self, service_with_model):
        """Same seed, same records — regardless of coalescing with peers."""
        service, model_id, _ = service_with_model
        seeds = list(range(10))
        expected = {
            seed: service.sample(model_id, n=60, seed=seed)["records"]
            for seed in seeds
        }
        results = {}
        errors = []

        def worker(seed):
            try:
                results[seed] = service.sample(model_id, n=60, seed=seed)["records"]
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results == expected

    def test_unseeded_requests_differ(self, service_with_model):
        service, model_id, _ = service_with_model
        first = service.sample(model_id, n=50)["records"]
        second = service.sample(model_id, n=50)["records"]
        assert first != second


class TestOverloadMapping:
    def test_engine_overload_maps_to_429(self, service_with_model, monkeypatch):
        service, model_id, _ = service_with_model

        def overloaded(*args, **kwargs):
            raise EngineOverloadedError("sampling engine overloaded", retry_after=2.5)

        monkeypatch.setattr(service.engine, "sample", overloaded)
        with pytest.raises(QueueFullError) as excinfo:
            service.sample(model_id, n=10)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 2.5


class TestConfigurationKnobs:
    def test_model_cache_bound_flows_to_registry(self, tmp_path):
        service = SynthesisService(
            ServiceConfig(data_dir=tmp_path / "data", model_cache_size=3)
        )
        try:
            assert service.registry.max_cached_models == 3
        finally:
            service.close()

    def test_engine_gauges_exposed(self, service_with_model):
        service, model_id, _ = service_with_model
        service.sample(model_id, n=10, seed=0)
        snapshot = service.metrics_snapshot()
        assert "dpcopula_engine_pending_requests" in snapshot
        assert "dpcopula_registry_cached_models" in snapshot
        assert "dpcopula_coalesced_batch_size" in snapshot
        assert snapshot["dpcopula_engine_sample_seconds"]["series"][0]["count"] >= 1
