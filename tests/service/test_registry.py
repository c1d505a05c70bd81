"""Tests for the persistent model registry."""

import json

import numpy as np
import pytest

from repro.data.dataset import Attribute, Schema
from repro.io import MODEL_FORMAT_VERSION, ReleasedModel
from repro.service.registry import ModelRecord, ModelRegistry


@pytest.fixture
def registry(tmp_path) -> ModelRegistry:
    return ModelRegistry(tmp_path / "models")


class TestPutGet:
    def test_roundtrip(self, registry, released_model):
        record = registry.put(released_model, dataset_id="d1", method="kendall")
        loaded = registry.get(record.model_id)
        assert loaded.schema == released_model.schema
        assert loaded.n_records == released_model.n_records
        np.testing.assert_allclose(loaded.correlation, released_model.correlation)

    def test_record_metadata(self, registry, released_model):
        record = registry.put(
            released_model, dataset_id="d1", method="kendall", extra={"k": 8.0}
        )
        fetched = registry.record(record.model_id)
        assert fetched.dataset_id == "d1"
        assert fetched.method == "kendall"
        assert fetched.epsilon == released_model.epsilon
        assert fetched.format_version == MODEL_FORMAT_VERSION
        assert fetched.extra["k"] == 8.0

    def test_sidecar_and_npz_on_disk(self, registry, released_model, tmp_path):
        record = registry.put(released_model, dataset_id="d1", method="kendall")
        assert (tmp_path / "models" / f"{record.model_id}.npz").exists()
        sidecar = tmp_path / "models" / f"{record.model_id}.json"
        assert json.loads(sidecar.read_text())["model_id"] == record.model_id

    def test_duplicate_id_rejected(self, registry, released_model):
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        with pytest.raises(ValueError, match="already registered"):
            registry.put(
                released_model, dataset_id="d", method="kendall", model_id="m1"
            )

    def test_invalid_id_rejected(self, registry, released_model):
        with pytest.raises(ValueError, match="invalid"):
            registry.put(
                released_model, dataset_id="d", method="kendall", model_id="../evil"
            )

    def test_unknown_id_raises_keyerror(self, registry):
        with pytest.raises(KeyError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.record("nope")


class TestPersistence:
    def test_survives_restart_without_refit(self, tmp_path, released_model):
        first = ModelRegistry(tmp_path / "models")
        record = first.put(released_model, dataset_id="d1", method="kendall")

        rebooted = ModelRegistry(tmp_path / "models")
        assert record.model_id in rebooted
        loaded = rebooted.get(record.model_id)
        np.testing.assert_allclose(loaded.correlation, released_model.correlation)
        sampled = loaded.sample(50, rng=3)
        assert sampled.n_records == 50

    def test_list_reads_sidecars_only(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models")
        registry.put(released_model, dataset_id="d1", method="kendall", model_id="m1")
        registry.put(released_model, dataset_id="d2", method="mle", model_id="m2")
        # Corrupt the NPZ payloads: listing must still work (lazy load).
        for npz in (tmp_path / "models").glob("*.npz"):
            npz.write_bytes(b"not an npz")
        fresh = ModelRegistry(tmp_path / "models")
        listed = fresh.list()
        assert {r.model_id for r in listed} == {"m1", "m2"}
        assert all(isinstance(r, ModelRecord) for r in listed)

    def test_orphaned_npz_invisible(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models")
        # Simulate a crash between the NPZ write and the sidecar write.
        (tmp_path / "models" / "orphan.npz").write_bytes(b"partial")
        assert "orphan" not in registry
        assert len(registry) == 0
        assert registry.list() == []


class TestLRUCache:
    def test_eviction_respects_bound(self, tmp_path, released_model):
        from repro.telemetry import metrics

        evictions = metrics.REGISTRY.counter("dpcopula_registry_evictions_total")
        before = evictions.value()
        registry = ModelRegistry(tmp_path / "models", max_cached_models=2)
        for model_id in ("m1", "m2", "m3"):
            registry.put(
                released_model, dataset_id="d", method="kendall", model_id=model_id
            )
        assert registry.cached_models() == 2
        assert evictions.value() == before + 1

    def test_evicted_model_reloads_from_disk(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models", max_cached_models=1)
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m2")
        # m1 was evicted; a get must transparently reload it.
        loaded = registry.get("m1")
        np.testing.assert_allclose(loaded.correlation, released_model.correlation)
        assert registry.cached_models() == 1

    def test_lru_order_touched_by_get(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models", max_cached_models=2)
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m2")
        registry.get("m1")  # m1 becomes most-recent; m2 is now the LRU
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m3")
        registry.get("m1")  # still cached: no disk load needed
        assert registry.cached_models() == 2

    def test_unbounded_cache(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models", max_cached_models=None)
        for i in range(5):
            registry.put(
                released_model, dataset_id="d", method="kendall", model_id=f"m{i}"
            )
        assert registry.cached_models() == 5

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_cached_models"):
            ModelRegistry(tmp_path / "models", max_cached_models=0)


class TestPlansAndHotSwap:
    def test_get_plan_compiled_once_and_cached(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models")
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        first = registry.get_plan("m1")
        assert first is registry.get_plan("m1")
        assert first.model_id == "m1"

    def test_plan_samples_bitwise_like_model(self, tmp_path, released_model):
        registry = ModelRegistry(tmp_path / "models")
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        plan = registry.get_plan("m1")
        np.testing.assert_array_equal(
            plan.sample(100, np.random.default_rng(3)).values,
            released_model.sample(100, rng=np.random.default_rng(3)).values,
        )


class TestMalformedModel:
    def test_margin_shorter_than_domain_fails_plan_and_names_attribute(self, tmp_path):
        """A model file whose margin misses domain values is never served."""
        schema = Schema([Attribute("a", 10), Attribute("b", 4)])
        model = ReleasedModel([np.ones(10), np.ones(4)], np.eye(2), schema, 50, 1.0)
        ModelRegistry(tmp_path / "models").put(
            model, dataset_id="d", method="kendall", model_id="m1"
        )
        tampered = ReleasedModel([np.ones(3), np.ones(4)], np.eye(2), schema, 50, 1.0)
        tampered.save(tmp_path / "models" / "m1.npz")
        with pytest.raises(ValueError, match="margin for 'a' covers 3 values"):
            ModelRegistry(tmp_path / "models").get_plan("m1")


def _put_in_child(models_dir, model):
    ModelRegistry(models_dir).put(
        model, dataset_id="d", method="kendall", model_id="m1"
    )


class TestAcrossProcesses:
    def test_model_put_by_another_process_samples_bitwise(
        self, tmp_path, released_model
    ):
        """A registry that never cached a model serves it from disk.

        This registry exists before a sibling process registers the
        model, so its first lookup loads and compiles the durable files.
        """
        import multiprocessing

        models_dir = tmp_path / "models"
        registry = ModelRegistry(models_dir)
        child = multiprocessing.get_context("fork").Process(
            target=_put_in_child, args=(models_dir, released_model)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0

        assert registry.cached_models() == 0
        np.testing.assert_array_equal(
            registry.get_plan("m1").sample(100, np.random.default_rng(5)).values,
            released_model.sample(100, rng=np.random.default_rng(5)).values,
        )

    def test_sidecar_written_by_an_older_version_serves_the_same_records(
        self, tmp_path, released_model
    ):
        """Older sidecars carry a key this version no longer writes."""
        from repro.service import ServiceConfig, SynthesisService

        config = ServiceConfig(data_dir=tmp_path / "data")
        config.ensure_layout()
        ModelRegistry(config.models_dir).put(
            released_model, dataset_id="d", method="kendall", model_id="m1"
        )
        sidecar = config.models_dir / "m1.json"
        current = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**current, "generation": 1}, indent=2))

        service = SynthesisService(config)
        try:
            assert service.registry.record("m1").to_dict() == current
            assert [r.model_id for r in service.registry.list()] == ["m1"]
            expected = released_model.sample(25, rng=np.random.default_rng(7))
            document = service.sample("m1", n=25, seed=7)
            assert document["records"] == expected.values.tolist()
            assert document["epsilon"] == current["epsilon"]
        finally:
            service.close()
