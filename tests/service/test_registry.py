"""Tests for the persistent model registry."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import Attribute, Schema
from repro.io import MODEL_FORMAT_VERSION, ReleasedModel
from repro.service.registry import ModelRecord, ModelRegistry
from repro.telemetry.metrics import REGISTRY


@pytest.fixture
def registry(tmp_path) -> ModelRegistry:
    return ModelRegistry(tmp_path / "models")


class FileSpy:
    """Records every stat and open of a ``.json`` file in one directory
    (a sidecar touch) and every ``ReleasedModel.load`` (an NPZ load)."""

    def __init__(self, monkeypatch, directory):
        self.directory = Path(directory)
        self.sidecar_touches = []
        self.npz_loads = []
        for name in ("open", "stat"):
            original = getattr(Path, name)

            def spy(path, *args, _name=name, _original=original, **kwargs):
                if path.parent == self.directory and path.suffix == ".json":
                    self.sidecar_touches.append((_name, path.name))
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, spy)
        load = ReleasedModel.load.__func__

        def spy_load(cls, path):
            self.npz_loads.append(Path(path).name)
            return load(cls, path)

        monkeypatch.setattr(ReleasedModel, "load", classmethod(spy_load))

    def reset(self):
        self.sidecar_touches.clear()
        self.npz_loads.clear()


def _sidecar_document(directory, model_id):
    """The record document a sidecar read serves, from the file itself."""
    text = (Path(directory) / f"{model_id}.json").read_text()
    return ModelRecord.from_dict(json.loads(text)).to_dict()


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


class TestResidentRecord:
    """A resident model's sample and record touch no file."""

    def test_put_model_samples_and_answers_without_reading_its_sidecar(
        self, service, released_model, monkeypatch
    ):
        service.registry.put(
            released_model, dataset_id="d1", method="kendall", model_id="m1",
            extra={"k": 8.0, "job_id": "j1"},
        )
        sidecar = json.loads((service.config.models_dir / "m1.json").read_text())
        spy = FileSpy(monkeypatch, service.config.models_dir)
        for seed in range(4):
            document = service.sample("m1", n=25, seed=seed)
            expected = released_model.sample(25, rng=np.random.default_rng(seed))
            assert document["records"] == expected.values.tolist()
            assert document["dataset_id"] == sidecar["dataset_id"]
            assert document["epsilon"] == sidecar["epsilon"]
        info = [service.model_info("m1") for _ in range(2)]
        assert spy.sidecar_touches == [] and spy.npz_loads == []
        assert info[0] == info[1] == sidecar

    def test_fitted_model_record_is_the_sidecar_read_byte_for_byte(
        self, service, csv_text, monkeypatch
    ):
        """The cached record keeps the sidecar's (sorted) extra order."""
        from tests.service.test_observability import upload_and_fit

        model_id = upload_and_fit(service, csv_text).model_id
        spy = FileSpy(monkeypatch, service.config.models_dir)
        served = json.dumps(service.model_info(model_id))
        document = service.sample(model_id, n=25, seed=3)
        assert spy.sidecar_touches == []
        expected = _sidecar_document(service.config.models_dir, model_id)
        assert served == json.dumps(expected)
        assert (document["dataset_id"], document["epsilon"]) == (
            expected["dataset_id"], expected["epsilon"]
        )

    def test_changing_a_document_does_not_change_the_next(
        self, service, released_model
    ):
        service.registry.put(
            released_model, dataset_id="d1", method="kendall", model_id="m1",
            extra={"k": 8.0, "nested": {"list": [1, 2]}},
        )
        first = service.model_info("m1")
        pristine = json.loads(json.dumps(first))
        first["schema"][0][1] = -1
        first["schema"].append(["ghost", 2])
        first["extra"]["k"] = "changed"
        first["extra"]["nested"]["list"].append(3)
        first["extra"]["added"] = True
        assert service.model_info("m1") == pristine
        assert service.registry.record("m1").to_dict() == pristine


class TestMissPaths:
    """A model that is not resident reads its sidecar once, and then
    serves the documents a resident one does."""

    def test_restarted_registry(self, tmp_path, released_model, monkeypatch):
        first = ModelRegistry(tmp_path / "models")
        first.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        before = first.record("m1").to_dict()

        rebooted = ModelRegistry(tmp_path / "models")
        spy = FileSpy(monkeypatch, tmp_path / "models")
        plan = rebooted.get_plan("m1")
        assert spy.sidecar_touches == [("open", "m1.json")]
        assert spy.npz_loads == ["m1.npz"]
        spy.reset()
        assert rebooted.record("m1").to_dict() == before
        assert rebooted.get_plan("m1") is plan
        assert spy.sidecar_touches == [] and spy.npz_loads == []

    def test_threads_load_one_npz_at_a_time(
        self, tmp_path, released_model, monkeypatch
    ):
        """``np.load`` parses each array header with ``ast``, which
        CPython 3.11 can fail (``SystemError``) on two threads at once,
        so four threads missing the cache together load in turn."""
        import threading
        import time

        first = ModelRegistry(tmp_path / "models")
        ids = [f"m{i}" for i in range(4)]
        for model_id in ids:
            first.put(released_model, dataset_id="d", method="kendall",
                      model_id=model_id)
        registry = ModelRegistry(tmp_path / "models")
        load, counting = ReleasedModel.load.__func__, threading.Lock()
        loading, most = [], []

        def counting_load(cls, path):
            with counting:
                loading.append(path)
                most.append(len(loading))
            try:
                time.sleep(0.02)  # long enough for the others to arrive
                return load(cls, path)
            finally:
                with counting:
                    loading.remove(path)

        monkeypatch.setattr(ReleasedModel, "load", classmethod(counting_load))
        start = threading.Barrier(len(ids))
        plans = {}

        def worker(model_id):
            start.wait()
            plans[model_id] = registry.get_plan(model_id).model_id

        threads = [threading.Thread(target=worker, args=(i,)) for i in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert plans == {model_id: model_id for model_id in ids}
        assert len(most) == len(ids) and max(most) == 1

    def test_threads_missing_the_cache_at_once_serve_their_own_models(
        self, tmp_path, released_model
    ):
        """Eight threads over four models and a two-model cache, each
        pairing ``record`` with ``get_plan``, so most lookups load."""
        import sys
        import threading

        first = ModelRegistry(tmp_path / "models")
        ids = [f"m{i}" for i in range(4)]
        for i, model_id in enumerate(ids):
            first.put(released_model, dataset_id=f"d{i}", method="kendall",
                      model_id=model_id)
        registry = ModelRegistry(tmp_path / "models", max_cached_models=2)
        errors = []

        def worker(offset):
            try:
                for step in range(40):
                    model_id = ids[(offset + step) % len(ids)]
                    record = registry.record(model_id)
                    plan = registry.get_plan(model_id)
                    if (record.model_id, plan.model_id) != (model_id, model_id):
                        errors.append((model_id, record.model_id, plan.model_id))
                    if registry.record(model_id).dataset_id != f"d{model_id[1:]}":
                        errors.append((model_id, "dataset"))
            except Exception as exc:  # reported below, with the thread's id
                errors.append((offset, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_model_put_by_a_forked_child(self, tmp_path, released_model, monkeypatch):
        import multiprocessing

        models_dir = tmp_path / "models"
        registry = ModelRegistry(models_dir)
        child = multiprocessing.get_context("fork").Process(
            target=_put_in_child, args=(models_dir, released_model)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0

        expected = _sidecar_document(models_dir, "m1")
        spy = FileSpy(monkeypatch, models_dir)
        registry.get_plan("m1")
        assert spy.sidecar_touches == [("open", "m1.json")]
        spy.reset()
        assert registry.record("m1").to_dict() == expected
        assert spy.sidecar_touches == [] and spy.npz_loads == []

    def test_evicted_model(self, tmp_path, released_model, monkeypatch):
        misses = REGISTRY.counter("dpcopula_plan_cache_misses_total")
        registry = ModelRegistry(tmp_path / "models", max_cached_models=1)
        registry.put(released_model, dataset_id="d1", method="kendall", model_id="m1")
        resident = registry.record("m1").to_dict()
        registry.put(released_model, dataset_id="d2", method="kendall", model_id="m2")
        misses_before = misses.value()

        spy = FileSpy(monkeypatch, tmp_path / "models")
        # record() of the evicted model: its sidecar only, nothing loaded,
        # cached or reordered.
        assert registry.record("m1").to_dict() == resident
        assert spy.sidecar_touches == [("open", "m1.json")]
        assert spy.npz_loads == []
        assert registry.cached_models() == 1
        assert misses.value() == misses_before
        spy.reset()
        assert registry.record("m2").dataset_id == "d2"  # still the resident one
        assert spy.sidecar_touches == []
        # The plan lookup reloads it: the sidecar once, with the NPZ.
        registry.get_plan("m1")
        assert spy.sidecar_touches == [("open", "m1.json")]
        assert spy.npz_loads == ["m1.npz"]
        assert misses.value() == misses_before + 1
        spy.reset()
        assert registry.record("m1").to_dict() == resident
        assert spy.sidecar_touches == []

    def test_restarted_service_serves_the_same_documents(
        self, tmp_path, csv_text, monkeypatch
    ):
        from repro.service import ServiceConfig, SynthesisService
        from tests.service.test_observability import upload_and_fit

        config = ServiceConfig(data_dir=tmp_path / "data", epsilon_cap=3.0)
        service = SynthesisService(config)
        try:
            model_id = upload_and_fit(service, csv_text).model_id
            info = json.dumps(service.model_info(model_id))
            samples = [
                json.dumps(service.sample(model_id, n=25, seed=s)) for s in range(3)
            ]
        finally:
            service.close()

        restarted = SynthesisService(config)
        try:
            spy = FileSpy(monkeypatch, config.models_dir)
            # The first request finds the model on disk: ``record`` reads
            # the sidecar and the plan lookup loads it with the NPZ.
            assert json.dumps(restarted.sample(model_id, n=25, seed=0)) == samples[0]
            assert spy.npz_loads == [f"{model_id}.npz"]
            spy.reset()
            assert json.dumps(restarted.model_info(model_id)) == info
            assert [
                json.dumps(restarted.sample(model_id, n=25, seed=s)) for s in range(3)
            ] == samples
            assert spy.sidecar_touches == [] and spy.npz_loads == []
        finally:
            restarted.close()

    def test_unknown_id_is_a_key_error_on_every_path(self, registry, released_model):
        registry.put(released_model, dataset_id="d", method="kendall", model_id="m1")
        for lookup in (registry.record, registry.get, registry.get_plan):
            with pytest.raises(KeyError, match="no model registered under id 'nope'"):
                lookup("nope")


_GOOD_SIDECAR = {
    "model_id": "bad",
    "dataset_id": "d",
    "method": "kendall",
    "epsilon": 1.0,
    "n_records": 200,
    "schema": [["a", 3], ["b", 4]],
    "created_at": 1.5,
    "format_version": MODEL_FORMAT_VERSION,
    "extra": {},
}


def _without(field):
    return lambda good: {key: value for key, value in good.items() if key != field}


#: Sidecar payloads ``ModelRecord.from_dict`` must refuse, by kind.
_MALFORMED_PAYLOADS = {
    "missing-method": _without("method"),
    "missing-schema": _without("schema"),
    "null-epsilon": lambda good: {**good, "epsilon": None},
    "text-n-records": lambda good: {**good, "n_records": "many"},
    "schema-of-numbers": lambda good: {**good, "schema": [1, 2]},
    "null-extra": lambda good: {**good, "extra": None},
    "list-not-object": lambda good: [good],
    "string-not-object": lambda good: "bad",
    "null-not-object": lambda good: None,
}


@pytest.fixture(params=sorted(_MALFORMED_PAYLOADS) + ["not-json"])
def bad_sidecar(request, tmp_path, released_model):
    """A models dir holding one good model and one malformed sidecar,
    ``bad.json``, beside a copy of the good model's NPZ."""
    models_dir = tmp_path / "data" / "models"
    ModelRegistry(models_dir).put(
        released_model, dataset_id="d", method="kendall", model_id="good"
    )
    if request.param == "not-json":
        text = '{"model_id": "bad", '
    else:
        good = json.loads((models_dir / "good.json").read_text())
        build = _MALFORMED_PAYLOADS[request.param]
        text = json.dumps(build({**good, "model_id": "bad"}))
    (models_dir / "bad.npz").write_bytes((models_dir / "good.npz").read_bytes())
    (models_dir / "bad.json").write_text(text)
    return models_dir


class TestMalformedSidecar:
    """One malformed sidecar hides no other model and is named when looked up."""

    @pytest.mark.parametrize("kind", sorted(_MALFORMED_PAYLOADS))
    def test_from_dict_names_the_model(self, kind):
        assert ModelRecord.from_dict(_GOOD_SIDECAR).to_dict() == _GOOD_SIDECAR
        payload = _MALFORMED_PAYLOADS[kind](_GOOD_SIDECAR)
        with pytest.raises(ValueError, match="malformed record for model 'bad'"):
            ModelRecord.from_dict(payload, "bad")
        if isinstance(payload, dict):  # the payload names itself
            with pytest.raises(ValueError, match="malformed record for model 'bad'"):
                ModelRecord.from_dict(payload)

    def test_list_skips_it_with_one_warning(self, bad_sidecar, caplog, monkeypatch):
        models_dir = bad_sidecar
        monkeypatch.setattr(logging.getLogger("dpcopula"), "propagate", True)
        with caplog.at_level("WARNING", logger="dpcopula"):
            listed = ModelRegistry(models_dir).list()
        assert [r.model_id for r in listed] == ["good"]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.message for r in warnings] == ["skipping unreadable model sidecar"]
        assert warnings[0].path == str(models_dir / "bad.json")

    def test_every_lookup_names_the_model(self, bad_sidecar):
        models_dir = bad_sidecar
        registry = ModelRegistry(models_dir)
        for lookup in (registry.record, registry.get_plan, registry.get):
            with pytest.raises(ValueError, match="malformed record for model 'bad'"):
                lookup("bad")
        assert registry.cached_models() == 0
        assert registry.get_plan("good").model_id == "good"

    def test_service_lists_the_good_model_and_names_the_bad_one(
        self, bad_sidecar, http_service
    ):
        models_dir = bad_sidecar
        service, client = http_service
        assert service.config.models_dir == models_dir
        assert [m["model_id"] for m in service.list_models()] == ["good"]
        status, body = client.get("/models")
        assert status == 200
        assert [m["model_id"] for m in body["models"]] == ["good"]
        for status, body in (
            client.get("/models/bad"),
            client.post("/models/bad/sample", {"n": 5}),
        ):
            assert status == 500
            assert "malformed record for model 'bad'" in body["error"]
        status, _ = client.post("/models/good/sample", {"n": 5, "seed": 1})
        assert status == 200

    def test_utility_probe_scores_the_good_model(self, bad_sidecar, tmp_path):
        from repro.telemetry.observatory import UtilityProbe

        models_dir = bad_sidecar
        document = UtilityProbe(
            ModelRegistry(models_dir), tmp_path / "obs", sample_size=64
        ).run_once()
        assert document["models_total"] == 1
        assert [m["model_id"] for m in document["models"]] == ["good"]
