"""Durable registry of released DPCopula models.

A fitted model is the *expensive* artifact: producing it consumed
privacy budget that can never be recovered.  Sampling from it is free
post-processing.  The registry therefore persists every released model
the moment a fit finishes — NPZ payload plus a JSON metadata sidecar —
and serves it forever, across process restarts, without refitting.

Listing reads only the lightweight sidecars; the NPZ payload is loaded
lazily on first sample and cached, so a registry with thousands of
models starts instantly.  The in-memory cache is **bounded**: at most
``max_cached_models`` entries stay resident, evicted least-recently-used
(evictions only drop the cached copy — the durable NPZ always remains,
so an evicted model silently reloads on next use).

Each cache entry carries the model's compiled
:class:`~repro.engine.plan.SamplerPlan` alongside the model itself —
the plan the sampling engine serves every request from, compiled once
per cached model and process.  A registered model is **immutable**: one
model id is one charged release.  :meth:`ModelRegistry.put` refuses an
id that exists and nothing rewrites a model's files afterwards, so a
cached plan never goes stale, and every process that loads the id — a
sibling pre-fork worker, a respawned one, a restarted server — compiles
the same plan from the same bytes.
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.engine.plan import SamplerPlan, compile_plan
from repro.io import MODEL_FORMAT_VERSION, ReleasedModel
from repro.service.config import PathLike, check_identifier
from repro.telemetry import metrics
from repro.utils import atomic_write_bytes

__all__ = ["ModelRecord", "ModelRegistry"]

_EVICTIONS = metrics.REGISTRY.counter(
    "dpcopula_registry_evictions_total",
    "Models dropped from the registry's in-memory LRU cache",
)
_PLAN_HITS = metrics.REGISTRY.counter(
    "dpcopula_plan_cache_hits_total",
    "Sampler-plan lookups served from the registry cache",
)
_PLAN_MISSES = metrics.REGISTRY.counter(
    "dpcopula_plan_cache_misses_total",
    "Sampler-plan lookups that had to (re)load and compile",
)


@dataclass(frozen=True)
class ModelRecord:
    """Metadata sidecar for one registered model."""

    model_id: str
    dataset_id: str
    method: str
    epsilon: float
    n_records: int
    schema: List[List[Any]]
    created_at: float
    format_version: int = MODEL_FORMAT_VERSION
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model_id": self.model_id,
            "dataset_id": self.dataset_id,
            "method": self.method,
            "epsilon": self.epsilon,
            "n_records": self.n_records,
            "schema": self.schema,
            "created_at": self.created_at,
            "format_version": self.format_version,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModelRecord":
        # Keys this version does not know are ignored, so sidecars
        # written by older versions still load.
        return cls(
            model_id=str(payload["model_id"]),
            dataset_id=str(payload["dataset_id"]),
            method=str(payload["method"]),
            epsilon=float(payload["epsilon"]),
            n_records=int(payload["n_records"]),
            schema=[list(pair) for pair in payload["schema"]],
            created_at=float(payload["created_at"]),
            format_version=int(payload.get("format_version", 1)),
            extra=dict(payload.get("extra", {})),
        )


@dataclass
class _CacheEntry:
    """One resident model plus its compiled sampler plan."""

    model: ReleasedModel
    plan: SamplerPlan


class ModelRegistry:
    """Filesystem-backed store of :class:`~repro.io.ReleasedModel`s.

    Layout: ``<directory>/<model_id>.npz`` (the released state, written
    atomically) next to ``<directory>/<model_id>.json`` (the sidecar).
    The sidecar is written *after* the NPZ, so a sidecar's existence
    implies a complete payload; orphaned NPZs from a crash mid-``put``
    are invisible and harmless.

    Parameters
    ----------
    directory:
        Where the NPZ payloads and sidecars live.
    max_cached_models:
        LRU bound on models (and their compiled plans) held in memory.
        ``None`` caches without bound (the pre-engine behavior).
    """

    DEFAULT_MAX_CACHED_MODELS = 128

    def __init__(
        self,
        directory: PathLike,
        max_cached_models: Optional[int] = DEFAULT_MAX_CACHED_MODELS,
    ):
        if max_cached_models is not None and max_cached_models < 1:
            raise ValueError(
                f"max_cached_models must be >= 1 or None, got {max_cached_models}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_cached_models = max_cached_models
        self._lock = threading.RLock()
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()

    def _npz_path(self, model_id: str) -> Path:
        return self.directory / f"{model_id}.npz"

    def _sidecar_path(self, model_id: str) -> Path:
        return self.directory / f"{model_id}.json"

    @staticmethod
    def new_model_id() -> str:
        return uuid.uuid4().hex[:12]

    def put(
        self,
        model: ReleasedModel,
        dataset_id: str,
        method: str,
        model_id: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> ModelRecord:
        """Persist ``model`` and return its registry record."""
        model_id = check_identifier(
            "model", model_id if model_id is not None else self.new_model_id()
        )
        record = ModelRecord(
            model_id=model_id,
            dataset_id=dataset_id,
            method=method,
            epsilon=model.epsilon,
            n_records=model.n_records,
            schema=[[a.name, a.domain_size] for a in model.schema],
            created_at=time.time(),
            extra=dict(extra or {}),
        )
        with self._lock:
            if self._sidecar_path(model_id).exists():
                raise ValueError(f"model id {model_id!r} already registered")
            # NPZ first, sidecar last: the sidecar commits the model.
            buffer = io.BytesIO()
            model.save(buffer)
            atomic_write_bytes(self._npz_path(model_id), buffer.getvalue())
            atomic_write_bytes(
                self._sidecar_path(model_id),
                (json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n").encode(),
            )
            self._install_locked(model_id, model)
        return record

    # -- cache machinery --------------------------------------------------

    def _install_locked(self, model_id: str, model: ReleasedModel) -> _CacheEntry:
        """Cache a model (compiling its plan) and enforce the LRU bound."""
        entry = _CacheEntry(model=model, plan=compile_plan(model, model_id))
        self._cache[model_id] = entry
        self._cache.move_to_end(model_id)
        while (
            self.max_cached_models is not None
            and len(self._cache) > self.max_cached_models
        ):
            self._cache.popitem(last=False)
            _EVICTIONS.inc()
        return entry

    def _hit_locked(self, model_id: str) -> Optional[_CacheEntry]:
        """The id's cached entry (touched as most recent), or ``None``."""
        entry = self._cache.get(model_id)
        if entry is not None:
            self._cache.move_to_end(model_id)
            _PLAN_HITS.inc()
        return entry

    def _entry(self, model_id: str) -> _CacheEntry:
        """The id's cache entry, loading + compiling on miss (LRU touch)."""
        with self._lock:
            entry = self._hit_locked(model_id)
        if entry is not None:
            return entry
        if model_id not in self:
            raise KeyError(f"no model registered under id {model_id!r}")
        model = ReleasedModel.load(self._npz_path(model_id))
        with self._lock:
            # Another thread may have installed the model while we read
            # the NPZ; keep its entry (and plan identity).
            entry = self._hit_locked(model_id)
            if entry is None:
                _PLAN_MISSES.inc()
                entry = self._install_locked(model_id, model)
            return entry

    def cached_models(self) -> int:
        """Models currently resident in the LRU cache."""
        with self._lock:
            return len(self._cache)

    def record(self, model_id: str) -> ModelRecord:
        """The metadata sidecar for ``model_id`` (no NPZ load)."""
        sidecar = self._sidecar_path(model_id)
        if not sidecar.exists():
            raise KeyError(f"no model registered under id {model_id!r}")
        return ModelRecord.from_dict(json.loads(sidecar.read_text()))

    def get(self, model_id: str) -> ReleasedModel:
        """The released model itself, lazily loaded and cached."""
        return self._entry(model_id).model

    def get_plan(self, model_id: str) -> SamplerPlan:
        """The model's compiled sampler plan (the engine's plan provider).

        Compiled once per cached model.
        """
        return self._entry(model_id).plan

    def list(self) -> List[ModelRecord]:
        """All registered models, newest first, from sidecars only."""
        records = [
            ModelRecord.from_dict(json.loads(sidecar.read_text()))
            for sidecar in sorted(self.directory.glob("*.json"))
        ]
        records.sort(key=lambda r: r.created_at, reverse=True)
        return records

    def __contains__(self, model_id: str) -> bool:
        return self._sidecar_path(model_id).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
