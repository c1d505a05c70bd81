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

Each cache entry carries the model's sidecar record and its compiled
:class:`~repro.engine.plan.SamplerPlan` alongside the model itself —
the plan the sampling engine serves every request from, compiled once
per cached model and process.  A resident model's record and plan are
served from memory, so sampling it or reading its record touches no
file; only listing and lookups of models that are not resident read
sidecars.  A registered model is **immutable**: one model id is one
charged release.  :meth:`ModelRegistry.put` refuses an id that exists
and nothing rewrites a model's files afterwards, so a cached record or
plan never goes stale, and every process that loads the id — a sibling
pre-fork worker, a respawned one, a restarted server — reads the same
record and compiles the same plan from the same bytes.
"""

from __future__ import annotations

import copy
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
from repro.telemetry import get_logger, metrics
from repro.utils import atomic_write_bytes

__all__ = ["ModelRecord", "ModelRegistry"]

_logger = get_logger("service.registry")

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
    """Metadata sidecar for one registered model.

    A registry shares one record per resident model among its callers,
    so :meth:`to_dict` hands out copies of ``schema`` and ``extra``.
    """

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
            "schema": [list(pair) for pair in self.schema],
            "created_at": self.created_at,
            "format_version": self.format_version,
            "extra": copy.deepcopy(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Any, model_id: Optional[str] = None) -> "ModelRecord":
        """Read a sidecar's JSON object.

        Keys this version does not know are ignored, so sidecars written
        by older versions still load.  A payload that is not an object,
        lacks a required field or holds one of the wrong type raises
        ``ValueError`` naming the model: ``model_id`` when given (the
        registry passes the id it looked up), else the payload's own.
        """
        try:
            return cls(
                model_id=str(payload["model_id"]),
                dataset_id=str(payload["dataset_id"]),
                method=str(payload["method"]),
                epsilon=float(payload["epsilon"]),
                n_records=int(payload["n_records"]),
                schema=[[str(name), int(size)] for name, size in payload["schema"]],
                created_at=float(payload["created_at"]),
                format_version=int(payload.get("format_version", 1)),
                extra=dict(payload.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if model_id is None and isinstance(payload, dict):
                model_id = payload.get("model_id")
            raise _malformed(model_id, exc) from exc


def _malformed(model_id: Optional[str], exc: Exception) -> ValueError:
    return ValueError(f"malformed record for model {model_id!r}: {exc!r}")


@dataclass
class _CacheEntry:
    """One resident model with its sidecar record and compiled plan."""

    record: ModelRecord
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
        # One NPZ load at a time: ``np.load`` parses each array header
        # with ``ast``, and CPython 3.11 can raise ``SystemError`` ("AST
        # constructor recursion depth mismatch") when threads do that at
        # once.  Loads happen only on a cache miss.
        self._load_lock = threading.Lock()

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
            sidecar = json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n"
            atomic_write_bytes(self._sidecar_path(model_id), sidecar.encode())
            # Cache the record a sidecar read returns (JSON types, sorted
            # extras), so a resident model serves the same documents as
            # one loaded from disk.
            self._install_locked(
                model_id, ModelRecord.from_dict(json.loads(sidecar)), model
            )
        return record

    # -- cache machinery --------------------------------------------------

    def _install_locked(
        self, model_id: str, record: ModelRecord, model: ReleasedModel
    ) -> _CacheEntry:
        """Cache a model (compiling its plan) and enforce the LRU bound."""
        entry = _CacheEntry(
            record=record, model=model, plan=compile_plan(model, model_id)
        )
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
        """The id's cache entry, loading + compiling on miss (LRU touch).

        A miss reads the sidecar once, then the NPZ (under the load
        lock, outside the cache lock).
        """
        with self._lock:
            entry = self._hit_locked(model_id)
        if entry is not None:
            return entry
        record = self._read_record(model_id)
        with self._load_lock:
            model = ReleasedModel.load(self._npz_path(model_id))
        with self._lock:
            # Another thread may have installed the model while we read
            # its files; keep its entry (and plan identity).
            entry = self._hit_locked(model_id)
            if entry is None:
                _PLAN_MISSES.inc()
                entry = self._install_locked(model_id, record, model)
            return entry

    def _read_record(self, model_id: str) -> ModelRecord:
        """Parse the id's sidecar: ``KeyError`` when there is none,
        ``ValueError`` naming the model when it is malformed."""
        try:
            payload = json.loads(self._sidecar_path(model_id).read_bytes())
        except FileNotFoundError:
            raise KeyError(f"no model registered under id {model_id!r}") from None
        except ValueError as exc:  # not JSON
            raise _malformed(model_id, exc) from exc
        return ModelRecord.from_dict(payload, model_id)

    def cached_models(self) -> int:
        """Models currently resident in the LRU cache."""
        with self._lock:
            return len(self._cache)

    def record(self, model_id: str) -> ModelRecord:
        """The metadata record for ``model_id`` (never loads the NPZ).

        A resident model's record is served from its cache entry,
        touching no file.  Otherwise the sidecar is read, and nothing is
        cached, compiled or touched in the LRU order.  Raises
        ``KeyError`` for an unknown id and ``ValueError`` naming the
        model for a malformed sidecar.
        """
        with self._lock:
            entry = self._cache.get(model_id)
        if entry is not None:
            return entry.record
        return self._read_record(model_id)

    def get(self, model_id: str) -> ReleasedModel:
        """The released model itself, lazily loaded and cached."""
        return self._entry(model_id).model

    def get_plan(self, model_id: str) -> SamplerPlan:
        """The model's compiled sampler plan (the engine's plan provider).

        Compiled once per cached model.
        """
        return self._entry(model_id).plan

    def list(self) -> List[ModelRecord]:
        """All registered models, newest first, from sidecars only.

        A malformed sidecar is skipped with a warning, so it hides no
        other model.
        """
        records = []
        for sidecar in sorted(self.directory.glob("*.json")):
            try:
                records.append(self._read_record(sidecar.stem))
            except ValueError as exc:
                _logger.warning(
                    "skipping unreadable model sidecar",
                    extra={"path": str(sidecar), "error": str(exc)},
                )
        records.sort(key=lambda r: r.created_at, reverse=True)
        return records

    def __contains__(self, model_id: str) -> bool:
        return self._sidecar_path(model_id).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
