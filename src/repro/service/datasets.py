"""Store of uploaded original datasets.

Uploaded CSVs are the *sensitive* inputs: they are parsed and validated
on upload (schema header, domain bounds), persisted under the data
directory, and only ever read again by fit jobs.  The service never
returns original records over the API — only schema summaries and
privacy-paid synthetic samples leave the store.

Every pre-fork worker accepts uploads, and all of them share one
directory and one staging path per id, so :meth:`DatasetStore.put`
holds an ``fcntl.flock`` on ``<directory>/.lock`` from the free-id
check to the sidecar write: two workers can never both accept an id.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.data.dataset import Dataset
from repro.io import load_dataset_csv
from repro.service.config import PathLike, check_identifier
from repro.service.serializers import dataset_summary
from repro.utils import atomic_write_bytes, fsync_directory, interprocess_lock

__all__ = ["DatasetStore"]


class DatasetStore:
    """Filesystem-backed store: ``<directory>/<id>.csv`` + ``.json`` sidecar."""

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock_path = self.directory / ".lock"
        self._lock = threading.RLock()
        self._cache: Dict[str, Dataset] = {}

    def _csv_path(self, dataset_id: str) -> Path:
        return self.directory / f"{dataset_id}.csv"

    def _sidecar_path(self, dataset_id: str) -> Path:
        return self.directory / f"{dataset_id}.json"

    def put(self, dataset_id: str, csv_text: str) -> Dict[str, Any]:
        """Validate and persist an uploaded CSV; return its summary."""
        check_identifier("dataset", dataset_id)
        with self._lock, interprocess_lock(self.lock_path):
            if self._sidecar_path(dataset_id).exists():
                raise ValueError(f"dataset id {dataset_id!r} already exists")
            # Parse before persisting so malformed uploads leave no trace.
            staging = self.directory / f".{dataset_id}.upload.csv"
            with staging.open("w") as handle:
                handle.write(csv_text)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                dataset = load_dataset_csv(staging)
            except Exception:
                staging.unlink(missing_ok=True)
                raise
            staging.replace(self._csv_path(dataset_id))
            fsync_directory(self.directory)
            summary = dataset_summary(dataset, name=dataset_id)
            summary["uploaded_at"] = time.time()
            atomic_write_bytes(
                self._sidecar_path(dataset_id),
                (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode(),
            )
            self._cache[dataset_id] = dataset
        return summary

    def get(self, dataset_id: str) -> Dataset:
        """The parsed dataset, lazily loaded and cached."""
        with self._lock:
            cached = self._cache.get(dataset_id)
            if cached is not None:
                return cached
        if not self._sidecar_path(dataset_id).exists():
            raise KeyError(f"no dataset uploaded under id {dataset_id!r}")
        dataset = load_dataset_csv(self._csv_path(dataset_id))
        with self._lock:
            return self._cache.setdefault(dataset_id, dataset)

    def summary(self, dataset_id: str) -> Dict[str, Any]:
        """The upload-time summary sidecar."""
        sidecar = self._sidecar_path(dataset_id)
        if not sidecar.exists():
            raise KeyError(f"no dataset uploaded under id {dataset_id!r}")
        return json.loads(sidecar.read_text())

    def list(self) -> List[Dict[str, Any]]:
        """Summaries of all stored datasets, newest first."""
        summaries = [
            json.loads(sidecar.read_text())
            for sidecar in sorted(self.directory.glob("*.json"))
        ]
        summaries.sort(key=lambda s: s.get("uploaded_at", 0.0), reverse=True)
        return summaries

    def __contains__(self, dataset_id: str) -> bool:
        return self._sidecar_path(dataset_id).exists()
