"""The durable fit-job journal: lifecycle records plus stage checkpoints.

A fit job is seconds-to-minutes of work that has *already charged* the
privacy accountant when it starts computing.  Losing the job to a
process restart would strand that ε — charged but yielding no model —
which is the worst possible failure for a one-shot-budget synthesizer
(the PrivSyn/Gaussian-copula deployment literature stresses exactly
this).  The journal makes jobs durable:

* ``<jobs-dir>/<job_id>.json`` — the job's lifecycle record, rewritten
  atomically on every transition (``queued`` → ``running`` → ``done`` /
  ``failed`` / ``cancelled`` / ``voided``).  The record is the job's only
  state: the service renders every job document from it, so every
  worker and every restart reads the same job.
* ``<jobs-dir>/<job_id>.<stage>.npz`` — per-stage checkpoints (the DP
  margin counts, the DP correlation matrix).  Stage outputs are
  themselves ε-paid releases, so persisting them leaks nothing beyond
  the release the job was charged for.

On startup the service replays the journal: ``queued``/``running``
jobs are re-enqueued and *resume* — completed stages are reloaded from
their checkpoints instead of recomputed — or are cleanly ``voided``
when resumption is impossible (e.g. the dataset is gone).  A torn
checkpoint (crash mid-write) is detected on load and treated as
absent: the stage recomputes from its per-stage seed, bitwise
identically.

The journal is also the control channel for cancellation: ``dpcopula
jobs --cancel`` (or ``POST /fits/<id>/cancel``) cancels a queued job
outright, or sets a flag in the record that the running fit polls at
stage boundaries.
"""

from __future__ import annotations

import io
import json
import threading
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.resilience import faults
from repro.telemetry import get_logger, metrics
from repro.utils import atomic_write_bytes, interprocess_lock

__all__ = ["JobJournal", "JobRecord", "JOB_STATES"]

_logger = get_logger("resilience.journal")

_JOB_STATE = metrics.REGISTRY.gauge(
    "dpcopula_jobs_state",
    "Journaled fit jobs by lifecycle state (label: state)",
)

#: Every lifecycle state a journaled job can be in.  ``voided`` means a
#: restart found the job unresumable (dataset gone, corrupt record) and
#: closed it out explicitly instead of leaving it dangling.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "voided")

_ACTIVE_STATES = ("queued", "running")


@dataclass
class JobRecord:
    """One journaled fit job."""

    job_id: str
    dataset_id: str
    method: str
    epsilon: float
    k: float
    seed: int
    state: str = "queued"
    charged: bool = False
    attempts: int = 0
    stages_done: List[str] = field(default_factory=list)
    stage_computed: Dict[str, int] = field(default_factory=dict)
    cancel_requested: bool = False
    model_id: Optional[str] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    updated_at: float = field(default_factory=time.time)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state not in _ACTIVE_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "dataset_id": self.dataset_id,
            "method": self.method,
            "epsilon": self.epsilon,
            "k": self.k,
            "seed": self.seed,
            "state": self.state,
            "charged": self.charged,
            "attempts": self.attempts,
            "stages_done": list(self.stages_done),
            "stage_computed": dict(self.stage_computed),
            "cancel_requested": self.cancel_requested,
            "model_id": self.model_id,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        return cls(
            job_id=str(payload["job_id"]),
            dataset_id=str(payload["dataset_id"]),
            method=str(payload["method"]),
            epsilon=float(payload["epsilon"]),
            k=float(payload["k"]),
            seed=int(payload["seed"]),
            state=str(payload.get("state", "queued")),
            charged=bool(payload.get("charged", False)),
            attempts=int(payload.get("attempts", 0)),
            stages_done=[str(s) for s in payload.get("stages_done", [])],
            stage_computed={
                str(k): int(v) for k, v in payload.get("stage_computed", {}).items()
            },
            cancel_requested=bool(payload.get("cancel_requested", False)),
            model_id=payload.get("model_id"),
            error=payload.get("error"),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            updated_at=float(payload.get("updated_at", 0.0)),
        )


class JobJournal:
    """Filesystem journal of fit jobs under one directory.

    All mutations go through a read-modify-write under :meth:`_locked`
    (a thread lock, then an ``fcntl.flock`` on ``<directory>/.lock``
    shared by every process of a pre-fork fleet) and land via atomic
    replace (temp file + fsync + ``os.replace``), so a crash at any
    instant leaves either the old record or the new record — never a
    torn one — and no process's write is lost to another's.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Outside list()'s ``*.json`` glob.
        self.lock_path = self.directory / ".lock"
        self._lock = threading.Lock()

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """This process's threads, then every process: one writer at a time."""
        with self._lock, interprocess_lock(self.lock_path):
            yield

    # -- paths ------------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def _stage_path(self, job_id: str, stage: str) -> Path:
        return self.directory / f"{job_id}.{stage}.npz"

    # -- lifecycle records ------------------------------------------------

    def create(self, record: JobRecord) -> JobRecord:
        with self._locked():
            path = self._record_path(record.job_id)
            if path.exists():
                raise ValueError(f"job {record.job_id!r} already journaled")
            self._write(record)
        return record

    def load(self, job_id: str) -> JobRecord:
        try:
            text = self._record_path(job_id).read_text()
        except FileNotFoundError:
            raise KeyError(f"no journaled job with id {job_id!r}") from None
        return JobRecord.from_dict(json.loads(text))

    def update(self, job_id: str, **fields: Any) -> JobRecord:
        """Atomically apply ``fields`` to the record and persist it."""
        with self._locked():
            return self._save(self.load(job_id), **fields)

    def start(self, job_id: str) -> Optional[JobRecord]:
        """Move a queued job to ``running`` and stamp ``started_at``.

        Returns the running record, or ``None`` when the job must not
        run: it is no longer queued (a cancel got there first), or a
        cancel was requested while it waited, in which case it is
        cancelled here.  The state check and the write happen under the
        journal's lock, so a queued job is either started or cancelled,
        never both, whichever processes race to do it.
        """
        with self._locked():
            record = self.load(job_id)
            if record.state != "queued":
                return None
            if record.cancel_requested:
                self._cancel(record)
                return None
            return self._save(
                record,
                state="running",
                attempts=record.attempts + 1,
                started_at=time.time(),
            )

    def mark_stage_computed(self, job_id: str, stage: str) -> JobRecord:
        """Count a stage *computation* (checkpoint loads don't count)."""
        with self._locked():
            record = self.load(job_id)
            record.stage_computed[stage] = record.stage_computed.get(stage, 0) + 1
            return self._save(record)

    def _save(self, record: JobRecord, **fields: Any) -> JobRecord:
        for name, value in fields.items():
            if not hasattr(record, name):
                raise AttributeError(f"JobRecord has no field {name!r}")
            setattr(record, name, value)
        record.updated_at = time.time()
        self._write(record)
        return record

    def _write(self, record: JobRecord) -> None:
        payload = (
            json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n"
        ).encode()
        atomic_write_bytes(self._record_path(record.job_id), payload)

    def delete(self, job_id: str) -> None:
        """Remove a record that never entered the queue (submit refused)."""
        with self._locked():
            try:
                self._record_path(job_id).unlink()
            except FileNotFoundError:
                pass

    def list(self) -> List[JobRecord]:
        """All journaled jobs, newest submission first."""
        records = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                records.append(JobRecord.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError):
                _logger.warning(
                    "skipping unreadable job record", extra={"path": str(path)}
                )
        records.sort(key=lambda r: r.submitted_at, reverse=True)
        return records

    def __contains__(self, job_id: str) -> bool:
        return self._record_path(job_id).exists()

    # -- cancellation -----------------------------------------------------

    def request_cancel(self, job_id: str) -> JobRecord:
        """Flag a job for cancellation; a queued job is cancelled at once.

        A queued job moves to ``cancelled`` in the same write (checked
        under the lock, like :meth:`start`); a running job stops at its
        next stage boundary.  Finished jobs are left untouched (the flag
        is recorded but has no effect).
        """
        with self._locked():
            return self._cancel(self.load(job_id))

    def _cancel(self, record: JobRecord) -> JobRecord:
        """:meth:`request_cancel`'s write (the journal's lock held)."""
        fields: Dict[str, Any] = {"cancel_requested": True}
        if record.state == "queued":
            fields.update(
                state="cancelled",
                error="cancelled before start",
                finished_at=time.time(),
            )
        return self._save(record, **fields)

    def cancel_requested(self, job_id: str) -> bool:
        try:
            return self.load(job_id).cancel_requested
        except KeyError:
            return False

    # -- stage checkpoints ------------------------------------------------

    def save_stage(self, job_id: str, stage: str, arrays: Dict[str, np.ndarray]) -> None:
        """Persist a stage's output arrays as an atomic NPZ checkpoint.

        The serialized payload passes through the ``journal.save_stage``
        fault point, so the chaos suite can simulate a torn write; a
        torn checkpoint is detected by :meth:`load_stage` and treated
        as absent.
        """
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        payload = faults.corrupt_bytes("journal.save_stage", buffer.getvalue())
        atomic_write_bytes(self._stage_path(job_id, stage), payload)

    def load_stage(self, job_id: str, stage: str) -> Optional[Dict[str, np.ndarray]]:
        """A stage's checkpoint arrays, or ``None`` if absent/corrupt."""
        path = self._stage_path(job_id, stage)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            _logger.warning(
                "discarding corrupt stage checkpoint",
                extra={"path": str(path), "error": f"{type(exc).__name__}: {exc}"},
            )
            return None

    def has_stage_checkpoints(self, job_id: str) -> bool:
        """Whether any persisted stage checkpoint exists for ``job_id``.

        Used by the refund guard: a stage NPZ on disk is a durable DP
        release even if the lifecycle record never got to mention it
        (e.g. a crash tore the record update), so its presence must
        veto a refund regardless of what the record claims.
        """
        return any(self.directory.glob(f"{job_id}.*.npz"))

    def drop_stages(self, job_id: str) -> None:
        """Delete a finished job's checkpoints (the model supersedes them)."""
        for path in self.directory.glob(f"{job_id}.*.npz"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # -- recovery ---------------------------------------------------------

    def recoverable(self) -> List[JobRecord]:
        """Jobs a restarted service should re-enqueue (oldest first)."""
        active = [r for r in self.list() if r.state in _ACTIVE_STATES]
        active.sort(key=lambda r: r.submitted_at)
        return active

    def void(self, job_id: str, reason: str) -> JobRecord:
        """Close out an unresumable job explicitly."""
        _logger.warning("voiding job", extra={"job_id": job_id, "reason": reason})
        return self.update(
            job_id, state="voided", error=reason, finished_at=time.time()
        )

    def refresh_state_gauge(self) -> None:
        """Point-in-time census of job states for ``/metrics``.

        Reads every record, so the service calls it when metrics are
        read, never on a job transition.
        """
        counts = {state: 0 for state in JOB_STATES}
        for record in self.list():
            if record.state in counts:
                counts[record.state] += 1
        for state, count in counts.items():
            _JOB_STATE.set(count, state=state)
