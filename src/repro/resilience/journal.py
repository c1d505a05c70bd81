"""The durable fit-job journal: one lifecycle record per job.

A fit job is seconds-to-minutes of work that has *already charged* the
privacy accountant when it starts computing.  Losing the job to a
process restart would strand that ε — charged but yielding no model —
which is the worst possible failure for a one-shot-budget synthesizer
(the PrivSyn/Gaussian-copula deployment literature stresses exactly
this).  The journal makes jobs durable with one file per job:
``<jobs-dir>/<job_id>.json``, rewritten atomically on every transition
(``queued`` → ``running`` → ``done`` / ``failed`` / ``cancelled`` /
``voided``).  The record is the job's only state: the service renders
every job document from it, so every worker and every restart reads the
same job.

Two marks in the record carry the privacy protocol
(docs/RELIABILITY.md):

* ``noise_drawn`` is journaled once, before the fit's first mechanism
  sees the data.  From then on the ε is spent and the job is never
  refunded, whatever happens to it.
* ``refund_due`` is set by the terminal write of a charged job that
  ended without that mark, *before* its refund is appended to the
  ledger, so a restart can complete the refund and never resumes the
  job.

On startup the service replays the journal: ``queued``/``running``
jobs are re-enqueued and rerun from scratch with their journaled seed,
which redraws bitwise the noise an uninterrupted run draws, or are
cleanly ``voided`` when that is impossible (e.g. the dataset is gone).

The journal is also the control channel for cancellation: ``dpcopula
jobs --cancel`` (or ``POST /fits/<id>/cancel``) cancels a queued job
outright, or sets a flag in the record that the running fit polls at
stage boundaries.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

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
    attempts: int = 0
    noise_drawn: bool = False
    refund_due: bool = False
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
            "attempts": self.attempts,
            "noise_drawn": self.noise_drawn,
            "refund_due": self.refund_due,
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
        """Read a record; older records carry stage lists instead of
        ``noise_drawn``, and any computed stage in them means noise was
        drawn.

        A record that is not an object, lacks a required field or holds
        a field of the wrong type (``"seed": null``) raises
        ``ValueError`` naming the job: the fit worker skips such a job
        and :meth:`JobJournal.list` skips its record.
        """
        try:
            return cls(
                job_id=str(payload["job_id"]),
                dataset_id=str(payload["dataset_id"]),
                method=str(payload["method"]),
                epsilon=float(payload["epsilon"]),
                k=float(payload["k"]),
                seed=int(payload["seed"]),
                state=str(payload.get("state", "queued")),
                attempts=int(payload.get("attempts", 0)),
                noise_drawn=bool(
                    payload.get("noise_drawn")
                    or payload.get("stages_done")
                    or payload.get("stage_computed")
                ),
                refund_due=bool(payload.get("refund_due", False)),
                cancel_requested=bool(payload.get("cancel_requested", False)),
                model_id=payload.get("model_id"),
                error=payload.get("error"),
                submitted_at=float(payload.get("submitted_at", 0.0)),
                started_at=_optional_float(payload.get("started_at")),
                finished_at=_optional_float(payload.get("finished_at")),
                updated_at=float(payload.get("updated_at", 0.0)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            job_id = payload.get("job_id") if isinstance(payload, dict) else None
            raise ValueError(f"malformed record for job {job_id!r}: {exc!r}") from exc


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


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
            except ValueError:
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
