"""Background fit jobs.

Fitting a DPCopula model is seconds-to-minutes of work (Kendall matrix
estimation is the hot path) while sampling a registered model is
milliseconds.  Running fits inline in HTTP handler threads would let a
single fit monopolize the request pool, so fits go through a dedicated
worker: ``POST /fits`` enqueues and returns immediately with a job id,
and clients poll ``GET /fits/<id>`` until the job reports ``done`` (with
the registered model id), ``failed`` (with the error) or ``cancelled``.

Jobs are processed by a bounded pool of worker threads (default one).
Workers pull from a single FIFO queue, so jobs *start* — and charge the
accountant — in submission order; with one worker (the default) budget
refusals are fully deterministic, while a larger pool trades that for
throughput: near-simultaneous jobs racing the last slice of a dataset's
budget may charge in either order, but the accountant's lock keeps every
individual charge atomic and the ε cap inviolable either way.  Each
worker can additionally share one parallel
:class:`~repro.parallel.ExecutionContext` for the fit itself — contexts
are stateless, so a single context serves the whole pool.

Resilience (see docs/RELIABILITY.md):

* The queue is *bounded* (``max_queue``): submissions past the bound
  are refused with :class:`~repro.service.errors.QueueFullError`, which
  the HTTP layer maps to 429 + ``Retry-After``.
* A job's only state is its durable
  :class:`~repro.resilience.journal.JobRecord`: the worker queues job
  ids whose records are already journaled and writes each transition,
  with its timestamp, as one atomic journal write.  A restarted service
  re-enqueues interrupted jobs and resumes their fits from per-stage
  checkpoints via :class:`FitCheckpoint`.
* Jobs run under an optional wall-clock deadline (``job_timeout``),
  enforced cooperatively at fit-stage and parallel-task boundaries.
* Cancellation is cooperative too: the journal cancels a queued job
  outright, and its ``cancel_requested`` flag is honored at each stage
  boundary of a running one.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional, Set

import numpy as np

from repro.resilience.deadlines import Deadline, DeadlineExceeded, deadline_scope
from repro.resilience.journal import JobJournal, JobRecord
from repro.service.errors import JobCancelledError, QueueFullError
from repro.telemetry import bind_context, get_logger, metrics

__all__ = ["FitCheckpoint", "FitWorker", "job_document"]

_logger = get_logger("service.jobs")

_QUEUE_DEPTH = metrics.REGISTRY.gauge(
    "dpcopula_fit_queue_depth",
    "Fit jobs waiting in the worker queue (excludes the running job)",
)
_JOBS_TOTAL = metrics.REGISTRY.counter(
    "dpcopula_fit_jobs_total",
    "Finished fit jobs, by outcome (label: status)",
)
_FIT_ERRORS = metrics.REGISTRY.counter(
    "dpcopula_fit_errors_total",
    "Failed fits, by pipeline stage (label: stage)",
)
_QUEUE_REFUSALS = metrics.REGISTRY.counter(
    "dpcopula_fit_queue_refusals_total",
    "Fit submissions refused because the worker queue was full",
)

#: Retry-After hint (seconds) returned with queue-full refusals.
QUEUE_FULL_RETRY_AFTER = 5.0


def job_document(record: JobRecord) -> Dict[str, Any]:
    """The API's job document (``GET /fits/<id>``) for a journal record."""
    return {
        "job_id": record.job_id,
        "dataset_id": record.dataset_id,
        "method": record.method,
        "epsilon": record.epsilon,
        "k": record.k,
        "seed": record.seed,
        "status": record.state,
        "model_id": record.model_id,
        "error": record.error,
        "submitted_at": record.submitted_at,
        "started_at": record.started_at,
        "finished_at": record.finished_at,
        "cancel_requested": record.cancel_requested,
    }


class FitCheckpoint:
    """Journal-backed stage checkpoint store handed to ``fit()``.

    Adapts the :class:`~repro.resilience.journal.JobJournal` to the
    duck-typed ``load(stage)``/``save(stage, arrays)`` interface of
    :meth:`repro.core.dpcopula.DPCopulaSynthesizer.fit`, and doubles as
    the cooperative-cancellation poll point: every ``load`` (called at
    each stage boundary) checks the journal's cancel flag first and
    raises :class:`~repro.service.errors.JobCancelledError` when set.
    """

    def __init__(self, journal: JobJournal, job_id: str):
        self.journal = journal
        self.job_id = job_id

    def load(self, stage: str) -> Optional[Dict[str, np.ndarray]]:
        if self.journal.cancel_requested(self.job_id):
            raise JobCancelledError(
                f"fit job {self.job_id!r} cancelled before stage {stage!r}"
            )
        arrays = self.journal.load_stage(self.job_id, stage)
        if arrays is not None:
            _logger.info(
                "fit stage restored from checkpoint",
                extra={"job_id": self.job_id, "stage": stage},
            )
        return arrays

    def save(self, stage: str, arrays: Dict[str, np.ndarray]) -> None:
        # Journal the computation BEFORE persisting the noise-bearing
        # checkpoint.  A crash between the two then leaves a journal
        # that over-claims (stage marked computed, no checkpoint) —
        # which only blocks a refund and recomputes the stage bitwise
        # from its seed.  The opposite order would leave a durable DP
        # release on disk that the refund guard cannot see.
        self.journal.mark_stage_computed(self.job_id, stage)
        self.journal.save_stage(self.job_id, stage, arrays)
        record = self.journal.load(self.job_id)
        if stage not in record.stages_done:
            self.journal.update(
                self.job_id, stages_done=record.stages_done + [stage]
            )


class FitWorker:
    """A bounded pool of daemon threads draining a FIFO queue of fit jobs.

    Parameters
    ----------
    runner:
        Called with each job's running record once a worker picks it
        up; returns the registered model id.  Exceptions mark the job
        ``failed`` with the exception message and never kill the worker.
    journal:
        The durable :class:`~repro.resilience.journal.JobJournal` that
        holds every queued job's record and receives every transition.
    max_workers:
        Number of pool threads.  The default of 1 preserves strictly
        serial, submission-ordered processing (deterministic budget
        refusals); raise it to overlap independent fits.
    max_queue:
        Upper bound on *waiting* jobs; ``submit`` raises
        :class:`QueueFullError` beyond it.  ``None`` disables the bound.
    job_timeout:
        Per-job wall-clock deadline in seconds, installed around the
        runner with :func:`~repro.resilience.deadlines.deadline_scope`.
        ``None`` means unlimited.
    """

    _STOP = object()

    def __init__(
        self,
        runner: Callable[[JobRecord], str],
        journal: JobJournal,
        max_workers: int = 1,
        max_queue: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ):
        if int(max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue is not None and int(max_queue) < 1:
            raise ValueError(f"max_queue must be >= 1 or None, got {max_queue}")
        self._runner = runner
        self.journal = journal
        self.max_workers = int(max_workers)
        self.max_queue = int(max_queue) if max_queue is not None else None
        self.job_timeout = job_timeout
        self._queue: "queue.Queue" = queue.Queue()
        self._accepted: Set[str] = set()
        self._lock = threading.Lock()
        self._skip_pending = False
        self._threads = [
            threading.Thread(
                target=self._drain, name=f"dpcopula-fit-worker-{i}", daemon=True
            )
            for i in range(self.max_workers)
        ]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def new_job_id() -> str:
        return uuid.uuid4().hex[:12]

    def submit(self, job: JobRecord, force: bool = False) -> None:
        """Enqueue the already-journaled ``job``.

        Raises :class:`QueueFullError` when the waiting-job bound is
        reached: shedding load at submission keeps both the queue and
        the durable journal from growing without limit under a
        misbehaving client.  ``force`` bypasses the bound — used for
        startup recovery, where every journaled job must re-enter the
        queue regardless of its length.
        """
        with self._lock:
            if job.job_id in self._accepted:
                raise ValueError(f"job id {job.job_id!r} already submitted")
            if (
                not force
                and self.max_queue is not None
                and self._queue.qsize() >= self.max_queue
            ):
                _QUEUE_REFUSALS.inc()
                _logger.warning(
                    "fit submission refused: queue full",
                    extra={"job_id": job.job_id, "max_queue": self.max_queue},
                )
                raise QueueFullError(
                    f"fit queue is full ({self.max_queue} jobs waiting); "
                    "retry later",
                    retry_after=QUEUE_FULL_RETRY_AFTER,
                )
            self._accepted.add(job.job_id)
            # Enqueue under the same lock as the bound check: concurrent
            # submits could otherwise each pass the check before either
            # puts, overshooting max_queue.  The queue is unbounded at
            # the queue.Queue level, so this put never blocks.
            self._queue.put(job.job_id)
        _QUEUE_DEPTH.set(self._queue.qsize())
        _logger.info(
            "fit job queued",
            extra={
                "job_id": job.job_id,
                "dataset": job.dataset_id,
                "method": job.method,
                "epsilon": job.epsilon,
            },
        )

    def queue_depth(self) -> int:
        """Jobs waiting to start (the running job is not counted)."""
        return self._queue.qsize()

    def alive(self) -> bool:
        """Whether every pool thread is still draining the queue."""
        return all(thread.is_alive() for thread in self._threads)

    def known(self, job_id: str) -> bool:
        """Whether this worker has ever accepted ``job_id``.

        Used by the fit owner's journal poller to tell follower
        submissions it has not picked up yet from jobs already in its
        queue or history.
        """
        with self._lock:
            return job_id in self._accepted

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.02) -> JobRecord:
        """Block until ``job_id``'s journal record is terminal; return it.

        A test/CLI convenience; raises ``KeyError`` for a job the
        journal does not hold.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.journal.load(job_id)
            if record.finished:
                return record
            time.sleep(poll)
        raise TimeoutError(f"fit job {job_id!r} did not finish in {timeout}s")

    def close(self, timeout: float = 5.0, drain: bool = False) -> None:
        """Stop the pool (idempotent).

        ``drain=False`` (the default) stops each worker after its
        current job; still-queued jobs are *skipped in memory but left
        journaled as queued*, so a restarted service re-enqueues and
        runs them.  ``drain=True`` processes everything already queued
        before stopping.
        """
        if not drain:
            self._skip_pending = True
        for _ in self._threads:
            self._queue.put(self._STOP)
        for thread in self._threads:
            thread.join(timeout)

    # -- worker loop ------------------------------------------------------

    def _run_job(self, job: JobRecord) -> str:
        if self.job_timeout is None:
            return self._runner(job)
        with deadline_scope(Deadline.after(self.job_timeout)):
            return self._runner(job)

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is self._STOP:
                return
            _QUEUE_DEPTH.set(self._queue.qsize())
            if self._skip_pending:
                # Undrained shutdown: leave the job journaled as queued
                # so the next service start resumes it.
                _logger.info(
                    "skipping queued job at shutdown", extra={"job_id": job_id}
                )
                continue
            try:
                job = self.journal.start(job_id)
            except (KeyError, ValueError, OSError):
                # An unreadable record or a failed write: the job keeps
                # its last durable state, which startup recovery settles.
                _logger.exception(
                    "could not start fit job", extra={"job_id": job_id}
                )
                continue
            if job is None:
                _JOBS_TOTAL.inc(status="cancelled")
                _logger.info(
                    "fit job cancelled before start", extra={"job_id": job_id}
                )
                continue
            with bind_context(job_id=job_id):
                self._run(job)

    def _run(self, job: JobRecord) -> None:
        """Run a started job and journal its terminal transition.

        Counters, logs and checkpoint cleanup come first, so a reader
        who sees the terminal record sees a job whose work is complete.
        """
        _logger.info(
            "fit job started",
            extra={"dataset": job.dataset_id, "method": job.method},
        )
        try:
            model_id = self._run_job(job)
        except JobCancelledError as exc:
            outcome: Dict[str, Any] = {"state": "cancelled", "error": str(exc)}
            _logger.info(
                "fit job cancelled",
                extra={"dataset": job.dataset_id, "method": job.method},
            )
        except DeadlineExceeded as exc:
            outcome = {"state": "failed", "error": f"DeadlineExceeded: {exc}"}
            _FIT_ERRORS.inc(stage="deadline")
            _logger.warning(
                "fit job exceeded its deadline",
                extra={
                    "dataset": job.dataset_id,
                    "method": job.method,
                    "timeout": self.job_timeout,
                },
            )
        except Exception as exc:
            # The job record keeps the one-line summary for API clients;
            # the log carries the full traceback the summary swallows.
            outcome = {"state": "failed", "error": f"{type(exc).__name__}: {exc}"}
            _FIT_ERRORS.inc(stage="fit_job")
            _logger.exception(
                "fit job failed",
                extra={"dataset": job.dataset_id, "method": job.method},
            )
        else:
            outcome = {"state": "done", "model_id": model_id}
            self.journal.drop_stages(job.job_id)
            _logger.info(
                "fit job done",
                extra={
                    "dataset": job.dataset_id,
                    "method": job.method,
                    "model_id": model_id,
                    "seconds": round(time.time() - job.started_at, 6),
                },
            )
        _JOBS_TOTAL.inc(status=outcome["state"])
        try:
            self.journal.update(job.job_id, finished_at=time.time(), **outcome)
        except OSError:
            # The job stays at its last durable state (running) until
            # startup recovery settles it.
            _logger.exception("journal update failed", extra={"job_id": job.job_id})
