"""Configuration and on-disk layout of the synthesis service.

Everything the service persists lives under one data directory::

    <data_dir>/
        datasets/<id>.csv      uploaded integer-coded datasets
        datasets/<id>.json     dataset metadata sidecars
        models/<id>.npz        released DPCopula models (versioned NPZ)
        models/<id>.json       model metadata sidecars
        jobs/<id>.json         durable fit-job journal records
        jobs/<id>.<stage>.npz  fit stage checkpoints (resume-after-crash)
        ledger.jsonl           append-only privacy-spend journal
        traces/trace-*.jsonl   per-worker trace-export ring files
        observatory/           utility-probe results + drift events
        metrics/worker-*.json  per-worker metrics snapshots (pre-fork)

The layout is deliberately plain files: a data curator can audit the
ledger with ``cat``, copy a model NPZ out for offline use, or back the
whole directory up with ``rsync``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

PathLike = Union[str, Path]

#: Identifiers for datasets and models: filesystem- and URL-safe.
IDENTIFIER_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Default per-dataset privacy cap for :class:`PrivacyAccountant`.
DEFAULT_EPSILON_CAP = 10.0


def check_identifier(kind: str, value: str) -> str:
    """Validate a dataset/model identifier; raise ``ValueError`` if unsafe."""
    if not isinstance(value, str) or not IDENTIFIER_PATTERN.match(value):
        raise ValueError(
            f"{kind} id {value!r} is invalid: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return value


@dataclass(frozen=True)
class ServiceConfig:
    """Settings for a :class:`~repro.service.app.SynthesisService`.

    Parameters
    ----------
    data_dir:
        Root directory for datasets, models and the privacy ledger.
        Created (with parents) if missing.
    epsilon_cap:
        Per-dataset lifetime privacy cap enforced by the accountant.
        Fits whose ``ε`` would push a dataset's cumulative spend past
        this cap are refused.
    fit_workers:
        Size of the background fit-worker pool.  1 (the default) keeps
        strictly serial, submission-ordered fitting; more workers
        overlap independent fits at the cost of deterministic refusal
        order near the budget cap (see :mod:`repro.service.jobs`).
    parallel_backend:
        :class:`~repro.parallel.ExecutionContext` backend every fit
        uses for its internal hot loops (pairwise tau, per-block MLE):
        ``"serial"``, ``"thread"`` or ``"process"``.
    parallel_workers:
        Worker budget for ``parallel_backend``; ``None`` uses the CPUs
        available to the server process.
    log_level:
        Structured-logging level for the ``dpcopula`` namespace
        (``"debug"`` … ``"error"``, or ``"off"``/``None`` for silent).
        The ``DPCOPULA_LOG`` environment variable overrides this, so an
        operator can turn a deployment up to ``debug`` without a config
        change.
    max_queued_fits:
        Upper bound on fit jobs waiting in the worker queue.  Submissions
        beyond it are refused with HTTP 429 + ``Retry-After`` instead of
        growing the queue (and the journal) without bound.  ``None``
        disables the bound.
    fit_timeout_seconds:
        Wall-clock deadline for a single fit job.  The fit checks it
        cooperatively at stage and task boundaries and fails with
        ``DeadlineExceeded`` when it lapses.  ``None`` (default) means
        no deadline.
    request_timeout_seconds:
        Per-connection socket timeout for the HTTP server: a client that
        stalls mid-request is disconnected instead of pinning a handler
        thread forever.  ``None`` disables the timeout.
    coalesce_window_seconds:
        How long the sampling engine holds a batch open for concurrent
        sample requests to join (see :mod:`repro.engine.coalesce`).
        ``0`` (the default) adds no idle latency — requests still
        coalesce whenever they arrive while a batch executes.
    max_coalesced_records:
        Record budget per coalesced sampling batch; bounds the transient
        work arrays one vectorized draw materializes.
    sample_queue_limit:
        Bound on sample requests parked in the coalescer across all
        models.  Arrivals beyond it get HTTP 429 + ``Retry-After``.
        ``None`` disables the bound.
    model_cache_size:
        LRU bound on released models (and their compiled plans) the
        registry keeps in memory.  ``None`` caches without bound.
    workers:
        Number of pre-fork HTTP worker processes the deployment runs.
        1 (the default) is the single-process server.  The value is
        recorded on every worker's config so each process knows the
        fleet size (metrics aggregation, journal polling).
    worker_index:
        This process's index within a pre-fork fleet, or ``None`` for
        the single-process server.  Worker 0 is the **fit owner**: it
        runs the background fit pool and startup job recovery; other
        workers journal fit submissions for the owner to pick up and
        serve everything else (sampling, reads) themselves.
    metrics_flush_seconds:
        How often each pre-fork worker flushes its metrics snapshot to
        ``<data_dir>/metrics/worker-<index>.json`` for cross-worker
        aggregation by ``GET /metrics``.
    slow_request_seconds:
        Requests slower than this are logged at ``warning`` with their
        request id and counted in ``dpcopula_http_slow_requests_total``;
        their exported traces are flagged ``slow``.  ``None`` disables
        slow-request detection.
    latency_buckets:
        Override for the default latency-histogram bucket boundaries
        (seconds, any order).  ``None`` keeps the built-in 1 ms–5 min
        spread.  The ``DPCOPULA_LATENCY_BUCKETS`` environment variable
        (comma-separated seconds) wins over this field.
    trace_export_enabled:
        Whether completed trace roots (per-request traces, service
        fits) are appended to the durable per-worker JSONL ring under
        ``<data_dir>/traces/``.
    trace_export_max_bytes / trace_export_files:
        Ring geometry per worker: the active file rotates when it would
        exceed ``max_bytes``, keeping at most ``files`` files.
    probe_interval_seconds:
        Period of the continuous utility-probe loop on the fit-owner
        worker.  ``0`` (the default) disables the background loop; the
        probe object still exists for on-demand cycles.
    probe_sample_size:
        Records drawn per model per probe cycle (deterministic seed, so
        repeated probes of one generation are bitwise identical).
    probe_drift_threshold:
        A generation hot-swap whose released statistics shift by more
        than this (TVD on margins, |Δρ| on dependence) emits a
        structured drift event.
    """

    data_dir: PathLike
    epsilon_cap: float = DEFAULT_EPSILON_CAP
    fit_workers: int = 1
    parallel_backend: str = "serial"
    parallel_workers: Optional[int] = None
    log_level: Optional[str] = None
    max_queued_fits: Optional[int] = 32
    fit_timeout_seconds: Optional[float] = None
    request_timeout_seconds: Optional[float] = 30.0
    coalesce_window_seconds: float = 0.0
    max_coalesced_records: int = 262_144
    sample_queue_limit: Optional[int] = 256
    model_cache_size: Optional[int] = 128
    workers: int = 1
    worker_index: Optional[int] = None
    metrics_flush_seconds: float = 1.0
    slow_request_seconds: Optional[float] = 1.0
    latency_buckets: Optional[Tuple[float, ...]] = None
    trace_export_enabled: bool = True
    trace_export_max_bytes: int = 4 * 1024 * 1024
    trace_export_files: int = 2
    probe_interval_seconds: float = 0.0
    probe_sample_size: int = 512
    probe_drift_threshold: float = 0.05

    @property
    def root(self) -> Path:
        return Path(self.data_dir)

    @property
    def datasets_dir(self) -> Path:
        return self.root / "datasets"

    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def metrics_dir(self) -> Path:
        return self.root / "metrics"

    @property
    def traces_dir(self) -> Path:
        return self.root / "traces"

    @property
    def observatory_dir(self) -> Path:
        return self.root / "observatory"

    @property
    def ledger_path(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def worker_label(self) -> str:
        """This process's label in trace files and metric aggregation."""
        return "main" if self.worker_index is None else str(self.worker_index)

    @property
    def is_fit_owner(self) -> bool:
        """Whether this process runs the fit pool and job recovery.

        The single-process server (``worker_index is None``) always
        owns fitting; in a pre-fork fleet exactly worker 0 does, so the
        durable job journal has one writer for lifecycle transitions
        while every worker can still accept submissions.
        """
        return self.worker_index is None or self.worker_index == 0

    @property
    def multi_worker(self) -> bool:
        """Whether this config describes a pre-fork fleet member."""
        return self.workers > 1

    def ensure_layout(self) -> None:
        """Create the data directory tree if it does not exist."""
        self.datasets_dir.mkdir(parents=True, exist_ok=True)
        self.models_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
