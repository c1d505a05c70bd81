"""The synthesis service: release once, serve forever.

:class:`SynthesisService` is the transport-agnostic core behind the
HTTP API (:mod:`repro.service.http`) and the ``dpcopula serve`` CLI.
It ties together the four stateful pieces:

* :class:`~repro.service.datasets.DatasetStore` — uploaded originals;
* :class:`~repro.service.accountant.PrivacyAccountant` — the durable
  per-dataset ε ledger;
* :class:`~repro.service.jobs.FitWorker` — background fitting;
* :class:`~repro.service.registry.ModelRegistry` — released models.

The privacy story in one sentence: fits charge the accountant *before*
touching the data and are refused once a dataset's lifetime ε cap is
reached, while sampling a registered model is pure post-processing
(paper §3.3 / Algorithm 3) and is therefore unmetered, unlimited and
safe to serve concurrently.

Resilience (docs/RELIABILITY.md): every fit job is journaled durably
(:class:`~repro.resilience.journal.JobJournal`) and follows one
protocol: charge (idempotent under the job id, so retries and restarts
never double-charge) → a durable noise mark in the job record → the
mechanisms → ``registry.put`` → the terminal write.  A fit that fails
before the mark is journaled terminal with its refund due, and only
then refunded.  On startup, due refunds are completed and interrupted
jobs rerun from scratch with their journaled seed, so a release is
bitwise the library's fit for that seed and costs one charge.

Pre-fork fleets (docs/SERVICE.md): when the config carries a
``worker_index``, exactly worker 0 — the **fit owner** — runs the fit
pool, startup recovery and a journal poller; every other worker serves
reads and sampling itself but *journals* fit submissions as ``queued``
records that the owner's poller picks up within a poll interval.  The
durable journal is thereby both the queue and the API: ``job_status`` /
``list_jobs`` / ``cancel_job`` read it on every worker, so any worker
answers for any job with the same document.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.dpcopula import DEFAULT_RATIO_K, DPCopulaKendall, DPCopulaMLE
from repro.engine import EngineOverloadedError, RequestCoalescer, SamplingEngine
from repro.io import ReleasedModel
from repro.resilience.journal import JobJournal, JobRecord
from repro.resilience.retry import RetryPolicy, call_with_retry, mark_no_retry
from repro.service.accountant import PrivacyAccountant, budget_overview
from repro.service.config import ServiceConfig
from repro.service.datasets import DatasetStore
from repro.service.errors import (
    BudgetRefusedError,
    NotFoundError,
    QueueFullError,
    ValidationError,
)
from repro.parallel import ExecutionContext
from repro.service.jobs import (
    FitCheckpoint,
    FitWorker,
    job_document,
    mark_refund_due,
)
from repro.service.registry import ModelRegistry
from repro.service.serializers import dataset_summary, dataset_to_rows
from repro.telemetry import (
    TraceExporter,
    configure_logging,
    get_logger,
    metrics,
    trace,
)

__all__ = ["SynthesisService", "FIT_METHODS"]

_logger = get_logger("service.app")

_FIT_SECONDS = metrics.REGISTRY.histogram(
    "dpcopula_fit_seconds",
    "End-to-end fit wall-clock seconds (label: method)",
)
_SAMPLE_SECONDS = metrics.REGISTRY.histogram(
    "dpcopula_sample_seconds",
    "Sample-request wall-clock seconds",
)
_SAMPLE_RECORDS = metrics.REGISTRY.counter(
    "dpcopula_sample_records_total",
    "Synthetic records served by the sampling endpoint",
)

#: Methods the service can fit.  The hybrid is deliberately absent: its
#: per-cell models are not captured by :class:`~repro.io.ReleasedModel`,
#: so it cannot be registered for later sampling (see cli.py for the
#: same restriction on ``--save-model``).
FIT_METHODS = {
    "kendall": DPCopulaKendall,
    "mle": DPCopulaMLE,
}

#: Upper bound on records per sample request; prevents a single request
#: from materializing an unbounded array in server memory.
MAX_SAMPLE_N = 1_000_000

#: Retry schedule for durable-state I/O around a fit (ledger appends,
#: registry writes).  These are idempotent — the ledger dedupes by job
#: key and the registry put is keyed by the deterministic model id — so
#: retrying transient filesystem errors is always safe.
IO_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.05, multiplier=4.0)

_JOBS_RECOVERED = metrics.REGISTRY.counter(
    "dpcopula_jobs_recovered_total",
    "Journaled fit jobs re-enqueued at service startup",
)
_EPS_REFUNDED = metrics.REGISTRY.counter(
    "dpcopula_epsilon_refunded_total",
    "Epsilon refunded for fits that failed before drawing any noise",
)


def _key_error_message(exc: KeyError) -> str:
    """The message inside a ``KeyError`` (``str()`` would re-quote it)."""
    return str(exc.args[0]) if exc.args else str(exc)


def _positive_number(name: str, value: Any) -> float:
    """``value`` as a finite positive float, else a 400.

    JSON booleans are Python ints, and ``1e309`` or ``NaN`` parse to
    non-finite floats; all of them are refused here, before anything is
    journaled or charged.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number) and number > 0:
                return number
    raise ValidationError(f"{name} must be a finite positive number, got {value!r}")


def _check_seed(seed: Any) -> None:
    """A 400 unless ``seed`` is null or an int ``np.random.default_rng`` takes."""
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ValidationError(
            f"seed must be a non-negative integer or null, got {seed!r}"
        )


class SynthesisService:
    """Application core for the DP synthesis server."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        configure_logging(config.log_level)
        config.ensure_layout()
        self.datasets = DatasetStore(config.datasets_dir)
        self.registry = ModelRegistry(
            config.models_dir, max_cached_models=config.model_cache_size
        )
        self.accountant = PrivacyAccountant(config.ledger_path, config.epsilon_cap)
        # The sampling engine: compiled plans from the registry;
        # concurrent requests may coalesce into one vectorized draw,
        # though over HTTP they rarely do (docs/PERFORMANCE.md).
        self.engine = SamplingEngine(
            self.registry.get_plan,
            coalescer=RequestCoalescer(
                window_seconds=config.coalesce_window_seconds,
                max_batch_records=config.max_coalesced_records,
                max_pending_requests=config.sample_queue_limit,
            ),
        )
        self.journal = JobJournal(config.jobs_dir)
        # One stateless execution context serves every fit worker; each
        # map_tasks call builds its own pool, so concurrent fits never
        # contend on shared executor state.
        self.context = ExecutionContext(
            backend=config.parallel_backend, max_workers=config.parallel_workers
        )
        self._poller_stop = threading.Event()
        self._poller: Optional[threading.Thread] = None
        # Held across journal-then-queue in submit_fit and across each
        # adoption pass, so the poller never adopts a record that
        # submit_fit is about to queue itself.
        self._submit_lock = threading.Lock()
        self._jobs_dir_mtime: Optional[int] = None
        if config.is_fit_owner:
            self.worker: Optional[FitWorker] = FitWorker(
                self._execute_fit,
                self.journal,
                max_workers=config.fit_workers,
                max_queue=config.max_queued_fits,
                job_timeout=config.fit_timeout_seconds,
                refund=self._refund,
            )
            self._recover_jobs()
            if config.multi_worker:
                # Followers journal fit submissions; the owner's poller
                # turns those durable records into queued work.
                self._poller = threading.Thread(
                    target=self._poll_follower_submissions,
                    name="dpcopula-fit-journal-poller",
                    daemon=True,
                )
                self._poller.start()
        else:
            # Follower worker: no fit pool — submissions are journaled
            # for the owner, everything else is served locally.
            self.worker = None
        self._metrics_flusher = None
        if config.multi_worker and config.worker_index is not None:
            from repro.telemetry.aggregate import MetricsFlusher

            self._metrics_flusher = MetricsFlusher(
                metrics.REGISTRY,
                config.metrics_dir,
                config.worker_index,
                interval=config.metrics_flush_seconds,
            ).start()
        # Durable trace export: completed request/fit traces append to a
        # per-worker JSONL ring under <data_dir>/traces/.
        self.trace_exporter: Optional[TraceExporter] = None
        if config.trace_export_enabled:
            self.trace_exporter = TraceExporter(
                config.traces_dir,
                worker_label=config.worker_label,
                max_bytes=config.trace_export_max_bytes,
                max_files=config.trace_export_files,
                slow_threshold=config.slow_request_seconds,
            ).install()
        # Continuous utility probes run on the fit owner only — one
        # prober per deployment — and publish results to
        # <data_dir>/observatory/ for every worker to serve.  The probe
        # object exists even with the loop disabled (interval 0) so
        # operators and tests can trigger on-demand cycles.
        self.probe = None
        if config.is_fit_owner:
            from repro.telemetry.observatory import UtilityProbe

            self.probe = UtilityProbe(
                self.registry,
                config.observatory_dir,
                worker_label=config.worker_label,
                sample_size=config.probe_sample_size,
                interval=config.probe_interval_seconds,
            )
            self.probe.start()

    # -- datasets ---------------------------------------------------------

    def upload_dataset(self, dataset_id: str, csv_text: str) -> Dict[str, Any]:
        """Validate, persist and summarize an uploaded CSV."""
        if not csv_text or not csv_text.strip():
            raise ValidationError("empty CSV upload")
        try:
            return self.datasets.put(dataset_id, csv_text)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    def inspect_dataset(self, dataset_id: str) -> Dict[str, Any]:
        """The shared ``inspect --json`` document plus accounting state."""
        try:
            dataset = self.datasets.get(dataset_id)
        except KeyError as exc:
            raise NotFoundError(_key_error_message(exc)) from exc
        summary = dataset_summary(dataset, name=dataset_id)
        summary["budget"] = self.accountant.summary(dataset_id)
        return summary

    def list_datasets(self) -> List[Dict[str, Any]]:
        return self.datasets.list()

    def budget_summary(self, dataset_id: str) -> Dict[str, Any]:
        if dataset_id not in self.datasets:
            raise NotFoundError(f"no dataset uploaded under id {dataset_id!r}")
        return self.accountant.summary(dataset_id)

    # -- fitting ----------------------------------------------------------

    def submit_fit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a fit request and enqueue it; returns the job document.

        The authoritative budget charge happens in the worker (under the
        accountant's lock, in submission order); this method fast-fails
        requests that *already* cannot fit so clients get an immediate
        409 instead of a failed job.
        """
        if not isinstance(payload, dict):
            raise ValidationError("fit request body must be a JSON object")
        dataset_id = payload.get("dataset_id")
        if not isinstance(dataset_id, str) or dataset_id not in self.datasets:
            raise NotFoundError(f"no dataset uploaded under id {dataset_id!r}")
        method = payload.get("method", "kendall")
        if method not in FIT_METHODS:
            supported = ", ".join(sorted(FIT_METHODS))
            detail = (
                " (the hybrid's per-cell models cannot be registered for "
                "later sampling)"
                if method == "hybrid"
                else ""
            )
            raise ValidationError(
                f"unsupported fit method {method!r}: the service fits "
                f"{supported}{detail}"
            )
        epsilon = _positive_number("epsilon", payload.get("epsilon", 1.0))
        k = _positive_number("k", payload.get("k", DEFAULT_RATIO_K))
        seed = payload.get("seed")
        _check_seed(seed)
        if not self.accountant.can_charge(dataset_id, epsilon):
            raise BudgetRefusedError(
                f"fit refused: ε={epsilon:.6g} exceeds the remaining "
                f"{self.accountant.remaining(dataset_id):.6g} of dataset "
                f"{dataset_id!r}'s lifetime cap "
                f"{self.accountant.epsilon_cap:.6g}"
            )
        if seed is None:
            # Resolve the seed *now* so it can be journaled: a rerun
            # after a crash must draw the exact same noise to release
            # bitwise the same model for the same charge.
            seed = int.from_bytes(os.urandom(8), "big")
        record = JobRecord(
            job_id=FitWorker.new_job_id(),
            dataset_id=dataset_id,
            method=method,
            epsilon=epsilon,
            k=k,
            seed=seed,
        )
        if self.worker is None:
            # Follower worker in a pre-fork fleet: the journal *is* the
            # queue.  Enforce the same waiting-job bound the owner's
            # in-memory queue would, then journal the record for the
            # owner's poller to pick up.
            bound = self.config.max_queued_fits
            if bound is not None:
                queued = sum(1 for r in self.journal.list() if r.state == "queued")
                if queued >= bound:
                    raise QueueFullError(
                        f"fit queue is full ({bound} jobs waiting); retry later",
                        retry_after=5.0,
                    )
            self.journal.create(record)
            _logger.info(
                "fit submission journaled for the fit owner",
                extra={"job_id": record.job_id, "dataset": dataset_id},
            )
            return job_document(record)
        # Journal before enqueueing so the worker can never observe an
        # unjournaled job; a queue-full refusal takes the record back.
        with self._submit_lock:
            self.journal.create(record)
            try:
                self.worker.submit(record)
            except BaseException:
                self.journal.delete(record.job_id)
                raise
        return job_document(record)

    def _recover_jobs(self) -> None:
        """Settle what a previous process left unfinished.

        Every refund a terminal record says is due is completed first
        (a no-op once the ledger holds it).  Jobs found ``queued`` or
        ``running`` are put back on the queue and rerun from scratch;
        their charges are deduplicated by the ledger, so recovery costs
        no extra ε.  Jobs whose dataset has vanished are explicitly
        ``voided``.
        """
        for record in self.journal.list():
            if record.finished and record.refund_due:
                self._refund(record)
        for record in self.journal.recoverable():
            if record.dataset_id not in self.datasets:
                self.journal.void(
                    record.job_id,
                    f"dataset {record.dataset_id!r} no longer exists",
                )
                continue
            self.journal.update(record.job_id, state="queued", started_at=None)
            self.worker.submit(record, force=True)
            _JOBS_RECOVERED.inc()
            _logger.info(
                "recovered journaled fit job",
                extra={
                    "job_id": record.job_id,
                    "dataset": record.dataset_id,
                    "noise_drawn": record.noise_drawn,
                },
            )

    #: How often the fit owner scans the journal for follower
    #: submissions (seconds).  A directory-mtime guard makes the idle
    #: cost one ``stat`` per interval.
    JOURNAL_POLL_SECONDS = 0.2

    def _poll_follower_submissions(self) -> None:
        """Fit-owner loop: adopt ``queued`` journal records it never saw.

        Followers create those records in :meth:`submit_fit`; recovery
        wrote the rest.  ``submit(force=True)`` bypasses the in-memory
        bound because the journal already admitted the job — refusing
        here would strand a record the client was told is queued.
        """
        while not self._poller_stop.wait(self.JOURNAL_POLL_SECONDS):
            try:
                mtime = os.stat(self.config.jobs_dir).st_mtime_ns
            except OSError:
                continue
            if mtime == self._jobs_dir_mtime:
                continue
            self._jobs_dir_mtime = mtime
            try:
                self._adopt_follower_submissions()
            except Exception:  # pragma: no cover - defensive
                _logger.exception("journal poll failed")

    def _adopt_follower_submissions(self) -> None:
        """One poll: queue every ``queued`` record this owner never accepted."""
        with self._submit_lock:
            for record in self.journal.list():
                if record.state != "queued" or self.worker.known(record.job_id):
                    continue
                self.worker.submit(record, force=True)
                _logger.info(
                    "adopted follower fit submission",
                    extra={"job_id": record.job_id},
                )

    def _execute_fit(self, job: JobRecord) -> str:
        """Worker entry point: charge the ledger, fit, register.

        Every service fit runs under an active trace: the spans feed the
        per-stage latency histograms, and the fit's provenance — wall
        clock, execution backend, worker budget — is persisted into the
        model's registry sidecar so ``GET /models/<id>`` (and the CLI's
        ``inspect --json``) can always answer *how was this released
        model produced?*

        The fit is the library's fit for the job's seed, plus the noise
        mark :class:`~repro.service.jobs.FitCheckpoint` journals before
        the first mechanism runs.  Every effect is idempotent keyed by
        the job id (the ledger charge, the deterministic ``m-<job_id>``
        model id), so a restarted service can rerun a job that was
        interrupted anywhere before its terminal write.
        """
        # Crash-after-register recovery: if a previous attempt got as
        # far as registering the model, the release already happened
        # and there is nothing left to do.
        model_id = f"m-{job.job_id}"
        if model_id in self.registry:
            return model_id
        try:
            dataset = self.datasets.get(job.dataset_id)
        except KeyError as exc:
            # A missing dataset cannot heal; don't let retry layers or
            # a restart loop chew on it.
            raise mark_no_retry(
                NotFoundError(_key_error_message(exc))
            ) from exc
        # Build the synthesizer before charging: a parameter it refuses
        # (e.g. a non-finite k in a journaled record) fails the job with
        # no ε spent.
        synthesizer = FIT_METHODS[job.method](
            job.epsilon, k=job.k, rng=job.seed, context=self.context
        )
        # Charge before fitting: once the mechanisms below see the data
        # the privacy loss is real, so an overdraft must stop us here.
        # The idempotency key makes re-attempts free: the first journaled
        # charge for this job id is the only one that ever counts.
        call_with_retry(
            lambda: self.accountant.charge(
                job.dataset_id,
                job.epsilon,
                label=f"fit:{job.method}:{job.job_id}",
                key=f"fit:{job.job_id}",
            ),
            IO_RETRY_POLICY,
            operation="accountant.charge",
        )
        started = time.perf_counter()
        try:
            if self.accountant.journaled(f"refund:{job.job_id}"):
                # Only a release that refunded before its terminal write
                # and crashed in between leaves this: the refund stands,
                # so the job must never draw noise.
                raise RuntimeError(
                    f"fit job {job.job_id!r} was refunded; it draws no noise"
                )
            with trace.trace_root("service.fit", method=job.method) as profile:
                synthesizer.fit(
                    dataset, checkpoint=FitCheckpoint(self.journal, job.job_id)
                )
        except Exception as exc:
            # The ε is charged.  It is owed back iff no attempt of this
            # job ever journaled the noise mark.
            if not self.journal.load(job.job_id).noise_drawn:
                mark_refund_due(exc)
            raise
        fit_seconds = time.perf_counter() - started
        _FIT_SECONDS.observe(fit_seconds, method=job.method)
        _logger.debug("fit profile", extra={"profile": profile.to_dict()})
        model = ReleasedModel.from_synthesizer(synthesizer)
        record = call_with_retry(
            lambda: self.registry.put(
                model,
                dataset_id=job.dataset_id,
                method=job.method,
                model_id=model_id,
                extra={
                    "k": job.k,
                    "job_id": job.job_id,
                    "fit_seconds": round(fit_seconds, 6),
                    "parallel_backend": self.context.backend,
                    "parallel_workers": self.context.max_workers,
                    "fit_workers": self.config.fit_workers,
                },
            ),
            IO_RETRY_POLICY,
            operation="registry.put",
        )
        return record.model_id

    def _refund(self, record: JobRecord) -> None:
        """Append a refund-due job's refund to the ledger (idempotent).

        Called by the fit worker right after the terminal write that
        set ``refund_due``, and again by startup recovery for every such
        record, so a refund cut short by a crash completes at the next
        start.
        """
        try:
            refunded = self.accountant.refund(
                record.dataset_id,
                record.epsilon,
                label=f"refund:{record.method}:{record.job_id}",
                key=f"refund:{record.job_id}",
            )
        except OSError:
            _logger.exception(
                "refund failed; it completes at the next start",
                extra={"job_id": record.job_id, "dataset": record.dataset_id},
            )
            return
        if refunded:
            _EPS_REFUNDED.inc(refunded)
            _logger.info(
                "epsilon refunded: fit ended before any noise was drawn",
                extra={
                    "job_id": record.job_id,
                    "dataset": record.dataset_id,
                    "epsilon": record.epsilon,
                    "cause": record.error,
                },
            )

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation of a fit job; returns its document.

        Queued jobs are cancelled at once; running jobs stop at their
        next stage boundary.  Finished jobs are left untouched (the flag
        is recorded but has no effect).
        """
        try:
            return job_document(self.journal.request_cancel(job_id))
        except KeyError as exc:
            raise NotFoundError(f"no fit job with id {job_id!r}") from exc

    def job_status(self, job_id: str) -> Dict[str, Any]:
        try:
            return job_document(self.journal.load(job_id))
        except KeyError as exc:
            raise NotFoundError(f"no fit job with id {job_id!r}") from exc

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Every journaled job's document, newest submission first."""
        return [job_document(record) for record in self.journal.list()]

    # -- models -----------------------------------------------------------

    def list_models(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.registry.list()]

    def model_info(self, model_id: str) -> Dict[str, Any]:
        try:
            return self.registry.record(model_id).to_dict()
        except KeyError as exc:
            raise NotFoundError(_key_error_message(exc)) from exc

    def sample(
        self,
        model_id: str,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Draw ``n`` synthetic records from a registered model.

        Served by the sampling engine: the model's compiled
        :class:`~repro.engine.plan.SamplerPlan` does the per-model work
        once, and concurrent requests may coalesce into one vectorized
        draw (rarely, over HTTP: docs/PERFORMANCE.md) — bitwise
        identical per request to an uncoalesced serial draw, so a
        seeded request always reproduces the same records.  Costs
        no privacy budget — this is post-processing of an
        already-released model.  ``records`` is a list of rows, or
        their JSON text as ``JSONBytes`` for large samples (see
        :func:`~repro.service.serializers.dataset_to_rows`).
        """
        try:
            record = self.registry.record(model_id)
        except KeyError as exc:
            raise NotFoundError(_key_error_message(exc)) from exc
        if n is None:
            n = record.n_records
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n must be a positive integer, got {n!r}")
        if n > MAX_SAMPLE_N:
            raise ValidationError(
                f"n={n} exceeds the per-request limit of {MAX_SAMPLE_N}; "
                "page your sampling across requests"
            )
        _check_seed(seed)
        started = time.perf_counter()
        try:
            synthetic = self.engine.sample(model_id, n, seed=seed)
        except KeyError as exc:
            # The model vanished between the sidecar read and the plan
            # lookup (concurrent delete): surface the same 404.
            raise NotFoundError(_key_error_message(exc)) from exc
        except EngineOverloadedError as exc:
            raise QueueFullError(str(exc), retry_after=exc.retry_after) from exc
        elapsed = time.perf_counter() - started
        _SAMPLE_SECONDS.observe(elapsed)
        _SAMPLE_RECORDS.inc(n)
        _logger.debug(
            "sampled records",
            extra={"model_id": model_id, "n": n, "seconds": round(elapsed, 6)},
        )
        result = dataset_to_rows(synthetic)
        result.update(
            {
                "model_id": model_id,
                "dataset_id": record.dataset_id,
                "epsilon": record.epsilon,
                "seed": seed,
                "privacy_cost": 0.0,
            }
        )
        return result

    # -- observability ----------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """JSON view of every registered metric (refreshes live gauges).

        In a pre-fork fleet the view aggregates every worker's snapshot
        file, with a ``worker`` label on each series — a scrape routed
        to any worker sees the whole fleet.
        """
        self._refresh_gauges()
        if self._metrics_flusher is not None:
            from repro.telemetry.aggregate import (
                aggregate_snapshot,
                read_worker_snapshots,
            )

            self._metrics_flusher.flush()
            return aggregate_snapshot(
                read_worker_snapshots(self.config.metrics_dir)
            )
        return metrics.REGISTRY.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text-exposition view of :meth:`metrics_snapshot`."""
        return metrics.render_prometheus(self.metrics_snapshot())

    def _refresh_gauges(self) -> None:
        # Queue depth is scrape-time state, not event-time state: refresh
        # it here so an idle-but-backed-up queue cannot go stale.
        queue_depth = (
            self.worker.queue_depth()
            if self.worker is not None
            else sum(1 for r in self.journal.list() if r.state == "queued")
        )
        metrics.REGISTRY.gauge(
            "dpcopula_fit_queue_depth",
            "Fit jobs waiting in the worker queue (excludes the running job)",
        ).set(queue_depth)
        metrics.REGISTRY.gauge(
            "dpcopula_engine_pending_requests",
            "Sample requests parked in the coalescer awaiting a batch",
        ).set(self.engine.pending())
        metrics.REGISTRY.gauge(
            "dpcopula_registry_cached_models",
            "Released models resident in the registry's LRU cache",
        ).set(self.registry.cached_models())
        self.journal.refresh_state_gauge()

    def observatory_snapshot(self) -> Dict[str, Any]:
        """The ``GET /debug/observatory`` document: fleet state at a glance.

        Aggregates the privacy-budget timelines, the latest utility-probe
        results (published by the fit owner's prober),
        the trace-ring inventory, and per-worker liveness — readable from
        any worker because everything flows through the shared data dir.
        """
        from repro.telemetry.export import list_trace_files
        from repro.telemetry.observatory import load_probe_document

        snapshot = self.metrics_snapshot()
        document: Dict[str, Any] = {
            "served_by": self.config.worker_label,
            "budget": budget_overview(
                self.config.data_dir, self.config.epsilon_cap
            ),
            "probes": load_probe_document(self.config.observatory_dir),
            "traces": {
                "enabled": self.trace_exporter is not None,
                "files": list_trace_files(self.config.traces_dir),
            },
            "requests_total": self._sum_counter(
                snapshot, "dpcopula_http_requests_total"
            ),
            "slow_requests_total": self._sum_counter(
                snapshot, "dpcopula_http_slow_requests_total"
            ),
            "traces_exported_total": self._sum_counter(
                snapshot, "dpcopula_traces_exported_total"
            ),
        }
        if self._metrics_flusher is not None:
            from repro.telemetry.aggregate import read_worker_snapshots

            self._metrics_flusher.flush()
            document["workers"] = [
                {
                    "worker": index,
                    "pid": doc.get("pid"),
                    "written_at": doc.get("written_at"),
                }
                for index, doc in sorted(
                    read_worker_snapshots(self.config.metrics_dir).items()
                )
            ]
        else:
            document["workers"] = [
                {"worker": self.config.worker_label, "pid": os.getpid()}
            ]
        return document

    @staticmethod
    def _sum_counter(snapshot: Dict[str, Any], name: str) -> float:
        """Total of a counter across all its series (and all workers)."""
        doc = snapshot.get(name)
        if not isinstance(doc, dict):
            return 0.0
        return float(
            sum(series.get("value", 0.0) for series in doc.get("series", []))
        )

    def healthz(self) -> Dict[str, Any]:
        """Liveness/readiness document; ``healthy`` is the 200/503 verdict.

        A service that cannot run fits (dead worker threads), cannot
        journal privacy spends (read-only ledger) or cannot register
        models (read-only models dir) is unhealthy: it would accept
        requests it can never honor — or worse, fit without accounting.
        Follower workers in a pre-fork fleet have no fit pool, so their
        ``fit_worker_alive`` check is vacuously true.
        """
        worker_alive = self.worker.alive() if self.worker is not None else True
        ledger_dir = self.config.ledger_path.parent
        ledger_writable = os.access(
            self.config.ledger_path
            if self.config.ledger_path.exists()
            else ledger_dir,
            os.W_OK,
        )
        models_writable = os.access(self.config.models_dir, os.W_OK)
        jobs_writable = os.access(self.config.jobs_dir, os.W_OK)
        checks = {
            "fit_worker_alive": worker_alive,
            "ledger_writable": ledger_writable,
            "models_dir_writable": models_writable,
            "jobs_dir_writable": jobs_writable,
        }
        return {
            "healthy": all(checks.values()),
            "checks": checks,
            "queue_depth": (
                self.worker.queue_depth() if self.worker is not None else 0
            ),
        }

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = False) -> None:
        """Stop the fit worker.

        ``drain=False`` (the default, and what SIGTERM uses) finishes
        the jobs currently running and leaves still-queued jobs in the
        durable journal, where the next start recovers them.
        ``drain=True`` processes the whole queue first.
        """
        self._poller_stop.set()
        if self._poller is not None:
            self._poller.join(timeout=5.0)
        if self.probe is not None:
            self.probe.stop()
        if self.worker is not None:
            self.worker.close(drain=drain)
        if self._metrics_flusher is not None:
            self._metrics_flusher.stop()
        if self.trace_exporter is not None:
            self.trace_exporter.uninstall()
