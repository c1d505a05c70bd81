"""Configuration and on-disk layout of the synthesis service.

Everything the service persists lives under one data directory::

    <data_dir>/
        datasets/<id>.csv      uploaded integer-coded datasets
        datasets/<id>.json     dataset metadata sidecars
        models/<id>.npz        released DPCopula models (versioned NPZ)
        models/<id>.json       model metadata sidecars
        jobs/<id>.json         durable fit-job journal records
        jobs/.lock             the journal's inter-process lock
        ledger.jsonl           append-only privacy-spend journal
        traces/trace-*.jsonl   per-worker trace-export ring files
        observatory/           utility-probe results
        metrics/worker-*.json  per-worker metrics snapshots (pre-fork)

The layout is deliberately plain files: a data curator can audit the
ledger with ``cat``, copy a model NPZ out for offline use, or back the
whole directory up with ``rsync``.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.parallel import BACKENDS

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


def _setting(
    default: Any = MISSING,
    help: Optional[str] = None,
    *,
    flag: Optional[str] = None,
    type: Optional[Callable[[str], Any]] = None,
    at_least: Optional[float] = None,
    above: Optional[float] = None,
    zero_off: bool = False,
    resolve: Optional[Callable[[Any], Any]] = None,
    choices: Optional[Tuple[str, ...]] = None,
    metavar: Optional[str] = None,
) -> Any:
    """A :class:`ServiceConfig` field: its default, range and serve flag.

    ``at_least`` / ``above`` bound the value; ``None`` is always in
    range.  A setting with ``help`` is also a ``dpcopula serve`` flag,
    named ``flag`` (default ``--<field-name>``), parsed with ``type``
    and limited to ``choices``.  With ``zero_off``, ``0`` on the command
    line means ``None`` (off).  With ``resolve``, the flag is unset
    (``None``) by default and ``resolve`` turns its value into the
    field's; otherwise the flag's default is the field's.
    """
    metadata = dict(
        help=help, flag=flag, type=type, at_least=at_least, above=above,
        zero_off=zero_off, resolve=resolve, choices=choices, metavar=metavar,
    )
    return field(default=default, metadata=metadata)


def _check_range(setting: Field, value: Any, label: str) -> None:
    """Raise ``ValueError`` naming ``label`` unless ``value`` is in range."""
    at_least, above = setting.metadata["at_least"], setting.metadata["above"]
    if value is None or (at_least is None and above is None):
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")
    if at_least is not None and value < at_least:
        raise ValueError(f"{label} must be >= {at_least}, got {value!r}")
    if above is not None and value <= above:
        raise ValueError(f"{label} must be > {above}, got {value!r}")


def _resolve_workers(value: Optional[int]) -> int:
    # prefork imports this module, so its resolver is imported at call time.
    from repro.service.prefork import resolve_worker_count

    return resolve_worker_count(value)


@dataclass(frozen=True)
class ServiceConfig:
    """Settings for a :class:`~repro.service.app.SynthesisService`.

    Each field declares its setting once, through :func:`_setting`: its
    default, its allowed range and, for the settings ``dpcopula serve``
    takes as flags, the flag and the help text that documents it.
    ``dpcopula serve --help`` lists them with their defaults.
    Construction raises ``ValueError`` for a value outside its range.

    ``None`` turns off a bound, a timeout or slow-request detection.
    Only the command line reads ``0`` as ``None`` for those settings:
    in code, ``slow_request_seconds=0.0`` flags every request as slow.

    The settings without a flag: ``worker_index`` is this process's
    index in a pre-fork fleet (``None`` for the single-process server);
    worker 0 is the **fit owner**, which runs the fit pool and startup
    job recovery, while the others journal fit submissions for it and
    serve everything else.  ``metrics_flush_seconds`` is how often a
    fleet worker writes ``<data_dir>/metrics/worker-<index>.json`` for
    ``GET /metrics`` to aggregate.  ``trace_export_max_bytes`` and
    ``trace_export_files`` shape each worker's trace ring: the active
    file rotates before it would exceed ``max_bytes``, keeping at most
    ``files`` files.
    """

    data_dir: PathLike = _setting(
        help="root directory for datasets, registered models, fit jobs and the "
        "privacy ledger; created with its parents if missing"
    )
    epsilon_cap: float = _setting(
        DEFAULT_EPSILON_CAP,
        "lifetime per-dataset privacy cap the accountant enforces: a fit whose "
        "ε would take a dataset's spend past it is refused",
        type=float, above=0,
    )
    fit_workers: int = _setting(
        1,
        "background fit-worker pool size; 1 fits strictly serially in "
        "submission order, more overlap independent fits at the cost of a "
        "deterministic refusal order near the budget cap",
        type=int, at_least=1,
    )
    parallel_backend: str = _setting(
        "serial",
        "execution backend each fit uses for its hot loops (pairwise tau, "
        "per-block MLE)",
        choices=BACKENDS,
    )
    parallel_workers: Optional[int] = _setting(
        None,
        "worker budget for the parallel backend; unset uses the CPUs "
        "available to the server",
        type=int, at_least=1,
    )
    log_level: Optional[str] = _setting(
        None,
        "structured JSON logging level for the service; unset is off, and the "
        "DPCOPULA_LOG environment variable overrides it",
        choices=("debug", "info", "warning", "error", "off"),
    )
    max_queued_fits: Optional[int] = _setting(
        32,
        "bound on fit jobs waiting in the worker queue; submissions past it "
        "get 429 + Retry-After and leave no journal record",
        type=int, at_least=1, zero_off=True,
    )
    fit_timeout_seconds: Optional[float] = _setting(
        None,
        "wall-clock deadline per fit job, checked cooperatively at stage and "
        "task boundaries (the fit fails with DeadlineExceeded); unset means "
        "no deadline",
        flag="--fit-timeout", type=float, above=0, zero_off=True,
        metavar="SECONDS",
    )
    request_timeout_seconds: Optional[float] = _setting(
        30.0,
        "per-connection socket timeout of the HTTP server: a client that "
        "stalls mid-request is disconnected instead of pinning a handler thread",
        flag="--request-timeout", type=float, above=0, zero_off=True,
        metavar="SECONDS",
    )
    coalesce_window_seconds: float = _setting(
        0.0,
        "how long the sampling engine holds a batch open for concurrent sample "
        "requests to join; 0 adds no idle wait, and requests still coalesce "
        "while a batch executes",
        flag="--coalesce-window", type=float, at_least=0, metavar="SECONDS",
    )
    max_coalesced_records: int = _setting(
        262_144,
        "record budget per coalesced sampling batch; bounds the work arrays "
        "one vectorized draw materializes",
        type=int, at_least=1,
    )
    sample_queue_limit: Optional[int] = _setting(
        256,
        "bound on sample requests parked in the coalescer across all models; "
        "arrivals past it get 429 + Retry-After",
        type=int, at_least=1, zero_off=True,
    )
    model_cache_size: Optional[int] = _setting(
        128,
        "LRU bound on released models and their compiled plans kept in server "
        "memory",
        type=int, at_least=1, zero_off=True,
    )
    workers: int = _setting(
        1,
        "pre-fork HTTP worker processes sharing the port via SO_REUSEPORT; "
        "worker 0 owns fitting, every worker serves sampling and records the "
        "fleet size. Unset reads the DPCOPULA_WORKERS environment variable, "
        "else 1 (the single-process server)",
        type=int, at_least=1, resolve=_resolve_workers,
    )
    worker_index: Optional[int] = _setting(None, at_least=0)
    metrics_flush_seconds: float = _setting(1.0, above=0)
    slow_request_seconds: Optional[float] = _setting(
        1.0,
        "requests slower than this are logged at warning with their request "
        "id and counted in dpcopula_http_slow_requests_total, and their "
        "exported traces are flagged slow",
        flag="--slow-request-threshold", type=float, at_least=0, zero_off=True,
        metavar="SECONDS",
    )
    trace_export_enabled: bool = _setting(
        True,
        "append completed trace roots (requests, service fits) to a durable "
        "per-worker JSONL ring under <data-dir>/traces/; --no-trace-export "
        "turns it off",
        flag="--no-trace-export",
    )
    trace_export_max_bytes: int = _setting(4 * 1024 * 1024, at_least=4096)
    trace_export_files: int = _setting(2, at_least=1)
    probe_interval_seconds: float = _setting(
        0.0,
        "period of the continuous utility-probe loop on the fit owner; 0 runs "
        "no loop, though on-demand cycles still work. Probes draw "
        "deterministic samples from served models and cost zero privacy budget",
        flag="--probe-interval", type=float, at_least=0, metavar="SECONDS",
    )
    probe_sample_size: int = _setting(
        512,
        "records drawn per model per probe cycle, from a seed fixed by the "
        "model id, so repeated probes of one model are bitwise identical",
        type=int, at_least=8,
    )

    def __post_init__(self) -> None:
        for setting in fields(self):
            _check_range(setting, getattr(self, setting.name), setting.name)

    @classmethod
    def from_flags(cls, args: Any) -> "ServiceConfig":
        """The config that ``dpcopula serve``'s parsed flags ask for.

        ``args`` holds one attribute per field :func:`serve_flags`
        lists.  An out-of-range value raises ``ValueError`` naming its
        flag.
        """
        values = {}
        for flag, setting in serve_flags():
            value = getattr(args, setting.name)
            if setting.metadata["zero_off"] and value == 0:
                value = None
            _check_range(setting, value, flag)
            if setting.metadata["resolve"] is not None:
                try:
                    value = setting.metadata["resolve"](value)
                except ValueError as exc:
                    raise ValueError(f"{flag}: {exc}") from None
            values[setting.name] = value
        return cls(**values)

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


def serve_flags() -> List[Tuple[str, Field]]:
    """``(flag, field)`` for each :class:`ServiceConfig` setting with a flag."""
    return [
        (setting.metadata["flag"] or "--" + setting.name.replace("_", "-"), setting)
        for setting in fields(ServiceConfig)
        if setting.metadata["help"]
    ]
