"""Fleet observatory: ε burn-down timelines and continuous utility probes.

Two operator questions the raw metrics cannot answer:

* **How fast is each dataset burning its ε budget?**
  :func:`budget_timelines` folds privacy-ledger entries (read by the
  accountant's pure-read replay — no lock traffic on the append path)
  through :class:`~repro.dp.budget.PrivacyLedger`, the accountant's own
  fold, into per-dataset burn-down timelines: cumulative spend after
  every charge/refund plus remaining headroom under the lifetime cap.
  Served by ``GET /budget`` and rendered by ``dpcopula budget``.

* **How good is the data each served model produces?**
  :class:`UtilityProbe` periodically draws a small *deterministic*
  sample from every served model's compiled plan and compares it
  against the model's own fitted DP statistics — the released noisy
  margins and the repaired correlation.  The raw data is never touched,
  so probing consumes **zero additional ε** (sampling a released model
  is post-processing; the accountant ledger is byte-identical across a
  probe cycle, asserted by tests).  Per-column total-variation distance,
  pairwise Kendall-τ error (via the Gaussian-copula relation
  ``τ = (2/π)·asin(ρ)``), and a copula-misfit statistic (reusing the
  goodness-of-fit machinery) are published as gauges labelled by model.

The probe runs on the fit-owner worker only (one prober per fleet); its
latest results are persisted to ``<data-dir>/observatory/probes.json``
so *any* worker can serve them from ``GET /debug/observatory``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.dp.budget import LedgerEntry, PrivacyLedger
from repro.queries.workloads import (
    coarse_edges,
    gaussian_copula_pair_probabilities,
)
from repro.stats.ecdf import HistogramCDF
from repro.stats.goodness_of_fit import copula_probe_statistic
from repro.stats.kendall import kendall_tau_matrix
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import REGISTRY
from repro.utils import atomic_write_bytes

__all__ = [
    "UtilityProbe",
    "budget_timelines",
    "load_probe_document",
]

_logger = get_logger("telemetry.observatory")

_PROBE_MARGIN_TVD = REGISTRY.gauge(
    "dpcopula_probe_margin_tvd",
    "Per-column TVD between a deterministic probe sample and the model's "
    "released DP margin (labels: model, attribute)",
)
_PROBE_MARGIN_TVD_MAX = REGISTRY.gauge(
    "dpcopula_probe_margin_tvd_max",
    "Worst per-column probe TVD per model (label: model)",
)
_PROBE_KWAY_TVD_MAX = REGISTRY.gauge(
    "dpcopula_probe_kway_tvd_max",
    "Worst two-way marginal TVD between the probe sample and the "
    "copula-implied pair distribution, over the strongest-|ρ| pairs "
    "(label: model)",
)
_PROBE_TAU_ERROR = REGISTRY.gauge(
    "dpcopula_probe_tau_error",
    "Max pairwise |empirical τ − (2/π)·asin(ρ_DP)| of the probe sample "
    "(label: model)",
)
_PROBE_COPULA_MISFIT = REGISTRY.gauge(
    "dpcopula_probe_copula_misfit",
    "Copula goodness-of-fit statistic of the probe sample against the "
    "model's released correlation (label: model)",
)
_PROBE_RUNS = REGISTRY.counter(
    "dpcopula_probe_runs_total", "Completed utility-probe cycles"
)
_PROBE_FAILURES = REGISTRY.counter(
    "dpcopula_probe_failures_total",
    "Models a probe cycle failed to evaluate (label: model)",
)
_PROBE_SECONDS = REGISTRY.histogram(
    "dpcopula_probe_seconds", "Wall-clock seconds per utility-probe cycle"
)
#: The k-way gauge scores at most this many attribute pairs per model,
#: ranked by |ρ| — the strongest dependencies are where sampler bugs
#: (wrong Cholesky, wrong margin table) show up first.
_PROBE_MAX_PAIRS = 6

#: Bucket bound for the probe's two-way marginal tables.
_PROBE_KWAY_BINS = 8


# ---------------------------------------------------------------------------
# Privacy-budget timelines
# ---------------------------------------------------------------------------


def budget_timelines(
    entries: Iterable[LedgerEntry],
    epsilon_cap: float,
    datasets: Iterable[str] = (),
) -> Dict[str, Any]:
    """Fold ledger entries into per-dataset ε burn-down timelines.

    ``entries`` are parsed ledger lines in append order
    (:func:`repro.service.accountant.replay_ledger`); the fold skips
    repeated idempotency keys and clips refunds at zero exactly as the
    accountant does.  ``datasets`` adds known dataset ids so a dataset
    with no charges yet still shows full headroom.
    """
    ledger = PrivacyLedger(epsilon_cap)
    events: Dict[str, List[Dict[str, Any]]] = {str(d): [] for d in datasets}
    for entry in entries:
        if ledger.apply(entry):
            events.setdefault(entry.dataset, []).append(
                {
                    "timestamp": entry.timestamp,
                    "epsilon": entry.epsilon,
                    "label": entry.label,
                    "kind": entry.kind,
                    "spent_after": ledger.spent[entry.dataset],
                    "remaining_after": ledger.remaining(entry.dataset),
                }
            )
    epsilon_cap = ledger.epsilon_cap
    timelines = []
    for dataset_id in sorted(events):
        spent = ledger.spent.get(dataset_id, 0.0)
        timelines.append(
            {
                "dataset_id": dataset_id,
                "epsilon_cap": epsilon_cap,
                "epsilon_spent": spent,
                "epsilon_remaining": ledger.remaining(dataset_id),
                "utilization": (spent / epsilon_cap) if epsilon_cap > 0 else 1.0,
                "events": events[dataset_id],
            }
        )
    return {"epsilon_cap": epsilon_cap, "datasets": timelines}


# ---------------------------------------------------------------------------
# Observatory file helpers
# ---------------------------------------------------------------------------


def load_probe_document(observatory_dir) -> Optional[Dict[str, Any]]:
    """The latest persisted probe results, or ``None`` before the first run."""
    path = Path(observatory_dir) / "probes.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Continuous utility probes
# ---------------------------------------------------------------------------


def probe_seed(model_id: str) -> int:
    """A stable 64-bit seed for one model's probe stream."""
    digest = hashlib.blake2s(model_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class UtilityProbe:
    """Continuously scores served models against their own DP statistics.

    ``registry`` is duck-typed to the model registry: ``list()`` returning
    records with a ``model_id``, plus ``get(model_id)`` and
    ``get_plan(model_id)``.  Each cycle draws a deterministic sample from
    every served model's plan (seeded by ``blake2s(model_id)``, so
    repeated probes of a model are bitwise identical and never perturb
    any serving RNG stream) and publishes utility gauges.
    The raw dataset is never read: zero additional ε.
    """

    def __init__(
        self,
        registry,
        observatory_dir,
        *,
        worker_label: str = "main",
        sample_size: int = 512,
        interval: float = 0.0,
        max_models: int = 8,
    ):
        if sample_size < 8:
            raise ValueError(f"probe sample_size too small: {sample_size}")
        self.registry = registry
        self.observatory_dir = Path(observatory_dir)
        self.worker_label = str(worker_label)
        self.sample_size = int(sample_size)
        self.interval = float(interval)
        self.max_models = int(max_models)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.cycles = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "UtilityProbe":
        """Begin the background loop (no-op when the interval is 0)."""
        if self.interval <= 0 or self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="dpcopula-utility-probe", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - the loop must survive
                _logger.exception("utility probe cycle failed")

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    # -- one probe cycle -----------------------------------------------

    def run_once(self) -> Dict[str, Any]:
        """Probe every served model once; persist and return the document."""
        started = time.perf_counter()
        records = list(self.registry.list())
        probed_records = records[: self.max_models]
        if len(records) > len(probed_records):
            _logger.warning(
                "probe cycle capped",
                extra={
                    "models_total": len(records),
                    "models_probed": len(probed_records),
                },
            )
        models: List[Dict[str, Any]] = []
        # These gauges are owned exclusively by the probe: clearing them
        # each cycle drops series for models it no longer probes instead
        # of reporting them forever.
        for gauge in (
            _PROBE_MARGIN_TVD,
            _PROBE_MARGIN_TVD_MAX,
            _PROBE_KWAY_TVD_MAX,
            _PROBE_TAU_ERROR,
            _PROBE_COPULA_MISFIT,
        ):
            gauge.clear()
        for record in probed_records:
            try:
                result = self._probe_model(record)
            except Exception:  # noqa: BLE001 - one bad model, not the cycle
                _PROBE_FAILURES.inc(model=record.model_id)
                _logger.exception(
                    "model probe failed", extra={"model_id": record.model_id}
                )
                continue
            self._publish(result)
            models.append(result)
        elapsed = time.perf_counter() - started
        document = {
            "written_at": time.time(),
            "worker": self.worker_label,
            "interval_seconds": self.interval,
            "sample_size": self.sample_size,
            "models_total": len(records),
            "models_probed": len(models),
            "probe_seconds": elapsed,
            "models": models,
        }
        try:
            self.observatory_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.observatory_dir / "probes.json",
                (json.dumps(document, sort_keys=True, indent=2) + "\n").encode(),
            )
        except OSError:
            _logger.exception("failed to persist probe results")
        _PROBE_RUNS.inc()
        _PROBE_SECONDS.observe(elapsed)
        self.cycles += 1
        return document

    def _probe_model(self, record) -> Dict[str, Any]:
        """Score one model; returns its JSON-ready result."""
        model = self.registry.get(record.model_id)
        plan = self.registry.get_plan(record.model_id)
        seed = probe_seed(record.model_id)
        sample = plan.sample(self.sample_size, np.random.default_rng(seed))
        values = sample.values
        n = values.shape[0]
        m = values.shape[1]

        margins = [HistogramCDF(counts) for counts in model.margin_counts]
        names = [attribute.name for attribute in model.schema]
        margin_tvd: Dict[str, float] = {}
        for j, cdf in enumerate(margins):
            empirical = np.bincount(values[:, j], minlength=cdf.domain_size) / n
            margin_tvd[names[j]] = 0.5 * float(np.abs(empirical - cdf.pmf).sum())

        # The repaired PSD correlation the sampler actually uses — the
        # Cholesky factor reassembled, not the raw noisy estimate.
        cholesky = np.asarray(plan.cholesky)
        correlation = cholesky @ cholesky.T
        tau_error = 0.0
        if m >= 2:
            tau_empirical = kendall_tau_matrix(values)
            tau_expected = (2.0 / np.pi) * np.arcsin(
                np.clip(correlation, -1.0, 1.0)
            )
            off_diagonal = ~np.eye(m, dtype=bool)
            tau_error = float(
                np.abs(tau_empirical - tau_expected)[off_diagonal].max()
            )

        # k-way gauge: the sample's two-way marginals versus the pair
        # distributions the released copula *implies* (margins + Φ₂ at
        # the repaired ρ).  Both sides derive from released statistics
        # only, so this stays zero-ε; a healthy sampler sits at the
        # sampling-noise floor, a wrong Cholesky or margin table does not.
        kway_tvd_max = 0.0
        if m >= 2:
            off = np.abs(np.triu(correlation, 1))
            order = np.dstack(np.unravel_index(np.argsort(-off, axis=None), off.shape))[0]
            pairs = [(int(i), int(j)) for i, j in order if j > i][:_PROBE_MAX_PAIRS]
            for i, j in pairs:
                edges_i = np.asarray(
                    coarse_edges(margins[i].domain_size, _PROBE_KWAY_BINS)
                )
                edges_j = np.asarray(
                    coarse_edges(margins[j].domain_size, _PROBE_KWAY_BINS)
                )
                empirical, _, _ = np.histogram2d(
                    values[:, i].astype(float),
                    values[:, j].astype(float),
                    bins=[edges_i.astype(float), edges_j.astype(float)],
                )
                implied = gaussian_copula_pair_probabilities(
                    margins[i].pmf,
                    margins[j].pmf,
                    float(correlation[i, j]),
                    edges_i,
                    edges_j,
                )
                tvd = 0.5 * float(np.abs(empirical / n - implied).sum())
                kway_tvd_max = max(kway_tvd_max, tvd)

        # Copula misfit: push the sample through the model's own margin
        # CDFs (midpoint PIT) and score uniformity + dependence fit of
        # the resulting pseudo-copula against the released correlation.
        pseudo = np.column_stack([cdf(values[:, j]) for j, cdf in enumerate(margins)])
        misfit = float(copula_probe_statistic(pseudo, correlation))

        return {
            "model_id": record.model_id,
            "seed": seed,
            "sample_size": n,
            "margin_tvd": margin_tvd,
            "margin_tvd_max": max(margin_tvd.values()) if margin_tvd else 0.0,
            "kway_tvd_max": kway_tvd_max,
            "tau_error": tau_error,
            "copula_misfit": misfit,
        }

    def _publish(self, result: Dict[str, Any]) -> None:
        model_id = result["model_id"]
        for attribute, tvd in result["margin_tvd"].items():
            _PROBE_MARGIN_TVD.set(tvd, model=model_id, attribute=attribute)
        _PROBE_MARGIN_TVD_MAX.set(result["margin_tvd_max"], model=model_id)
        _PROBE_KWAY_TVD_MAX.set(result["kway_tvd_max"], model=model_id)
        _PROBE_TAU_ERROR.set(result["tau_error"], model=model_id)
        _PROBE_COPULA_MISFIT.set(result["copula_misfit"], model=model_id)
