"""Algorithms 1 and 4: the DPCopula synthesizers.

Both synthesizers share the same three-phase pipeline (Figure 4):

1. publish DP marginal histograms, one per attribute, under budget
   ``ε₁ / m`` each (:class:`~repro.core.margins.DPMargins`);
2. estimate the DP Gaussian-copula correlation matrix ``P̃`` under total
   budget ``ε₂`` — via noisy Kendall's tau (Algorithm 5) or via
   subsample-and-aggregate MLE (Algorithm 2);
3. sample synthetic records from the copula (Algorithm 3).

The single algorithmic knob is ``k = ε₁ / ε₂`` (paper default 8;
Figure 5 shows robustness for any ``k >= 1``).  The end-to-end release is
``ε``-differentially private by sequential composition, and the attached
:class:`~repro.dp.budget.PrivacyBudget` ledger records the exact split.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.core.kendall_matrix import dp_kendall_correlation
from repro.core.margins import DPMargins
from repro.core.mle import dp_mle_correlation
from repro.core.sampling import sample_synthetic
from repro.data.dataset import Dataset, Schema
from repro.dp.budget import PrivacyBudget, split_budget_by_ratio
from repro.histograms.base import HistogramPublisher
from repro.parallel import ExecutionContext, resolve_context, spawn_generators
from repro.resilience import faults
from repro.resilience.deadlines import current_deadline
from repro.telemetry import get_logger, trace
from repro.utils import RngLike, as_generator, check_positive

_logger = get_logger("core.dpcopula")

DEFAULT_RATIO_K = 8.0


def _margin_order(key: str) -> int:
    """Numeric sort key for ``margin_<j>`` checkpoint array names."""
    return int(key.rsplit("_", 1)[1])


class DPCopulaSynthesizer(abc.ABC):
    """Base class: budget handling, fitting state, and sampling.

    Subclasses implement :meth:`_estimate_correlation` (step 2).

    Parameters
    ----------
    epsilon:
        Overall privacy budget ``ε``.
    k:
        Budget ratio ``ε₁ / ε₂`` between margins and correlations.
    margin_publisher:
        1-D DP histogram method for step 1 (default EFPA, as in the
        paper).
    rng:
        Seed or generator for all randomness (noise and sampling).
    context:
        :class:`~repro.parallel.ExecutionContext` the correlation
        estimators fan their independent work units out over (pairwise
        tau coefficients, per-block MLE fits).  Default (``None``)
        serial; every backend yields identical results.
    """

    method_name = "dpcopula"

    def __init__(
        self,
        epsilon: float,
        k: float = DEFAULT_RATIO_K,
        margin_publisher: Optional[HistogramPublisher] = None,
        rng: RngLike = None,
        context: Optional[ExecutionContext] = None,
    ):
        check_positive("epsilon", epsilon)
        check_positive("k", k)
        self.epsilon = float(epsilon)
        self.k = float(k)
        self.epsilon1, self.epsilon2 = split_budget_by_ratio(epsilon, k)
        self._rng = as_generator(rng)
        self.context = resolve_context(context)
        self._margins = DPMargins(publisher=margin_publisher)
        self.budget_: Optional[PrivacyBudget] = None
        self.correlation_: Optional[np.ndarray] = None
        self._schema: Optional[Schema] = None
        self._n_records: Optional[int] = None
        #: Whether this fit has drawn any noise against the privacy
        #: budget yet.  ``False`` until the instant before the first DP
        #: mechanism runs, which is the provably-safe refund window: a
        #: failure while this is still ``False`` means the data never
        #: influenced any released (or releasable) value, so a charged
        #: ε may be refunded (see docs/RELIABILITY.md).
        self.privacy_touched_ = False

    @property
    def is_fitted(self) -> bool:
        return self.correlation_ is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(
                f"{type(self).__name__} has not been fitted; call fit() first"
            )

    @property
    def margins_(self) -> DPMargins:
        self._require_fitted()
        return self._margins

    @property
    def schema_(self) -> Schema:
        self._require_fitted()
        return self._schema

    @abc.abstractmethod
    def _estimate_correlation(self, dataset: Dataset) -> np.ndarray:
        """Step 2: the DP correlation matrix under budget ``epsilon2``."""

    def fit(self, dataset: Dataset, checkpoint=None) -> "DPCopulaSynthesizer":
        """Run steps 1 and 2 on ``dataset``, spending the full budget.

        ``checkpoint`` (optional) is a stage-checkpoint store with
        ``load(stage) -> dict | None`` and ``save(stage, arrays)``
        methods (duck-typed; the service passes a
        :class:`~repro.service.jobs.FitCheckpoint` backed by the job
        journal).  With a checkpoint attached the fit becomes
        *resumable*: each stage's output is persisted when computed and
        reloaded instead of recomputed on a later attempt.  Checkpointed
        fits derive one independent RNG stream per stage up front
        (margins, correlation, sampling), so a resumed fit draws exactly
        the noise an uninterrupted run would have drawn — the release is
        bitwise the same release, and re-attempts cost no extra ε.
        Without a checkpoint the historical single-stream RNG threading
        is preserved unchanged.

        Deadlines are honored cooperatively at stage boundaries (and
        between parallel tasks inside the correlation stage) when one is
        installed via
        :func:`repro.resilience.deadlines.deadline_scope`.
        """
        if dataset.n_records < 2:
            raise ValueError("DPCopula needs at least two records")
        self.privacy_touched_ = False
        deadline = current_deadline()
        stage_rngs = (
            spawn_generators(self._rng, 3) if checkpoint is not None else None
        )
        with trace.span(
            "fit",
            method=self.method_name,
            n=dataset.n_records,
            m=dataset.dimensions,
            epsilon=self.epsilon,
        ):
            budget = PrivacyBudget(self.epsilon)
            if deadline is not None:
                deadline.check("fit stage 'margins'")
            faults.inject("fit.margins")
            with trace.span("margins", epsilon1=round(self.epsilon1, 6)):
                restored = checkpoint.load("margins") if checkpoint else None
                if restored is not None:
                    self._margins.restore(
                        [restored[key] for key in sorted(restored, key=_margin_order)]
                    )
                    budget.spend(self.epsilon1, "margins (restored from checkpoint)")
                else:
                    self.privacy_touched_ = True
                    margins_rng = stage_rngs[0] if stage_rngs else self._rng
                    self._margins.fit(
                        dataset, self.epsilon1, rng=margins_rng, budget=budget
                    )
                    if checkpoint is not None:
                        checkpoint.save(
                            "margins",
                            {
                                f"margin_{j}": counts
                                for j, counts in enumerate(self._margins.noisy_counts)
                            },
                        )
            if deadline is not None:
                deadline.check("fit stage 'correlation'")
            faults.inject("fit.correlation")
            with trace.span("correlation", epsilon2=round(self.epsilon2, 6)):
                restored = checkpoint.load("correlation") if checkpoint else None
                if restored is not None:
                    self.correlation_ = np.asarray(
                        restored["correlation"], dtype=float
                    )
                else:
                    self.privacy_touched_ = True
                    if stage_rngs is not None:
                        self._rng = stage_rngs[1]
                    self.correlation_ = self._estimate_correlation(dataset)
                    if checkpoint is not None:
                        checkpoint.save(
                            "correlation", {"correlation": self.correlation_}
                        )
            budget.spend(self.epsilon2, "correlation matrix")
            if stage_rngs is not None:
                # Sampling gets its own stream so post-fit draws are
                # identical whether or not any stage was resumed.
                self._rng = stage_rngs[2]
        _logger.debug(
            "fit complete",
            extra={
                "method": self.method_name,
                "n": dataset.n_records,
                "m": dataset.dimensions,
                "epsilon": self.epsilon,
            },
        )
        self.budget_ = budget
        self._schema = dataset.schema
        self._n_records = dataset.n_records
        return self

    def sample(self, n: Optional[int] = None) -> Dataset:
        """Step 3: draw ``n`` DP synthetic records (default: original n).

        Sampling is post-processing, so it can be repeated arbitrarily
        without spending additional budget.
        """
        self._require_fitted()
        if n is None:
            n = self._n_records
        return sample_synthetic(
            self.correlation_, self._margins.cdfs, int(n), self._schema, rng=self._rng
        )

    def fit_sample(self, dataset: Dataset, n: Optional[int] = None) -> Dataset:
        """Convenience: ``fit`` then ``sample`` in one call."""
        return self.fit(dataset).sample(n)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(epsilon={self.epsilon}, k={self.k}, "
            f"fitted={self.is_fitted})"
        )


class DPCopulaKendall(DPCopulaSynthesizer):
    """Algorithm 4: DPCopula with the noisy Kendall's-tau estimator.

    Additional parameters
    ---------------------
    subsample:
        Sampling optimisation for the tau computation: ``"auto"`` (the
        paper's ``n̂ = 50·m(m−1)/ε₂`` rule), an explicit size, or ``None``
        to always use the full data.
    repair:
        Positive-definiteness repair: ``"eigenvalue"`` (Algorithm 5,
        step 3) or ``"higham"``.
    """

    method_name = "dpcopula-kendall"

    def __init__(
        self,
        epsilon: float,
        k: float = DEFAULT_RATIO_K,
        margin_publisher: Optional[HistogramPublisher] = None,
        subsample: Union[str, int, None] = "auto",
        tau_method: str = "merge",
        repair: str = "eigenvalue",
        rng: RngLike = None,
        context: Optional[ExecutionContext] = None,
    ):
        super().__init__(
            epsilon, k=k, margin_publisher=margin_publisher, rng=rng, context=context
        )
        self.subsample = subsample
        self.tau_method = tau_method
        self.repair = repair

    def _estimate_correlation(self, dataset: Dataset) -> np.ndarray:
        return dp_kendall_correlation(
            dataset.values,
            self.epsilon2,
            rng=self._rng,
            subsample=self.subsample,
            tau_method=self.tau_method,
            repair=self.repair,
            context=self.context,
        )


class DPCopulaMLE(DPCopulaSynthesizer):
    """Algorithm 1: DPCopula with the subsample-and-aggregate DP MLE.

    Additional parameters
    ---------------------
    l:
        Number of disjoint blocks; ``None`` derives the paper's bound
        ``l > C(m,2)/(0.025·ε₂)`` (capped by the data size).
    estimator:
        Per-block estimator: ``"normal_scores"`` (vectorized one-step
        MLE, default) or ``"pairwise_mle"`` (iterative).
    """

    method_name = "dpcopula-mle"

    def __init__(
        self,
        epsilon: float,
        k: float = DEFAULT_RATIO_K,
        margin_publisher: Optional[HistogramPublisher] = None,
        l: Optional[int] = None,
        estimator: str = "normal_scores",
        rng: RngLike = None,
        context: Optional[ExecutionContext] = None,
    ):
        super().__init__(
            epsilon, k=k, margin_publisher=margin_publisher, rng=rng, context=context
        )
        self.l = l
        self.estimator = estimator

    def _estimate_correlation(self, dataset: Dataset) -> np.ndarray:
        return dp_mle_correlation(
            dataset.values,
            self.epsilon2,
            l=self.l,
            rng=self._rng,
            estimator=self.estimator,
            context=self.context,
        )
