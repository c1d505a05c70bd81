"""Step 1 of Algorithms 1 and 4: differentially private marginal histograms.

Each attribute's exact marginal histogram is sanitized with a pluggable
1-D publisher (EFPA by default, as in the paper) under a budget of
``ε₁ / m`` per margin; the noisy counts are then turned into
:class:`~repro.stats.ecdf.HistogramCDF` objects that provide the DP
empirical marginal distributions ``F̃_j`` and their inverses ``F̃_j⁻¹``
used by the sampler.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Dataset
from repro.dp.budget import PrivacyBudget
from repro.histograms.base import HistogramPublisher
from repro.histograms.efpa import EFPAPublisher
from repro.resilience.deadlines import current_deadline
from repro.stats.ecdf import HistogramCDF
from repro.telemetry import trace
from repro.utils import RngLike, as_generator, check_positive


class DPMargins:
    """The collection of DP marginal distributions of a dataset.

    Parameters
    ----------
    publisher:
        1-D histogram sanitizer; the paper's default is EFPA.
    """

    def __init__(self, publisher: Optional[HistogramPublisher] = None):
        self.publisher = publisher if publisher is not None else EFPAPublisher()
        self._cdfs: List[HistogramCDF] = []
        self._noisy_counts: List[np.ndarray] = []

    def fit(
        self,
        dataset: Dataset,
        epsilon1: float,
        rng: RngLike = None,
        budget: Optional[PrivacyBudget] = None,
    ) -> "DPMargins":
        """Publish every margin with budget ``ε₁ / m`` each."""
        check_positive("epsilon1", epsilon1)
        gen = as_generator(rng)
        m = dataset.dimensions
        per_margin = epsilon1 / m
        self._cdfs = []
        self._noisy_counts = []
        deadline = current_deadline()
        for j in range(m):
            if deadline is not None:
                deadline.check(f"margin {dataset.schema[j].name!r}")
            with trace.span(
                "margin",
                attribute=dataset.schema[j].name,
                domain=dataset.schema[j].domain_size,
            ):
                counts = dataset.marginal_counts(j)
                noisy = self.publisher.publish(counts, per_margin, gen)
                if budget is not None:
                    budget.spend(per_margin, f"margin:{dataset.schema[j].name}")
                self._noisy_counts.append(np.asarray(noisy, dtype=float))
                self._cdfs.append(HistogramCDF(noisy))
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._cdfs)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("DPMargins has not been fitted; call fit() first")

    @property
    def cdfs(self) -> List[HistogramCDF]:
        """The DP empirical marginal distributions ``F̃_j``."""
        self._require_fitted()
        return list(self._cdfs)

    @property
    def noisy_counts(self) -> List[np.ndarray]:
        """Raw sanitized count vectors (before CDF post-processing)."""
        self._require_fitted()
        return [counts.copy() for counts in self._noisy_counts]

    @property
    def dimensions(self) -> int:
        self._require_fitted()
        return len(self._cdfs)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Map integer-coded records onto DP pseudo-copula data (Eq. 3).

        Applies the midpoint-corrected DP marginal CDFs column-wise.
        """
        self._require_fitted()
        values = np.atleast_2d(np.asarray(values))
        if values.shape[1] != len(self._cdfs):
            raise ValueError(
                f"data has {values.shape[1]} columns, margins have {len(self._cdfs)}"
            )
        return np.column_stack(
            [cdf(values[:, j]) for j, cdf in enumerate(self._cdfs)]
        )

    def inverse_transform(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform pseudo-copula data back to the original domains."""
        self._require_fitted()
        return BatchedMarginInverter(self._cdfs)(np.atleast_2d(uniforms))

    def estimated_total(self) -> float:
        """Average of the margins' noisy totals: a DP estimate of ``n``."""
        self._require_fitted()
        totals = [max(counts.sum(), 0.0) for counts in self._noisy_counts]
        return float(np.mean(totals))
