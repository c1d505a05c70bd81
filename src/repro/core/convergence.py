"""Empirical convergence diagnostics for Section 4.3.

Theorem 4.3 proves that the DPCopula-Kendall synthetic distribution
converges to the original joint distribution as the cardinality ``n``
grows: the noisy margins converge (Lemma 4.1 — the Laplace scale on a
histogram is fixed while counts grow linearly), the noisy Kendall
coefficients converge (Lemma 4.2 — noise scale ``4/((n+1)ε₂) → 0``), and
convergence of margins + copula implies convergence of the joint
distribution (Theorem 3.3).

These diagnostics make the theorem *measurable*:

* :func:`max_margin_distance` — worst sup-norm (Kolmogorov) distance
  between an original and a synthetic marginal CDF
  (:func:`~repro.queries.metrics.margin_kolmogorov` per attribute);
* :func:`~repro.queries.metrics.pairwise_tau_error` — max absolute
  deviation between the Kendall matrices of original and synthetic data;
* :func:`joint_cdf_distance` — max deviation of the empirical joint CDFs
  over random evaluation points;
* :func:`run_convergence_study` — all three as a function of ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.queries.metrics import margin_kolmogorov, pairwise_tau_error
from repro.utils import RngLike, as_generator


def max_margin_distance(original: Dataset, synthetic: Dataset) -> float:
    """Worst Kolmogorov distance over all attributes."""
    return max(
        margin_kolmogorov(original, synthetic, j) for j in range(original.dimensions)
    )


def joint_cdf_distance(
    original: Dataset,
    synthetic: Dataset,
    n_points: int = 200,
    rng: RngLike = 0,
) -> float:
    """Max empirical joint-CDF deviation over random evaluation points.

    A Monte-Carlo sup-distance: evaluation points are sampled uniformly
    over the attribute grid, and at each point the fraction of records
    dominated by it is compared between the two datasets.
    """
    gen = as_generator(rng)
    sizes = original.schema.domain_sizes
    points = np.column_stack(
        [gen.integers(0, size, size=n_points) for size in sizes]
    )
    worst = 0.0
    original_values = original.values
    synthetic_values = synthetic.values
    for point in points:
        p_original = np.mean(np.all(original_values <= point, axis=1))
        p_synthetic = np.mean(np.all(synthetic_values <= point, axis=1))
        worst = max(worst, abs(float(p_original - p_synthetic)))
    return worst


@dataclass(frozen=True)
class ConvergencePoint:
    """Diagnostics at one cardinality."""

    n_records: int
    margin_sup_distance: float
    tau_error: float
    joint_cdf_sup_distance: float


def run_convergence_study(
    cardinalities: Sequence[int],
    make_dataset: Callable[[int], Dataset],
    make_synthesizer: Callable[[], "object"],
    rng: RngLike = 0,
) -> List[ConvergencePoint]:
    """Measure all three diagnostics at each cardinality.

    ``make_dataset(n)`` must return an original dataset of ``n`` records;
    ``make_synthesizer()`` a fresh synthesizer exposing ``fit_sample``.
    """
    gen = as_generator(rng)
    results: List[ConvergencePoint] = []
    for n in cardinalities:
        original = make_dataset(int(n))
        synthesizer = make_synthesizer()
        synthetic = synthesizer.fit_sample(original)
        results.append(
            ConvergencePoint(
                n_records=int(n),
                margin_sup_distance=max_margin_distance(original, synthetic),
                tau_error=pairwise_tau_error(original, synthetic, rng=gen),
                joint_cdf_sup_distance=joint_cdf_distance(original, synthetic, rng=gen),
            )
        )
    return results
