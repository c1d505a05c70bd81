"""Release diagnostics: what noise went where, and what to expect of it.

A data curator deciding on ε wants to know, *before* looking at utility
numbers, how hard each released statistic was perturbed.  This module
derives, from a synthesizer's configuration and a dataset's shape, the
closed-form noise scales of every release the paper's algorithms make:

* per-margin Laplace scale ``1/(ε₁/m)`` (identity-equivalent; transform-
  domain publishers like EFPA trade this against truncation error);
* per-coefficient Kendall scale ``Δ·C(m,2)/ε₂`` with ``Δ = 4/(n̂+1)``;
* per-coefficient MLE scale ``Λ·C(m,2)/(l·ε₂)``;

plus the derived quantities an analyst actually reasons with: the
expected absolute perturbation of a margin *fraction* and of a
correlation coefficient.  The numbers are configuration-only (no data
values), so printing them costs no privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.kendall_matrix import MIN_AUTO_SUBSAMPLE, kendall_subsample_size
from repro.core.mle import COEFFICIENT_DIAMETER, required_partitions
from repro.dp.budget import split_budget_by_ratio
from repro.dp.sensitivity import kendall_tau_sensitivity
from repro.utils import check_int_at_least, check_positive, pairs_count


@dataclass(frozen=True)
class ReleasePlan:
    """The noise budget of one DPCopula release, before any data access."""

    epsilon: float
    k: float
    n_records: int
    dimensions: int
    method: str
    epsilon1: float
    epsilon2: float
    per_margin_epsilon: float
    margin_noise_scale: float
    pair_count: int
    per_pair_epsilon: float
    tau_subsample: Optional[int]
    coefficient_noise_scale: float
    mle_partitions: Optional[int]

    @property
    def expected_margin_count_error(self) -> float:
        """Mean |Laplace| noise per margin bin: equals the scale b."""
        return self.margin_noise_scale

    @property
    def expected_margin_fraction_error(self) -> float:
        """Mean absolute perturbation of one bin's *probability mass*."""
        return self.margin_noise_scale / max(self.n_records, 1)

    @property
    def expected_coefficient_error(self) -> float:
        """Mean absolute perturbation of one correlation coefficient.

        Laplace mean |X| equals the scale; the Greiner transform's
        slope is at most π/2, giving a conservative bound on the
        correlation-space error.
        """
        import math

        return (math.pi / 2.0) * self.coefficient_noise_scale

    def summary(self) -> str:
        """Human-readable plan."""
        lines = [
            f"ReleasePlan({self.method}, epsilon={self.epsilon:.4g}, "
            f"n={self.n_records}, m={self.dimensions})",
            f"  budget split: eps1={self.epsilon1:.4g} (margins), "
            f"eps2={self.epsilon2:.4g} (correlations)  [k={self.k:.4g}]",
            f"  margins: {self.dimensions} x eps {self.per_margin_epsilon:.4g}; "
            f"count noise scale {self.margin_noise_scale:.4g} "
            f"(~{self.expected_margin_fraction_error:.3e} per unit mass)",
            f"  coefficients: {self.pair_count} x eps {self.per_pair_epsilon:.4g}; "
            f"noise scale {self.coefficient_noise_scale:.4g} "
            f"(~{self.expected_coefficient_error:.3g} on the correlation)",
        ]
        if self.tau_subsample is not None:
            lines.append(f"  Kendall subsample: n_hat = {self.tau_subsample}")
        if self.mle_partitions is not None:
            lines.append(f"  MLE partitions: l = {self.mle_partitions}")
        return "\n".join(lines)


def plan_release(
    epsilon: float,
    n_records: int,
    dimensions: int,
    k: float = 8.0,
    method: str = "kendall",
    subsample: str = "auto",
) -> ReleasePlan:
    """Compute the noise plan of a DPCopula release from its configuration.

    ``method`` is ``"kendall"`` or ``"mle"``; for Kendall,
    ``subsample="auto"`` applies the paper's n̂ rule, ``"full"`` uses all
    records.
    """
    check_positive("epsilon", epsilon)
    check_int_at_least("n_records", n_records, 2)
    check_int_at_least("dimensions", dimensions, 1)
    if method not in ("kendall", "mle"):
        raise ValueError(f"unknown method {method!r}; expected 'kendall' or 'mle'")

    epsilon1, epsilon2 = split_budget_by_ratio(epsilon, k)
    m = dimensions
    pairs = max(pairs_count(m), 1)
    per_margin = epsilon1 / m
    margin_scale = 1.0 / per_margin  # identity-equivalent Lap(1/eps) per bin
    per_pair = epsilon2 / pairs

    tau_subsample: Optional[int] = None
    mle_partitions: Optional[int] = None
    if method == "kendall":
        if subsample == "auto":
            n_hat = min(
                n_records,
                max(
                    kendall_subsample_size(m, epsilon2, cap=n_records),
                    MIN_AUTO_SUBSAMPLE,
                ),
            )
        elif subsample == "full":
            n_hat = n_records
        else:
            raise ValueError(
                f"unknown subsample policy {subsample!r}; expected 'auto' or 'full'"
            )
        tau_subsample = n_hat
        sensitivity = kendall_tau_sensitivity(n_hat)
        coefficient_scale = sensitivity / per_pair if per_pair > 0 else math.inf
    else:
        l = required_partitions(m, epsilon2, cap=max(1, n_records // 4))
        mle_partitions = l
        coefficient_scale = (pairs * COEFFICIENT_DIAMETER) / (l * epsilon2)

    return ReleasePlan(
        epsilon=float(epsilon),
        k=float(k),
        n_records=int(n_records),
        dimensions=int(m),
        method=method,
        epsilon1=epsilon1,
        epsilon2=epsilon2,
        per_margin_epsilon=per_margin,
        margin_noise_scale=margin_scale,
        pair_count=pairs,
        per_pair_epsilon=per_pair,
        tau_subsample=tau_subsample,
        coefficient_noise_scale=coefficient_scale,
        mle_partitions=mle_partitions,
    )


def compare_methods(
    epsilon: float, n_records: int, dimensions: int, k: float = 8.0
) -> List[ReleasePlan]:
    """Plans for both estimators side by side (the Figure-6 comparison,
    predicted from closed forms before running anything)."""
    return [
        plan_release(epsilon, n_records, dimensions, k=k, method="kendall"),
        plan_release(epsilon, n_records, dimensions, k=k, method="mle"),
    ]
