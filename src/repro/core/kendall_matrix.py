"""Algorithm 5: the differentially private correlation matrix via Kendall's tau.

Each of the ``C(m, 2)`` pairwise Kendall's-tau coefficients is perturbed
with Laplace noise calibrated to the Lemma 4.1 sensitivity ``4/(n+1)``
under its share ``ε₂ / C(m,2)`` of the correlation budget, the Greiner
transform ``P̃ = sin(π/2 · τ̃)`` converts to Gaussian-copula correlations,
and an eigenvalue repair (Rousseeuw & Molenberghs) restores positive
definiteness when the noise breaks it.

The paper's *sampling optimisation* (Section 4.2) is implemented too:
computing tau on an ``n̂``-record subsample costs ``O(m² n̂ log n̂)``
regardless of ``n``, at the price of enlarging the noise to
``4/(n̂+1)``.  Uniform subsampling only *amplifies* privacy, so charging
the full per-coefficient budget remains valid.  The paper recommends
``n̂ > 50·m(m−1)/ε₂ − 1`` so the noise stays small against the [-1, 1]
coefficient scale.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.parallel import ExecutionContext
from repro.telemetry import trace

from repro.dp.sensitivity import kendall_tau_sensitivity
from repro.stats.correlation import correlation_from_tau
from repro.stats.kendall import kendall_tau_matrix
from repro.stats.psd_repair import (
    higham_nearest_correlation,
    is_positive_definite,
    make_positive_definite,
)
from repro.utils import RngLike, as_generator, check_positive, pairs_count


# Floor on the automatic subsample: at very large budgets the paper's
# 50·m(m−1)/ε₂ rule can fall below any statistically sensible sample, so
# the auto mode never goes under this many records (capped by n).
MIN_AUTO_SUBSAMPLE = 1000


def kendall_subsample_size(m: int, epsilon2: float, cap: Optional[int] = None) -> int:
    """The paper's adequate subsample size ``n̂ > 50·m(m−1)/ε₂ − 1``, at
    most ``cap``.

    The size meets ``cap`` as a float, so an ``ε₂`` small enough to make
    it infinite saturates at ``cap`` instead of overflowing.
    """
    check_positive("epsilon2", epsilon2)
    size = 50.0 * m * (m - 1) / epsilon2
    if cap is not None and size >= cap:
        return int(cap)
    return int(np.ceil(size))


def dp_kendall_correlation(
    values: np.ndarray,
    epsilon2: float,
    rng: RngLike = None,
    subsample: Union[str, int, None] = "auto",
    tau_method: str = "merge",
    repair: str = "eigenvalue",
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Compute the DP correlation matrix estimator ``P̃`` (Algorithm 5).

    Parameters
    ----------
    values:
        ``(n, m)`` data matrix (ranks are all that matter, so integer
        codes are fine).
    epsilon2:
        Total budget for *all* coefficients; each pair receives
        ``epsilon2 / C(m, 2)``.
    subsample:
        ``"auto"`` applies the paper's sampling optimisation with
        ``n̂ = 50·m(m−1)/ε₂`` whenever that is smaller than ``n``;
        an integer forces a specific ``n̂``; ``None`` disables it.
    repair:
        ``"eigenvalue"`` (Algorithm 5 step 3) or ``"higham"``.
    context:
        :class:`~repro.parallel.ExecutionContext` over which the
        ``C(m, 2)`` pairwise tau computations fan out (``None``: serial).

    Returns
    -------
    A positive-definite correlation matrix with unit diagonal.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected an (n, m) matrix, got shape {values.shape}")
    n, m = values.shape
    if m < 2:
        return np.eye(m)
    if n < 2:
        raise ValueError("need at least two records to estimate correlations")
    check_positive("epsilon2", epsilon2)
    if repair not in ("eigenvalue", "higham"):
        raise ValueError(
            f"unknown repair {repair!r}; expected 'eigenvalue' or 'higham'"
        )
    gen = as_generator(rng)
    pairs = pairs_count(m)

    if subsample == "auto":
        n_hat = kendall_subsample_size(m, epsilon2, cap=n)
        n_hat = min(n, max(n_hat, MIN_AUTO_SUBSAMPLE))
    elif subsample is None:
        n_hat = n
    else:
        n_hat = min(n, int(subsample))
        if n_hat < 2:
            raise ValueError(f"subsample size must be >= 2, got {subsample}")

    if n_hat < n:
        with trace.span("subsample", n=n, n_hat=n_hat):
            indices = gen.choice(n, size=n_hat, replace=False)
            sample = values[indices]
    else:
        sample = values

    with trace.span("kendall_matrix", m=m, n=n_hat, pairs=pairs):
        tau = kendall_tau_matrix(sample, method=tau_method, context=context)

    sensitivity = kendall_tau_sensitivity(n_hat)
    per_pair_epsilon = epsilon2 / pairs  # 0.0 for a small enough subnormal ε₂
    scale = sensitivity / per_pair_epsilon if per_pair_epsilon > 0 else math.inf
    with trace.span("laplace_noise", pairs=pairs):
        noisy_tau = tau.copy()
        upper = np.triu_indices(m, k=1)
        noise = gen.laplace(0.0, scale, size=len(upper[0]))
        noisy_tau[upper] += noise
        noisy_tau.T[upper] = noisy_tau[upper]
        noisy_tau = np.clip(noisy_tau, -1.0, 1.0)
        np.fill_diagonal(noisy_tau, 1.0)

    correlation = correlation_from_tau(noisy_tau)

    if is_positive_definite(correlation):
        return correlation
    with trace.span("psd_repair", method=repair):
        if repair == "eigenvalue":
            return make_positive_definite(correlation)
        return higham_nearest_correlation(correlation)
