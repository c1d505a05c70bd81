"""Copula goodness-of-fit via the Rosenblatt transform.

Section 3.2 of the paper: "we can use many approaches to test the
goodness-of-fit".  The Rosenblatt probability-integral transform is the
classical one: under the hypothesized Gaussian copula with correlation
``P``, mapping each observation through the sequence of conditional CDFs

``e_1 = u_1,  e_k = P(U_k <= u_k | U_1..U_{k-1})``

yields vectors that are i.i.d. uniform on ``[0,1]^m`` with *independent*
coordinates.  Deviations from joint uniformity therefore measure misfit.
We score them with a Cramér–von Mises statistic on the per-coordinate
uniformity plus a dependence check on the transformed coordinates, and
calibrate the p-value by parametric bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from repro.stats.kendall import kendall_tau_matrix
from repro.utils import RngLike, as_generator, check_matrix_square

_CLIP = 1e-12


def rosenblatt_transform(u: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """Rosenblatt transform of pseudo-copula data under a Gaussian copula.

    For the Gaussian copula the conditional CDFs have closed form in the
    latent space: with ``z = Φ⁻¹(u)`` and ``L`` the Cholesky factor of
    ``P``, the innovations ``e = L⁻¹ z`` are i.i.d. standard normal under
    the model, so ``Φ(e)`` are i.i.d. uniform.
    """
    correlation = check_matrix_square("correlation", correlation)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != correlation.shape[0]:
        raise ValueError(
            f"data has {u.shape[1]} columns but correlation is "
            f"{correlation.shape[0]}x{correlation.shape[0]}"
        )
    z = sps.norm.ppf(np.clip(u, _CLIP, 1.0 - _CLIP))
    cholesky = np.linalg.cholesky(correlation)
    e = np.linalg.solve(cholesky, z.T).T
    return sps.norm.cdf(e)


def cramer_von_mises_uniform(values: np.ndarray) -> float:
    """Cramér–von Mises distance of a 1-D sample from U(0, 1)."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    grid = (2 * np.arange(1, n + 1) - 1) / (2.0 * n)
    return float(1.0 / (12 * n) + np.sum((values - grid) ** 2))


def _statistic(u: np.ndarray, correlation: np.ndarray) -> float:
    """Combined misfit score.

    Three components, each zero in expectation under the model:
    per-coordinate uniformity (CvM), residual rank dependence of the
    transformed coordinates (max |tau|), and a radial/tail probe — the
    squared latent radius ``Σ Φ⁻¹(e_j)²`` must be χ²_m, and heavy-tailed
    alternatives (e.g. t copulas) inflate it detectably even when the
    coordinatewise margins look uniform.
    """
    transformed = rosenblatt_transform(u, correlation)
    m = u.shape[1]
    uniformity = np.mean(
        [cramer_von_mises_uniform(transformed[:, j]) for j in range(m)]
    )
    if m >= 2:
        tau = kendall_tau_matrix(transformed)
        off_diagonal = np.abs(tau[np.triu_indices(m, 1)]).max()
    else:
        off_diagonal = 0.0
    latent = sps.norm.ppf(np.clip(transformed, _CLIP, 1.0 - _CLIP))
    radius_sq = np.sum(latent**2, axis=1)
    radial = cramer_von_mises_uniform(sps.chi2.cdf(radius_sq, df=m))
    return float(uniformity + off_diagonal + 4.0 * radial)


def copula_probe_statistic(
    pseudo_copula: np.ndarray, correlation: np.ndarray
) -> float:
    """The Rosenblatt misfit score alone — no bootstrap, no p-value.

    The continuous utility probes (``repro.telemetry.observatory``) need
    a cheap, deterministic misfit number per probe cycle; the bootstrap
    calibration of :func:`gaussian_copula_gof` is ~100x the cost and
    only needed for a hypothesis test.  Smaller is better; the score is
    comparable across cycles of the same model/sample size.
    """
    u = np.atleast_2d(np.asarray(pseudo_copula, dtype=float))
    correlation = check_matrix_square("correlation", correlation)
    return _statistic(u, correlation)


@dataclass(frozen=True)
class GoodnessOfFitResult:
    """Outcome of the Gaussian-copula goodness-of-fit test."""

    statistic: float
    p_value: float
    n_bootstrap: int

    def rejects(self, alpha: float = 0.05) -> bool:
        """Whether the Gaussian-copula hypothesis is rejected at ``alpha``."""
        return self.p_value < alpha


def gaussian_copula_gof(
    pseudo_copula: np.ndarray,
    correlation: np.ndarray,
    n_bootstrap: int = 100,
    rng: RngLike = None,
) -> GoodnessOfFitResult:
    """Parametric-bootstrap goodness-of-fit test for a Gaussian copula.

    The observed Rosenblatt misfit statistic is compared against its
    distribution under the hypothesized model (fresh samples from the
    Gaussian copula with the same ``correlation`` and sample size).
    """
    u = np.atleast_2d(np.asarray(pseudo_copula, dtype=float))
    correlation = check_matrix_square("correlation", correlation)
    gen = as_generator(rng)
    observed = _statistic(u, correlation)

    n, m = u.shape
    cholesky = np.linalg.cholesky(correlation)
    exceed = 0
    for _ in range(n_bootstrap):
        latent = gen.standard_normal((n, m)) @ cholesky.T
        simulated = sps.norm.cdf(latent)
        if _statistic(simulated, correlation) >= observed:
            exceed += 1
    p_value = (exceed + 1) / (n_bootstrap + 1)
    return GoodnessOfFitResult(
        statistic=observed, p_value=float(p_value), n_bootstrap=n_bootstrap
    )
