"""Gaussian-copula density and maximum-likelihood estimation.

Equation (1) of the paper gives the Gaussian-copula density

``c_P(u) = |P|^{-1/2} exp(-z' (P⁻¹ - I) z / 2)``, ``z = Φ⁻¹(u)``.

Maximizing the full joint pseudo-likelihood over an m×m correlation matrix
is hard (the paper notes this and motivates the Kendall estimator); the
standard practical MLE proceeds pairwise — each off-diagonal coefficient
is estimated from its bivariate copula likelihood, for which the score
equation is one-dimensional.  That is what Algorithm 2 computes on each
data partition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize, stats as sps

from repro.stats.psd_repair import (
    DEFAULT_EIGENVALUE_FLOOR,
    is_positive_definite,
    make_positive_definite,
)
from repro.utils import check_matrix_square

_PROBIT_CLIP = 1e-12

#: Eigenvalue floor for covariance (non-correlation) factorization; the
#: conditional sampler's historical constant, kept for bitwise stability.
COVARIANCE_EIGENVALUE_FLOOR = 1e-10


def cholesky_factor(
    matrix: np.ndarray,
    repair: str = "correlation",
    floor: float = None,
) -> np.ndarray:
    """The library's one Cholesky-with-jitter-floor idiom.

    Every Gaussian(-like) sampler needs the lower-triangular factor
    ``L`` with ``L Lᵀ = M`` of a matrix that may have drifted slightly
    indefinite (Laplace noise on a correlation, floating-point error in
    a Schur complement).  This helper centralizes the repair-then-factor
    step so the floor semantics cannot diverge between call sites.

    Parameters
    ----------
    matrix:
        The symmetric matrix to factor.
    repair:
        ``"correlation"`` (default) applies Algorithm 5's eigenvalue
        repair — only when an eigenvalue check fails — and renormalizes
        the diagonal to 1 (:func:`~repro.stats.psd_repair.make_positive_definite`).
        ``"covariance"`` unconditionally floors the eigenvalues and
        reassembles *without* renormalizing (the diagonal is meaningful
        for a covariance).  ``"none"`` factors as-is and lets
        ``np.linalg.cholesky`` raise on an indefinite input.
    floor:
        Eigenvalue floor; defaults to
        :data:`~repro.stats.psd_repair.DEFAULT_EIGENVALUE_FLOOR` for
        ``"correlation"`` and :data:`COVARIANCE_EIGENVALUE_FLOOR` for
        ``"covariance"``.

    Returns
    -------
    The lower-triangular Cholesky factor of the (repaired) matrix.
    """
    matrix = check_matrix_square("matrix", matrix)
    if repair == "correlation":
        if not is_positive_definite(matrix):
            matrix = make_positive_definite(
                matrix,
                floor=DEFAULT_EIGENVALUE_FLOOR if floor is None else floor,
            )
    elif repair == "covariance":
        if floor is None:
            floor = COVARIANCE_EIGENVALUE_FLOOR
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
        matrix = (eigenvectors * np.clip(eigenvalues, floor, None)) @ eigenvectors.T
    elif repair != "none":
        raise ValueError(
            f"repair must be 'correlation', 'covariance' or 'none', got {repair!r}"
        )
    return np.linalg.cholesky(matrix)


def _probit(u: np.ndarray) -> np.ndarray:
    """Numerically safe ``Φ⁻¹`` on pseudo-copula data."""
    return sps.norm.ppf(np.clip(np.asarray(u, dtype=float), _PROBIT_CLIP, 1.0 - _PROBIT_CLIP))


#: Gauss-Legendre node count for the bivariate normal CDF quadrature.
#: 48 nodes keep the absolute error below ~1e-12 for |ρ| ≤ 0.99 (the
#: integrand is smooth on the integration path; only |ρ| → 1 degrades).
_BVN_QUADRATURE_NODES = 48

#: Probit scores are clipped to ±8 before quadrature: Φ(±8) differs from
#: 0/1 by < 1e-15, and finite scores keep the integrand free of inf·0.
_BVN_SCORE_CLIP = 8.0


def bivariate_normal_cdf(h, k, rho: float) -> np.ndarray:
    """``Φ₂(h, k; ρ) = P(Z₁ ≤ h, Z₂ ≤ k)`` for standard bivariate normals.

    Deterministic Gauss-Legendre quadrature of Drezner's identity

    ``Φ₂(h, k; ρ) = Φ(h)Φ(k) +
    (1/2π) ∫₀^ρ exp(−(h² − 2 t h k + k²) / (2(1−t²))) / √(1−t²) dt``

    so repeated evaluations are bitwise identical (scipy's
    ``multivariate_normal.cdf`` integrates adaptively and is not).  Used
    to turn a released Gaussian-copula model (DP margins + repaired
    correlation ρ) into its *implied* two-way marginal cell
    probabilities — the reference distribution the utility probe's
    k-way marginal gauge scores samples against.

    ``h`` and ``k`` broadcast against each other; ``rho`` is scalar.
    ``|ρ| = 1`` falls back to the exact comonotone/antitone formulas.
    """
    h = np.clip(np.asarray(h, dtype=float), -_BVN_SCORE_CLIP, _BVN_SCORE_CLIP)
    k = np.clip(np.asarray(k, dtype=float), -_BVN_SCORE_CLIP, _BVN_SCORE_CLIP)
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    phi_h = sps.norm.cdf(h)
    phi_k = sps.norm.cdf(k)
    if rho >= 1.0 - 1e-12:
        return np.minimum(phi_h, phi_k)
    if rho <= -1.0 + 1e-12:
        return np.maximum(phi_h + phi_k - 1.0, 0.0)
    if rho == 0.0:
        return phi_h * phi_k
    nodes, weights = np.polynomial.legendre.leggauss(_BVN_QUADRATURE_NODES)
    # Map [-1, 1] onto [0, rho].
    t = 0.5 * rho * (nodes + 1.0)
    scale = 0.5 * rho * weights
    one_minus_t2 = 1.0 - t * t
    hh = h[..., np.newaxis]
    kk = k[..., np.newaxis]
    integrand = np.exp(
        -(hh * hh - 2.0 * t * hh * kk + kk * kk) / (2.0 * one_minus_t2)
    ) / np.sqrt(one_minus_t2)
    correction = (integrand * scale).sum(axis=-1) / (2.0 * np.pi)
    return np.clip(phi_h * phi_k + correction, 0.0, 1.0)


def gaussian_copula_logdensity(u: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """Log of Eq. (1) evaluated at each row of pseudo-copula data ``u``.

    Parameters
    ----------
    u:
        ``(n, m)`` pseudo-copula observations in ``(0, 1)``.
    correlation:
        Positive-definite ``m × m`` correlation matrix ``P``.

    Returns
    -------
    ``(n,)`` array of per-observation log-densities.
    """
    correlation = check_matrix_square("correlation", correlation)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != correlation.shape[0]:
        raise ValueError(
            f"data has {u.shape[1]} columns but correlation is "
            f"{correlation.shape[0]}x{correlation.shape[0]}"
        )
    z = _probit(u)
    sign, logdet = np.linalg.slogdet(correlation)
    if sign <= 0:
        raise np.linalg.LinAlgError("correlation matrix is not positive definite")
    inverse_minus_identity = np.linalg.inv(correlation) - np.eye(correlation.shape[0])
    quadratic = np.einsum("ni,ij,nj->n", z, inverse_minus_identity, z)
    return -0.5 * logdet - 0.5 * quadratic


def bivariate_copula_loglikelihood(rho: float, z1: np.ndarray, z2: np.ndarray) -> float:
    """Summed bivariate Gaussian-copula log-likelihood at correlation ``rho``.

    Works directly on probit scores ``z = Φ⁻¹(u)`` for speed: for the
    bivariate case Eq. (1) reduces to

    ``-½ log(1-ρ²) - (ρ² (z₁² + z₂²) - 2ρ z₁ z₂) / (2 (1-ρ²))``.
    """
    rho = float(np.clip(rho, -0.999999, 0.999999))
    one_minus = 1.0 - rho * rho
    s11 = float(np.dot(z1, z1))
    s22 = float(np.dot(z2, z2))
    s12 = float(np.dot(z1, z2))
    n = z1.size
    return -0.5 * n * np.log(one_minus) - (rho * rho * (s11 + s22) - 2.0 * rho * s12) / (
        2.0 * one_minus
    )


def _bivariate_mle(
    z1: np.ndarray, z2: np.ndarray, initial: Optional[float] = None
) -> float:
    """Bounded maximization of the bivariate likelihood on probit scores.

    Falls back to ``initial`` (default: the normal-scores correlation,
    the one-step estimator) if the optimizer reports failure.
    """
    result = optimize.minimize_scalar(
        lambda r: -bivariate_copula_loglikelihood(r, z1, z2),
        bounds=(-0.9999, 0.9999),
        method="bounded",
        options={"xatol": 1e-7},
    )
    if not result.success:  # pragma: no cover - scipy bounded rarely fails
        if initial is None:
            denom = np.sqrt(np.dot(z1, z1) * np.dot(z2, z2))
            initial = float(np.dot(z1, z2) / denom) if denom > 0 else 0.0
        return float(np.clip(initial, -0.9999, 0.9999))
    return float(result.x)


def pairwise_copula_mle(
    u1: np.ndarray,
    u2: np.ndarray,
    initial: float = None,
) -> float:
    """MLE of the bivariate Gaussian-copula correlation from pseudo-data.

    Bounded scalar maximization of the closed-form bivariate likelihood;
    ``initial`` (default: the normal-scores correlation) stands in if
    the optimizer fails.
    """
    z1 = _probit(u1)
    z2 = _probit(u2)
    if z1.shape != z2.shape or z1.ndim != 1:
        raise ValueError("u1 and u2 must be 1-D arrays of equal length")
    return _bivariate_mle(z1, z2, initial)


def copula_mle_matrix(pseudo_copula: np.ndarray) -> np.ndarray:
    """Pairwise-MLE estimate of the full copula correlation matrix."""
    u = np.asarray(pseudo_copula, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"expected 2-D pseudo-copula data, got shape {u.shape}")
    m = u.shape[1]
    matrix = np.eye(m)
    z = _probit(u)
    for j in range(m):
        for k in range(j + 1, m):
            matrix[j, k] = matrix[k, j] = _bivariate_mle(z[:, j], z[:, k])
    return matrix
