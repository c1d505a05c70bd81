"""Non-private copula models.

These are the statistical substrate under the DP pipeline: the same
estimate-transform-sample machinery, without noise.  They serve three
purposes: (a) test oracles — DPCopula at huge ε must converge to these;
(b) the baseline for quantifying the *cost of privacy* in the ablation
benchmarks; (c) the paper's future-work extension (the t copula with
AIC-based selection, Section 3.2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.core.sampling import BatchedMarginInverter, sample_synthetic
from repro.stats.copula_math import cholesky_factor
from repro.stats.correlation import correlation_from_tau
from repro.stats.ecdf import HistogramCDF, pseudo_copula_transform
from repro.stats.kendall import kendall_tau_matrix
from repro.stats.psd_repair import is_positive_definite, make_positive_definite
from repro.data.dataset import Dataset, Schema
from repro.utils import RngLike, as_generator, check_matrix_square

_CLIP = 1e-12


class GaussianCopulaModel:
    """Semi-parametric Gaussian copula (Definition 3.4), non-private.

    ``fit`` estimates the correlation matrix by the Kendall/Greiner route
    (Equation 4) and keeps exact histogram margins; ``sample`` runs
    Algorithm 3 (:func:`~repro.core.sampling.sample_synthetic`) on these
    noise-free estimates.
    """

    def __init__(self, estimator: str = "kendall"):
        if estimator not in ("kendall", "normal_scores"):
            raise ValueError(
                f"unknown estimator {estimator!r}; expected 'kendall' or "
                "'normal_scores'"
            )
        self.estimator = estimator
        self.correlation_: Optional[np.ndarray] = None
        self._margins: Optional[Sequence[HistogramCDF]] = None
        self._schema: Optional[Schema] = None
        self._n_records: Optional[int] = None

    def fit(self, dataset: Dataset) -> "GaussianCopulaModel":
        if self.estimator == "kendall":
            tau = kendall_tau_matrix(dataset.values)
            correlation = correlation_from_tau(tau)
        else:
            from repro.stats.correlation import normal_scores_correlation

            pseudo = pseudo_copula_transform(dataset.values.astype(float))
            correlation = normal_scores_correlation(pseudo)
        if not is_positive_definite(correlation):
            correlation = make_positive_definite(correlation)
        self.correlation_ = correlation
        self._margins = [
            HistogramCDF(dataset.marginal_counts(j)) for j in range(dataset.dimensions)
        ]
        self._schema = dataset.schema
        self._n_records = dataset.n_records
        return self

    def _require_fitted(self) -> None:
        if self.correlation_ is None:
            raise RuntimeError("GaussianCopulaModel is not fitted")

    def sample(self, n: Optional[int] = None, rng: RngLike = None) -> Dataset:
        self._require_fitted()
        if n is None:
            n = self._n_records
        return sample_synthetic(self.correlation_, self._margins, n, self._schema, rng)

    def loglikelihood(self, dataset: Dataset) -> float:
        """Copula log-likelihood of (the pseudo-copula transform of) data."""
        self._require_fitted()
        from repro.stats.copula_math import gaussian_copula_logdensity

        pseudo = pseudo_copula_transform(dataset.values.astype(float))
        return float(gaussian_copula_logdensity(pseudo, self.correlation_).sum())

    def n_parameters(self) -> int:
        self._require_fitted()
        m = self.correlation_.shape[0]
        return m * (m - 1) // 2


class EmpiricalCopulaModel:
    """The empirical copula (paper Section 3.2's non-parametric option).

    Keeps the full rank structure of the fitted data: sampling draws a
    bootstrap row of the stored pseudo-copula observations (jittered
    within rank resolution so repeated samples don't tie exactly) and
    pushes it through the margins.  Captures *any* dependence — including
    non-elliptical ones no parametric copula fits — at the cost of
    memorizing the ranks, which is why the DP pipeline cannot use it
    directly (the rank matrix is not a private release).
    """

    def __init__(self, jitter: float = 0.5):
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {jitter}")
        self.jitter = jitter
        self._pseudo: Optional[np.ndarray] = None
        self._margins: Optional[Sequence[HistogramCDF]] = None
        self._schema: Optional[Schema] = None
        self._n_records: Optional[int] = None

    def fit(self, dataset: Dataset) -> "EmpiricalCopulaModel":
        self._pseudo = pseudo_copula_transform(dataset.values.astype(float))
        self._margins = [
            HistogramCDF(dataset.marginal_counts(j)) for j in range(dataset.dimensions)
        ]
        self._schema = dataset.schema
        self._n_records = dataset.n_records
        return self

    def _require_fitted(self) -> None:
        if self._pseudo is None:
            raise RuntimeError("EmpiricalCopulaModel is not fitted")

    def sample(self, n: Optional[int] = None, rng: RngLike = None) -> Dataset:
        self._require_fitted()
        if n is None:
            n = self._n_records
        gen = as_generator(rng)
        rows = gen.integers(0, self._pseudo.shape[0], size=int(n))
        u = self._pseudo[rows].copy()
        if self.jitter > 0:
            resolution = self.jitter / (self._pseudo.shape[0] + 1.0)
            u += gen.uniform(-resolution, resolution, size=u.shape)
            u = np.clip(u, 1e-9, 1.0 - 1e-9)
        return Dataset(BatchedMarginInverter(self._margins)(u), self._schema)


class TCopulaModel:
    """The t copula (paper future work): Gaussian-like with tail dependence.

    The correlation matrix comes from the same Kendall/Greiner relation
    (valid for all elliptical copulas); the degrees of freedom ``ν`` are
    chosen by profile likelihood over a grid.
    """

    def __init__(self, df_grid: Sequence[float] = (2, 3, 4, 6, 8, 12, 20, 30)):
        self.df_grid = tuple(float(v) for v in df_grid)
        self.correlation_: Optional[np.ndarray] = None
        self.df_: Optional[float] = None
        self._margins: Optional[Sequence[HistogramCDF]] = None
        self._schema: Optional[Schema] = None
        self._n_records: Optional[int] = None

    @staticmethod
    def logdensity(u: np.ndarray, correlation: np.ndarray, df: float) -> np.ndarray:
        """Per-row log-density of the t copula with parameters (P, ν)."""
        correlation = check_matrix_square("correlation", correlation)
        u = np.atleast_2d(np.clip(np.asarray(u, dtype=float), _CLIP, 1 - _CLIP))
        m = correlation.shape[0]
        t_scores = sps.t.ppf(u, df)
        sign, logdet = np.linalg.slogdet(correlation)
        if sign <= 0:
            raise np.linalg.LinAlgError("correlation matrix is not positive definite")
        inverse = np.linalg.inv(correlation)
        quadratic = np.einsum("ni,ij,nj->n", t_scores, inverse, t_scores)
        from scipy.special import gammaln

        joint = (
            gammaln((df + m) / 2.0)
            + (m - 1) * gammaln(df / 2.0)
            - m * gammaln((df + 1) / 2.0)
            - 0.5 * logdet
            - (df + m) / 2.0 * np.log1p(quadratic / df)
        )
        marginals = ((df + 1) / 2.0) * np.log1p(t_scores**2 / df).sum(axis=1)
        return joint + marginals

    def fit(self, dataset: Dataset) -> "TCopulaModel":
        tau = kendall_tau_matrix(dataset.values)
        correlation = correlation_from_tau(tau)
        if not is_positive_definite(correlation):
            correlation = make_positive_definite(correlation)
        pseudo = pseudo_copula_transform(dataset.values.astype(float))
        best_df, best_ll = None, -np.inf
        for df in self.df_grid:
            ll = float(self.logdensity(pseudo, correlation, df).sum())
            if ll > best_ll:
                best_df, best_ll = df, ll
        self.correlation_ = correlation
        self.df_ = best_df
        self._margins = [
            HistogramCDF(dataset.marginal_counts(j)) for j in range(dataset.dimensions)
        ]
        self._schema = dataset.schema
        self._n_records = dataset.n_records
        return self

    def _require_fitted(self) -> None:
        if self.correlation_ is None:
            raise RuntimeError("TCopulaModel is not fitted")

    def sample(self, n: Optional[int] = None, rng: RngLike = None) -> Dataset:
        self._require_fitted()
        if n is None:
            n = self._n_records
        gen = as_generator(rng)
        m = self.correlation_.shape[0]
        cholesky = cholesky_factor(self.correlation_)
        normals = gen.standard_normal((int(n), m)) @ cholesky.T
        chi2 = gen.chisquare(self.df_, size=int(n))
        t_samples = normals / np.sqrt(chi2 / self.df_)[:, None]
        uniforms = sps.t.cdf(t_samples, self.df_)
        return Dataset(BatchedMarginInverter(self._margins)(uniforms), self._schema)

    def loglikelihood(self, dataset: Dataset) -> float:
        self._require_fitted()
        pseudo = pseudo_copula_transform(dataset.values.astype(float))
        return float(self.logdensity(pseudo, self.correlation_, self.df_).sum())

    def n_parameters(self) -> int:
        self._require_fitted()
        m = self.correlation_.shape[0]
        return m * (m - 1) // 2 + 1  # + degrees of freedom
