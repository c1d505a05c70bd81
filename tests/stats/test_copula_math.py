"""Tests for the Gaussian-copula density (Eq. 1) and pairwise MLE."""

import numpy as np
import pytest

from repro.stats.copula_math import (
    bivariate_copula_loglikelihood,
    copula_mle_matrix,
    gaussian_copula_logdensity,
    pairwise_copula_mle,
)
from repro.stats.ecdf import pseudo_copula_transform


def _gaussian_copula_sample(correlation, n, seed):
    rng = np.random.default_rng(seed)
    latent = rng.multivariate_normal(
        np.zeros(correlation.shape[0]), correlation, size=n
    )
    from scipy import stats as sps

    return sps.norm.cdf(latent)


class TestLogdensity:
    def test_identity_correlation_gives_zero(self):
        """With P = I the density of Eq. (1) is identically 1."""
        u = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        out = gaussian_copula_logdensity(u, np.eye(2))
        assert np.allclose(out, 0.0)

    def test_matches_bivariate_closed_form(self):
        rho = 0.6
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        u = np.array([[0.3, 0.7], [0.25, 0.9]])
        from scipy import stats as sps

        z = sps.norm.ppf(u)
        expected = np.array(
            [
                -0.5 * np.log(1 - rho**2)
                - (rho**2 * (a**2 + b**2) - 2 * rho * a * b) / (2 * (1 - rho**2))
                for a, b in z
            ]
        )
        out = gaussian_copula_logdensity(u, correlation)
        assert np.allclose(out, expected)

    def test_dependent_data_scores_higher_under_true_model(self):
        correlation = np.array([[1.0, 0.8], [0.8, 1.0]])
        u = _gaussian_copula_sample(correlation, 2000, 0)
        ll_true = gaussian_copula_logdensity(u, correlation).sum()
        ll_independent = gaussian_copula_logdensity(u, np.eye(2)).sum()
        assert ll_true > ll_independent

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_copula_logdensity(np.array([[0.5, 0.5, 0.5]]), np.eye(2))

    def test_rejects_indefinite_correlation(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_copula_logdensity(np.array([[0.5, 0.5]]), bad)


class TestBivariateLoglikelihood:
    def test_maximized_near_true_rho(self):
        correlation = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = _gaussian_copula_sample(correlation, 4000, 1)
        from scipy import stats as sps

        z1, z2 = sps.norm.ppf(u[:, 0]), sps.norm.ppf(u[:, 1])
        grid = np.linspace(-0.95, 0.95, 39)
        values = [bivariate_copula_loglikelihood(r, z1, z2) for r in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.5, abs=0.1)


class TestPairwiseMLE:
    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.4, 0.9])
    def test_recovers_true_correlation(self, rho):
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        u = _gaussian_copula_sample(correlation, 6000, 2)
        estimate = pairwise_copula_mle(u[:, 0], u[:, 1])
        assert estimate == pytest.approx(rho, abs=0.05)

    def test_estimate_within_open_interval(self):
        u = _gaussian_copula_sample(np.array([[1.0, 0.99], [0.99, 1.0]]), 500, 3)
        estimate = pairwise_copula_mle(u[:, 0], u[:, 1])
        assert -1.0 < estimate < 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_copula_mle(np.array([0.1, 0.2]), np.array([0.3]))


class TestMLEMatrix:
    def test_recovers_matrix(self):
        correlation = np.array(
            [[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]]
        )
        u = _gaussian_copula_sample(correlation, 5000, 4)
        estimate = copula_mle_matrix(u)
        assert np.abs(estimate - correlation).max() < 0.06

    def test_works_on_pseudo_copula_of_discrete_data(self, synthetic_4d):
        u = pseudo_copula_transform(synthetic_4d.values.astype(float))
        estimate = copula_mle_matrix(u)
        assert np.allclose(np.diag(estimate), 1.0)
        assert np.abs(estimate).max() <= 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            copula_mle_matrix(np.array([0.5, 0.5]))

    def test_entries_are_the_pairwise_mle(self):
        correlation = np.array(
            [[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]]
        )
        u = _gaussian_copula_sample(correlation, 800, 5)
        matrix = copula_mle_matrix(u)
        for j, k in [(0, 1), (0, 2), (1, 2)]:
            pairwise = pairwise_copula_mle(u[:, j], u[:, k])
            assert matrix[j, k] == matrix[k, j] == pytest.approx(pairwise, abs=1e-6)

    def test_failed_optimizer_falls_back_to_the_clipped_initial_value(
        self, monkeypatch
    ):
        from scipy import optimize

        monkeypatch.setattr(
            optimize,
            "minimize_scalar",
            lambda *args, **kwargs: optimize.OptimizeResult(x=0.0, success=False),
        )
        u = _gaussian_copula_sample(np.array([[1.0, 0.6], [0.6, 1.0]]), 4000, 6)
        # Default initial value: the normal-scores correlation.
        fallback = pairwise_copula_mle(u[:, 0], u[:, 1])
        assert fallback == pytest.approx(0.6, abs=0.05)
        # The matrix dots column views: equal up to summation order.
        assert copula_mle_matrix(u)[0, 1] == pytest.approx(fallback, abs=1e-12)
        assert pairwise_copula_mle(u[:, 0], u[:, 1], initial=1.5) == 0.9999
        assert pairwise_copula_mle(u[:, 0], u[:, 1], initial=-3.0) == -0.9999


class TestBivariateNormalCdf:
    def test_matches_scipy_reference(self):
        from scipy import stats as sps

        from repro.stats.copula_math import bivariate_normal_cdf

        grid = [-2.0, -0.5, 0.0, 0.7, 1.5]
        for rho in (-0.8, -0.3, 0.2, 0.6, 0.95):
            dist = sps.multivariate_normal(
                mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]]
            )
            for h in grid:
                for k in grid:
                    assert bivariate_normal_cdf(h, k, rho) == pytest.approx(
                        float(dist.cdf([h, k])), abs=1e-6
                    )

    def test_independence_factorizes(self):
        from scipy import stats as sps

        from repro.stats.copula_math import bivariate_normal_cdf

        h, k = 0.4, -1.1
        assert bivariate_normal_cdf(h, k, 0.0) == pytest.approx(
            sps.norm.cdf(h) * sps.norm.cdf(k), abs=1e-12
        )

    def test_comonotone_and_antitone_limits(self):
        from scipy import stats as sps

        from repro.stats.copula_math import bivariate_normal_cdf

        h, k = 0.3, -0.2
        assert bivariate_normal_cdf(h, k, 1.0) == pytest.approx(
            min(sps.norm.cdf(h), sps.norm.cdf(k))
        )
        assert bivariate_normal_cdf(h, k, -1.0) == pytest.approx(
            max(sps.norm.cdf(h) + sps.norm.cdf(k) - 1.0, 0.0)
        )

    def test_symmetric_in_arguments(self):
        from repro.stats.copula_math import bivariate_normal_cdf

        assert bivariate_normal_cdf(0.7, -0.4, 0.5) == pytest.approx(
            bivariate_normal_cdf(-0.4, 0.7, 0.5), abs=1e-14
        )

    def test_broadcasts_and_is_bitwise_deterministic(self):
        from repro.stats.copula_math import bivariate_normal_cdf

        h = np.linspace(-2, 2, 5)
        k = np.linspace(-1, 1, 5)
        first = bivariate_normal_cdf(h, k, 0.42)
        second = bivariate_normal_cdf(h, k, 0.42)
        assert first.shape == (5,)
        np.testing.assert_array_equal(first, second)

    def test_rejects_rho_out_of_range(self):
        from repro.stats.copula_math import bivariate_normal_cdf

        with pytest.raises(ValueError):
            bivariate_normal_cdf(0.0, 0.0, 1.5)
