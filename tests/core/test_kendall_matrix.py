"""Tests for Algorithm 5 (DP Kendall correlation matrix)."""

import numpy as np
import pytest

from repro.core.kendall_matrix import dp_kendall_correlation, kendall_subsample_size
from repro.stats.psd_repair import is_positive_definite


def _correlated_sample(rho, n, seed):
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)


class TestSubsampleSize:
    def test_paper_rule(self):
        # n̂ = ceil(50 * m(m-1) / eps2)
        assert kendall_subsample_size(8, 1.0) == 2800
        assert kendall_subsample_size(2, 0.1) == 1000

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            kendall_subsample_size(4, 0.0)

    @pytest.mark.parametrize("epsilon2", [1e-306, 1e-310, 5e-324])
    def test_an_infinite_size_saturates_at_the_cap(self, epsilon2):
        assert kendall_subsample_size(16, epsilon2, cap=25_000) == 25_000

    def test_the_cap_is_the_minimum_for_ordinary_epsilon(self):
        for epsilon2 in (1e-3, 0.01, 0.1, 1 / 9, 1.0, 7.3, 1e6):
            for cap in (2, 999, 1000, 2800, 25_000, 10**9):
                for m in (2, 8, 16):
                    assert kendall_subsample_size(m, epsilon2, cap=cap) == min(
                        kendall_subsample_size(m, epsilon2), cap
                    )


class TestDPKendallCorrelation:
    @pytest.mark.parametrize("epsilon2", [1e-306, 1e-310, 5e-324])
    def test_tiny_epsilon_fits_on_every_record(self, epsilon2):
        """A size that overflows saturates at n (and a per-pair ε that
        underflows to 0 gives an infinite noise scale, not a crash)."""
        sample = np.random.default_rng(4).standard_normal((400, 4))
        matrix = dp_kendall_correlation(sample, epsilon2, rng=5)
        assert np.allclose(np.diag(matrix), 1.0)
        assert is_positive_definite(matrix)

    def test_output_is_pd_correlation(self, synthetic_4d):
        matrix = dp_kendall_correlation(synthetic_4d.values, 1.0, rng=0)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.allclose(matrix, matrix.T)
        assert is_positive_definite(matrix)

    def test_recovers_correlation_at_high_epsilon(self):
        sample = _correlated_sample(0.7, 5000, 1)
        matrix = dp_kendall_correlation(sample, 1e6, rng=2, subsample=None)
        assert matrix[0, 1] == pytest.approx(0.7, abs=0.05)

    def test_noise_scale_shrinks_with_epsilon(self):
        sample = _correlated_sample(0.5, 3000, 3)
        errors = {}
        for epsilon in (0.05, 5.0):
            estimates = [
                dp_kendall_correlation(sample, epsilon, rng=seed, subsample=None)[0, 1]
                for seed in range(20)
            ]
            errors[epsilon] = np.std(estimates)
        assert errors[5.0] < errors[0.05]

    def test_subsample_auto_uses_paper_rule(self):
        sample = _correlated_sample(0.6, 50_000, 4)
        # eps2 = 1.0, m = 2: n̂ = 100 << n; estimate should still be sane.
        matrix = dp_kendall_correlation(sample, 1.0, rng=5, subsample="auto")
        assert -1.0 <= matrix[0, 1] <= 1.0

    def test_explicit_subsample_size(self):
        sample = _correlated_sample(0.6, 10_000, 6)
        matrix = dp_kendall_correlation(sample, 10.0, rng=7, subsample=500)
        assert is_positive_definite(matrix)

    def test_single_column_is_identity(self):
        matrix = dp_kendall_correlation(np.zeros((100, 1)), 1.0, rng=8)
        assert (matrix == np.eye(1)).all()

    def test_entries_clipped_into_unit_range(self):
        # Tiny epsilon: huge noise, but sin transform keeps entries valid.
        sample = _correlated_sample(0.2, 200, 9)
        matrix = dp_kendall_correlation(sample, 0.001, rng=10, subsample=None)
        assert np.abs(matrix).max() <= 1.0 + 1e-9
        assert is_positive_definite(matrix)

    def test_higham_repair_option(self):
        sample = np.random.default_rng(11).standard_normal((200, 6))
        matrix = dp_kendall_correlation(
            sample, 0.01, rng=12, subsample=None, repair="higham"
        )
        assert is_positive_definite(matrix)

    def test_rejects_unknown_repair(self, synthetic_4d):
        with pytest.raises(ValueError):
            dp_kendall_correlation(synthetic_4d.values, 1.0, repair="magic")

    def test_rejects_tiny_subsample(self, synthetic_4d):
        with pytest.raises(ValueError):
            dp_kendall_correlation(synthetic_4d.values, 1.0, subsample=1)

    def test_rejects_single_record(self):
        with pytest.raises(ValueError):
            dp_kendall_correlation(np.zeros((1, 3)), 1.0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            dp_kendall_correlation(np.zeros(10), 1.0)

    def test_deterministic_given_seed(self, synthetic_4d):
        a = dp_kendall_correlation(synthetic_4d.values, 1.0, rng=13)
        b = dp_kendall_correlation(synthetic_4d.values, 1.0, rng=13)
        assert np.allclose(a, b)
