"""Tests for the release-diagnostics planner."""

import numpy as np
import pytest

from repro.core.diagnostics import compare_methods, plan_release


class TestPlanRelease:
    def test_budget_split(self):
        plan = plan_release(0.9, 10_000, 4, k=8.0)
        assert plan.epsilon1 == pytest.approx(0.8)
        assert plan.epsilon2 == pytest.approx(0.1)
        assert plan.per_margin_epsilon == pytest.approx(0.2)
        assert plan.per_pair_epsilon == pytest.approx(0.1 / 6)

    def test_kendall_noise_scale_matches_lemma(self):
        plan = plan_release(1.0, 50_000, 2, k=1.0, subsample="full")
        # eps2 = 0.5, one pair, sensitivity 4/(n+1).
        expected = (4.0 / 50_001) / 0.5
        assert plan.coefficient_noise_scale == pytest.approx(expected)
        assert plan.tau_subsample == 50_000

    def test_auto_subsample_rule(self):
        plan = plan_release(1.0, 10**6, 8, k=8.0)
        from repro.core.kendall_matrix import kendall_subsample_size

        assert plan.tau_subsample == kendall_subsample_size(8, plan.epsilon2)

    def test_mle_plan_reports_partitions(self):
        plan = plan_release(1.0, 10**6, 4, method="mle")
        assert plan.mle_partitions is not None
        assert plan.coefficient_noise_scale > 0

    def test_a_tiny_epsilon2_plans_the_capped_sizes(self):
        """ε₂ ≈ 1e-306 overflows both paper rules; they saturate at n."""
        kendall, mle = compare_methods(1.0, 25_000, 16, k=1e306)
        assert kendall.tau_subsample == 25_000
        assert mle.mle_partitions == 25_000 // 4

    def test_a_per_pair_epsilon_that_rounds_to_zero_plans_infinite_noise(self):
        """ε₂ ≈ 1e-323 over 120 pairs rounds to 0, as in the fit."""
        for plan in compare_methods(1e-15, 25_000, 16, k=1e308):
            assert plan.coefficient_noise_scale == float("inf")

    def test_mle_noisier_than_kendall_at_moderate_n(self):
        """The closed-form version of Figure 6's conclusion."""
        kendall, mle = compare_methods(0.5, 20_000, 4)
        assert kendall.coefficient_noise_scale <= mle.coefficient_noise_scale

    def test_expected_errors_positive_and_consistent(self):
        plan = plan_release(1.0, 10_000, 4)
        assert plan.expected_margin_count_error == plan.margin_noise_scale
        assert plan.expected_margin_fraction_error == pytest.approx(
            plan.margin_noise_scale / 10_000
        )
        assert plan.expected_coefficient_error >= plan.coefficient_noise_scale

    def test_more_budget_less_noise(self):
        small = plan_release(0.1, 10_000, 4)
        large = plan_release(10.0, 10_000, 4)
        assert large.margin_noise_scale < small.margin_noise_scale
        assert large.coefficient_noise_scale < small.coefficient_noise_scale

    def test_more_dimensions_more_noise_per_piece(self):
        low = plan_release(1.0, 10_000, 2)
        high = plan_release(1.0, 10_000, 8)
        assert high.margin_noise_scale > low.margin_noise_scale
        assert high.per_pair_epsilon < low.per_pair_epsilon

    def test_summary_mentions_key_numbers(self):
        plan = plan_release(1.0, 10_000, 4)
        text = plan.summary()
        assert "eps1" in text and "coefficients" in text
        assert "Kendall subsample" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_release(0.0, 100, 2)
        with pytest.raises(ValueError):
            plan_release(1.0, 1, 2)
        with pytest.raises(ValueError):
            plan_release(1.0, 100, 2, method="bayes")
        with pytest.raises(ValueError):
            plan_release(1.0, 100, 2, subsample="sometimes")


class TestPlanPredictsReality:
    def test_kendall_plan_scale_matches_observed_noise(self):
        """The planner's coefficient scale must match the actual spread
        of released coefficients (same invariant as the mechanism test,
        but driven through the planner's closed form)."""
        from repro.core.kendall_matrix import dp_kendall_correlation

        n, epsilon = 2000, 1.0
        plan = plan_release(epsilon, n, 2, k=1.0, subsample="full")
        rng = np.random.default_rng(0)
        data = rng.standard_normal((n, 2))
        taus = []
        for seed in range(300):
            matrix = dp_kendall_correlation(
                data, plan.epsilon2, rng=seed, subsample=None
            )
            taus.append((2 / np.pi) * np.arcsin(matrix[0, 1]))
        observed_std = float(np.std(taus))
        expected_std = np.sqrt(2.0) * plan.coefficient_noise_scale
        assert observed_std == pytest.approx(expected_std, rel=0.25)
