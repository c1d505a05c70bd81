"""Tests for the Section 4.3 convergence diagnostics."""

import numpy as np
import pytest

from repro.core.convergence import (
    ConvergencePoint,
    joint_cdf_distance,
    max_margin_distance,
    run_convergence_study,
)
from repro.core.dpcopula import DPCopulaKendall
from repro.data.dataset import Dataset, Schema
from repro.data.synthetic import SyntheticSpec, gaussian_dependence_data
from repro.queries.metrics import margin_kolmogorov, pairwise_tau_error


def _make_dataset(n, seed=0):
    correlation = np.array([[1.0, 0.6], [0.6, 1.0]])
    spec = SyntheticSpec(
        n_records=n, domain_sizes=(80, 80), correlation=correlation
    )
    return gaussian_dependence_data(spec, rng=seed)


class TestDistances:
    def test_identical_datasets_have_zero_distance(self):
        data = _make_dataset(1000)
        assert max_margin_distance(data, data) == 0.0
        assert pairwise_tau_error(data, data, rng=0) == pytest.approx(0.0, abs=1e-12)
        assert joint_cdf_distance(data, data, rng=0) == 0.0

    def test_margin_distance_detects_shift(self):
        data = _make_dataset(2000, seed=1)
        shifted_spec = SyntheticSpec(
            n_records=2000, domain_sizes=(80, 80), margins="zipf"
        )
        shifted = gaussian_dependence_data(shifted_spec, rng=2)
        assert margin_kolmogorov(data, shifted, 0) > 0.1

    def test_max_margin_distance_is_the_worst_attribute(self):
        schema = Schema.from_domain_sizes([4, 4])
        spread = np.tile(np.arange(4), 25)
        original = Dataset(np.column_stack([spread, spread]), schema)
        # One attribute matches; the other puts all its mass on 0, a
        # sup-CDF distance of 1 - 1/4 at the first code.
        for differing in (0, 1):
            columns = [spread, spread]
            columns[differing] = np.zeros_like(spread)
            synthetic = Dataset(np.column_stack(columns), schema)
            assert margin_kolmogorov(original, synthetic, 1 - differing) == 0.0
            assert max_margin_distance(original, synthetic) == 0.75

    def test_tau_error_detects_dependence_change(self):
        dependent = _make_dataset(3000, seed=3)
        independent_spec = SyntheticSpec(
            n_records=3000, domain_sizes=(80, 80), correlation=np.eye(2)
        )
        independent = gaussian_dependence_data(independent_spec, rng=4)
        assert pairwise_tau_error(dependent, independent, rng=5) > 0.2

    def test_joint_cdf_distance_bounded(self):
        a = _make_dataset(500, seed=6)
        b = _make_dataset(500, seed=7)
        distance = joint_cdf_distance(a, b, rng=8)
        assert 0.0 <= distance <= 1.0


class TestConvergenceStudy:
    def test_errors_shrink_with_cardinality(self):
        """Theorem 4.3, empirically: the DPCopula synthetic distribution
        approaches the original as n grows (fixed epsilon)."""
        cardinalities = [300, 10_000]
        results = run_convergence_study(
            cardinalities,
            make_dataset=lambda n: _make_dataset(n, seed=9),
            make_synthesizer=lambda: DPCopulaKendall(epsilon=1.0, rng=10),
            rng=11,
        )
        assert [point.n_records for point in results] == cardinalities
        small, large = results
        assert large.margin_sup_distance < small.margin_sup_distance
        assert large.joint_cdf_sup_distance <= small.joint_cdf_sup_distance + 0.02

    def test_point_structure(self):
        results = run_convergence_study(
            [200],
            make_dataset=lambda n: _make_dataset(n, seed=12),
            make_synthesizer=lambda: DPCopulaKendall(epsilon=2.0, rng=13),
            rng=14,
        )
        point = results[0]
        assert isinstance(point, ConvergencePoint)
        assert point.margin_sup_distance >= 0
        assert point.tau_error >= 0
