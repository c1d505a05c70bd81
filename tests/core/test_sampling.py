"""Tests for Algorithm 3 (sampling DP synthetic data)."""

import copy

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.conditional import ConditionalCopulaSampler
from repro.core.copula import GaussianCopulaModel
from repro.core.dpcopula import DPCopulaKendall
from repro.core.sampling import sample_pseudo_copula, sample_synthetic
from repro.data.dataset import Schema
from repro.engine import SamplingEngine, compile_plan
from repro.io import ReleasedModel
from repro.stats.copula_math import cholesky_factor
from repro.stats.correlation import correlation_from_tau
from repro.stats.ecdf import HistogramCDF
from repro.stats.kendall import kendall_tau


class TestSamplePseudoCopula:
    def test_shape_and_range(self):
        correlation = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = sample_pseudo_copula(correlation, 500, rng=0)
        assert u.shape == (500, 2)
        assert (u > 0).all() and (u < 1).all()

    def test_uniform_margins(self):
        correlation = np.array([[1.0, 0.8], [0.8, 1.0]])
        u = sample_pseudo_copula(correlation, 20_000, rng=1)
        # Kolmogorov distance of each margin from U(0,1).
        for j in range(2):
            sorted_u = np.sort(u[:, j])
            grid = (np.arange(1, 20_001)) / 20_001
            assert np.abs(sorted_u - grid).max() < 0.02

    def test_dependence_matches_correlation(self):
        rho = 0.7
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        u = sample_pseudo_copula(correlation, 8000, rng=2)
        tau = kendall_tau(u[:, 0], u[:, 1])
        assert correlation_from_tau(tau) == pytest.approx(rho, abs=0.05)

    def test_repairs_indefinite_input(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        u = sample_pseudo_copula(bad, 100, rng=3)
        assert u.shape == (100, 3)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_pseudo_copula(np.eye(2), 0)


class TestSampleSynthetic:
    def _margins_and_schema(self):
        margins = [
            HistogramCDF(np.array([10.0, 20.0, 30.0, 40.0])),
            HistogramCDF(np.ones(6)),
        ]
        schema = Schema.from_domain_sizes([4, 6])
        return margins, schema

    def test_output_schema_and_size(self):
        margins, schema = self._margins_and_schema()
        data = sample_synthetic(np.eye(2), margins, 300, schema, rng=0)
        assert data.n_records == 300
        assert data.schema == schema

    def test_margins_respected(self):
        margins, schema = self._margins_and_schema()
        data = sample_synthetic(np.eye(2), margins, 50_000, schema, rng=1)
        counts = data.marginal_counts(0)
        assert counts / counts.sum() == pytest.approx(
            [0.1, 0.2, 0.3, 0.4], abs=0.01
        )

    def test_dependence_propagates_to_output(self):
        rho = 0.85
        margins = [HistogramCDF(np.ones(100)), HistogramCDF(np.ones(100))]
        schema = Schema.from_domain_sizes([100, 100])
        correlation = np.array([[1.0, rho], [rho, 1.0]])
        data = sample_synthetic(correlation, margins, 6000, schema, rng=2)
        tau = kendall_tau(data.column(0), data.column(1))
        assert correlation_from_tau(tau) == pytest.approx(rho, abs=0.06)

    def test_rejects_margin_count_mismatch(self):
        margins, schema = self._margins_and_schema()
        with pytest.raises(ValueError):
            sample_synthetic(np.eye(3), margins, 10, schema)

    def test_rejects_domain_mismatch(self):
        margins = [HistogramCDF(np.ones(5)), HistogramCDF(np.ones(6))]
        schema = Schema.from_domain_sizes([4, 6])
        with pytest.raises(ValueError):
            sample_synthetic(np.eye(2), margins, 10, schema)

    def test_rejects_schema_width_mismatch(self):
        margins, _ = self._margins_and_schema()
        with pytest.raises(ValueError):
            sample_synthetic(
                np.eye(2), margins, 10, Schema.from_domain_sizes([4, 6, 2])
            )


def _reference_algorithm_3(correlation, margins, n, gen):
    """Algorithm 3 written out column by column, without the sampler plan.

    Latent draw ``Z Lᵀ``, ``scipy.stats.norm.cdf``, then one
    :meth:`HistogramCDF.inverse` per column: the per-column definition
    the library's banded inverter is held to.
    """
    latent = gen.standard_normal((n, len(margins))) @ cholesky_factor(correlation).T
    uniforms = sps.norm.cdf(latent)
    return np.column_stack(
        [margin.inverse(uniforms[:, j]) for j, margin in enumerate(margins)]
    )


def _release(data, seed):
    """A Kendall release and its margins as ``HistogramCDF`` objects."""
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=seed).fit(data)
    model = ReleasedModel.from_synthesizer(synthesizer)
    return model, [HistogramCDF(counts) for counts in model.margin_counts]


def _released_model_sample(data, seed, n):
    model, margins = _release(data, seed)
    records = model.sample(n, rng=np.random.default_rng(seed))
    return records, model.correlation, margins, np.random.default_rng(seed)


def _engine_sample(data, seed, n):
    model, margins = _release(data, seed)
    plan = compile_plan(model, "m")
    records = SamplingEngine(lambda _: plan).sample("m", n, seed=seed)
    return records, model.correlation, margins, np.random.default_rng(seed)


def _synthesizer_sample(data, seed, n):
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=seed).fit(data)
    # The synthesizer samples from its own stream: copy it before it advances.
    gen = copy.deepcopy(synthesizer._rng)
    records = synthesizer.sample(n)
    return records, synthesizer.correlation_, synthesizer.margins_.cdfs, gen


def _gaussian_copula_sample(data, seed, n):
    model = GaussianCopulaModel().fit(data)
    margins = [HistogramCDF(data.marginal_counts(j)) for j in range(data.dimensions)]
    records = model.sample(n, rng=seed)
    return records, model.correlation_, margins, np.random.default_rng(seed)


def _conditional_sample(data, seed, n):
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=seed).fit(data)
    sampler = ConditionalCopulaSampler.from_synthesizer(synthesizer)
    records = sampler.sample(n, rng=seed)
    return records, sampler.correlation, sampler.margins, np.random.default_rng(seed)


_ENTRY_POINTS = {
    "ReleasedModel.sample": _released_model_sample,
    "SamplingEngine.sample": _engine_sample,
    "DPCopulaKendall.sample": _synthesizer_sample,
    "GaussianCopulaModel.sample": _gaussian_copula_sample,
    "ConditionalCopulaSampler.sample": _conditional_sample,
}


@pytest.mark.parametrize("n", [1, 25, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_point_matches_reference_algorithm_3(synthetic_4d, entry, seed, n):
    """Every sampling entry point draws bitwise what the reference draws."""
    records, correlation, margins, gen = _ENTRY_POINTS[entry](synthetic_4d, seed, n)
    expected = _reference_algorithm_3(correlation, margins, n, gen)
    assert records.values.dtype == expected.dtype
    np.testing.assert_array_equal(records.values, expected)
