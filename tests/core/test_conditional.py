"""Tests for conditional Gaussian-copula sampling."""

import numpy as np
import pytest

from repro.core.conditional import ConditionalCopulaSampler
from repro.core.dpcopula import DPCopulaKendall
from repro.data.dataset import Attribute, Schema
from repro.stats.ecdf import HistogramCDF


def _sampler(rho=0.8, domain=100):
    correlation = np.array([[1.0, rho], [rho, 1.0]])
    margins = [HistogramCDF(np.ones(domain)), HistogramCDF(np.ones(domain))]
    schema = Schema.from_domain_sizes([domain, domain])
    return ConditionalCopulaSampler(correlation, margins, schema)


class TestConditionalSampling:
    def test_fixed_attribute_is_constant(self):
        sampler = _sampler()
        out = sampler.sample(200, given={"A0": 42}, rng=0)
        assert (out.column(0) == 42).all()

    def test_conditioning_shifts_the_free_attribute(self):
        """With rho = 0.8 and uniform margins, conditioning on a high A0
        must shift A1's conditional distribution upward."""
        sampler = _sampler(rho=0.8)
        low = sampler.sample(3000, given={"A0": 5}, rng=1)
        high = sampler.sample(3000, given={"A0": 95}, rng=2)
        assert high.column(1).mean() > low.column(1).mean() + 20

    def test_zero_correlation_leaves_margin_unchanged(self):
        sampler = _sampler(rho=0.0)
        out = sampler.sample(20_000, given={"A0": 95}, rng=3)
        # A1 stays uniform: mean ~ 49.5.
        assert out.column(1).mean() == pytest.approx(49.5, abs=1.5)

    def test_unconditional_matches_plain_sampling(self):
        sampler = _sampler(rho=0.5)
        out = sampler.sample(500, rng=4)
        assert out.n_records == 500
        assert out.schema.dimensions == 2

    def test_all_attributes_fixed(self):
        sampler = _sampler()
        out = sampler.sample(10, given={"A0": 3, "A1": 7}, rng=5)
        assert (out.column(0) == 3).all()
        assert (out.column(1) == 7).all()

    def test_rejects_out_of_domain_value(self):
        sampler = _sampler(domain=50)
        with pytest.raises(ValueError):
            sampler.sample(10, given={"A0": 50})

    def test_rejects_unknown_attribute(self):
        sampler = _sampler()
        with pytest.raises(KeyError):
            sampler.sample(10, given={"Z": 1})

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            _sampler().sample(0)


class TestFromSynthesizer:
    def test_builds_and_samples(self, synthetic_4d):
        synthesizer = DPCopulaKendall(epsilon=2.0, rng=0).fit(synthetic_4d)
        sampler = ConditionalCopulaSampler.from_synthesizer(synthesizer)
        out = sampler.sample(100, given={"A1": 30}, rng=1)
        assert out.schema == synthetic_4d.schema
        assert (out.column(1) == 30).all()

    def test_conditioning_respects_learned_dependence(self, synthetic_4d):
        """synthetic_4d couples A0 and A1 at rho = 0.6; conditioning on a
        high A1 should lift A0."""
        synthesizer = DPCopulaKendall(epsilon=50.0, rng=2).fit(synthetic_4d)
        sampler = ConditionalCopulaSampler.from_synthesizer(synthesizer)
        low = sampler.sample(2000, given={"A1": 5}, rng=3)
        high = sampler.sample(2000, given={"A1": 55}, rng=4)
        assert high.column(0).mean() > low.column(0).mean()

    def test_rejects_unfitted(self):
        with pytest.raises(ValueError):
            ConditionalCopulaSampler.from_synthesizer(DPCopulaKendall(epsilon=1.0))


class TestValidation:
    def test_margin_count_mismatch(self):
        with pytest.raises(ValueError):
            ConditionalCopulaSampler(
                np.eye(3),
                [HistogramCDF(np.ones(10))] * 2,
                Schema.from_domain_sizes([10, 10]),
            )

    def test_schema_mismatch(self):
        with pytest.raises(ValueError):
            ConditionalCopulaSampler(
                np.eye(2),
                [HistogramCDF(np.ones(10))] * 2,
                Schema.from_domain_sizes([10, 10, 10]),
            )

    def test_margin_shorter_than_its_domain(self):
        """Refused when built, so ``given`` cannot sample a truncated domain."""
        schema = Schema([Attribute("a", 5), Attribute("b", 60)])
        margins = [HistogramCDF(np.ones(5)), HistogramCDF(np.ones(3))]
        with pytest.raises(ValueError, match="margin for 'b' covers 3 values"):
            ConditionalCopulaSampler(np.eye(2), margins, schema)
