"""Compiled sampler plans: bitwise fidelity to the uncompiled path."""

import numpy as np
import pytest

from repro.engine import SamplerPlan
from repro.stats.ecdf import HistogramCDF


class TestCompile:
    def test_metadata_carried(self, plan, released_model):
        assert plan.model_id == "m-test"
        assert plan.m == released_model.schema.dimensions
        assert plan.n_records == released_model.n_records

    def test_cholesky_reconstructs_correlation(self, plan, released_model):
        np.testing.assert_allclose(
            plan.cholesky @ plan.cholesky.T,
            released_model.correlation,
            atol=1e-8,
        )

    def test_dimension_mismatch_rejected(self, plan, released_model):
        margins = [HistogramCDF(counts) for counts in released_model.margin_counts]
        with pytest.raises(ValueError, match="schema"):
            SamplerPlan(np.eye(plan.m + 1), margins + margins[:1], released_model.schema)


class TestSampleBitwise:
    def test_matches_released_model_sample(self, plan, released_model):
        """The compiled path must reproduce the uncompiled path exactly."""
        baseline = released_model.sample(500, rng=np.random.default_rng(42))
        compiled = plan.sample(500, np.random.default_rng(42))
        np.testing.assert_array_equal(compiled.values, baseline.values)
        assert compiled.schema == baseline.schema

    def test_invalid_n_rejected(self, plan):
        with pytest.raises(ValueError, match="n must be"):
            plan.sample(0, np.random.default_rng(0))


class TestSampleBatch:
    def test_each_request_bitwise_equals_serial(self, plan):
        """Coalesced slices must be bitwise identical to serial draws."""
        sizes = [100, 1, 250, 37]
        batched = plan.sample_batch(
            [(n, np.random.default_rng(1000 + i)) for i, n in enumerate(sizes)]
        )
        for i, (n, result) in enumerate(zip(sizes, batched)):
            serial = plan.sample(n, np.random.default_rng(1000 + i))
            np.testing.assert_array_equal(result.values, serial.values)
            assert result.n_records == n

    def test_empty_batch(self, plan):
        assert plan.sample_batch([]) == []

    def test_slices_are_independent_copies(self, plan):
        """Per-request datasets must not alias the shared batch array."""
        first, second = plan.sample_batch(
            [(10, np.random.default_rng(1)), (10, np.random.default_rng(2))]
        )
        assert first.values.base is None or not np.shares_memory(
            first.values, second.values
        )

