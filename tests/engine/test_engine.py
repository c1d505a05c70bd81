"""The engine facade: seeding contract and coalescer composition."""

import numpy as np
import pytest

from repro.engine import RequestCoalescer, SamplingEngine


@pytest.fixture
def engine(plan):
    return SamplingEngine({"m-test": plan}.__getitem__)


class TestSeedingContract:
    def test_seeded_matches_pre_engine_path(self, engine, released_model):
        """An explicit seed reproduces the historical serve response."""
        baseline = released_model.sample(200, rng=np.random.default_rng(42))
        served = engine.sample("m-test", 200, seed=42)
        np.testing.assert_array_equal(served.values, baseline.values)

    def test_seeded_is_stable_across_calls(self, engine):
        first = engine.sample("m-test", 100, seed=7)
        second = engine.sample("m-test", 100, seed=7)
        np.testing.assert_array_equal(first.values, second.values)

    def test_unseeded_requests_differ(self, engine):
        first = engine.sample("m-test", 100)
        second = engine.sample("m-test", 100)
        assert not np.array_equal(first.values, second.values)

    def test_default_n_is_model_size(self, engine, plan):
        assert engine.sample("m-test", seed=1).n_records == plan.n_records

    def test_unknown_model_raises_keyerror(self, engine):
        with pytest.raises(KeyError):
            engine.sample("nope", 10)


class TestComposition:
    def test_with_coalescer_seeded_still_bitwise(self, plan, released_model):
        engine = SamplingEngine(
            {"m-test": plan}.__getitem__,
            coalescer=RequestCoalescer(),
        )
        baseline = released_model.sample(150, rng=np.random.default_rng(5))
        served = engine.sample("m-test", 150, seed=5)
        np.testing.assert_array_equal(served.values, baseline.values)
        assert engine.pending() == 0
