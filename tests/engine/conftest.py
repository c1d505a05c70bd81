"""Shared fixtures for the sampling-engine tests."""

from __future__ import annotations

import pytest

from repro.core.dpcopula import DPCopulaKendall
from repro.engine import compile_plan
from repro.io import ReleasedModel


@pytest.fixture
def released_model(small_dataset) -> ReleasedModel:
    """A quick fitted release of the 200-record conftest dataset."""
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=0)
    synthesizer.fit(small_dataset)
    return ReleasedModel.from_synthesizer(synthesizer)


@pytest.fixture
def plan(released_model):
    return compile_plan(released_model, "m-test")
