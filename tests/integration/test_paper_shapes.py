"""Shape checks of the paper's headline comparative claims.

These run at reduced scale (seconds, not the paper's full runs) and
assert the *direction* of each result — who wins, how error responds to
the experimental knob — not absolute numbers.
"""

import numpy as np
import pytest

from repro.data.synthetic import (
    SyntheticSpec,
    gaussian_dependence_data,
    random_correlation_matrix,
)
from repro.experiments.runner import average_evaluation, make_method
from repro.queries.range_query import random_workload


def _data(m, n, domain, margins="gaussian", seed=0, strength=0.6):
    correlation = random_correlation_matrix(m, rng=seed, strength=strength)
    spec = SyntheticSpec(
        n_records=n,
        domain_sizes=(domain,) * m,
        margins=margins,
        correlation=correlation,
    )
    return gaussian_dependence_data(spec, rng=seed + 1)


class TestFigure5Shape:
    def test_k_at_least_one_beats_k_below_one(self):
        """Margins deserve more budget than coefficients (Figure 5)."""
        data = _data(2, 6000, 256, seed=2)
        workload = random_workload(data.schema, 80, rng=3)
        error_at = {}
        for k in (0.125, 8.0):
            timed = average_evaluation(
                make_method("dpcopula-kendall", k=k),
                data,
                workload,
                epsilon=0.2,
                n_runs=3,
                rng=4,
            )
            error_at[k] = timed.evaluation.mean_relative_error
        assert error_at[8.0] < error_at[0.125]


class TestFigure7Shape:
    def test_dpcopula_beats_histogram_baselines_at_small_epsilon(self):
        """The paper's headline: DPCopula below the baselines, and the
        gap largest at small budgets (Figure 7) on high-dimensional,
        large-domain data."""
        data = _data(4, 8000, 500, seed=5)
        workload = random_workload(data.schema, 80, rng=6)
        epsilon = 0.1
        results = {}
        for name in ("dpcopula-kendall", "psd", "fp"):
            timed = average_evaluation(
                make_method(name), data, workload, epsilon, n_runs=5, rng=7
            )
            results[name] = timed.evaluation.mean_relative_error
        assert results["dpcopula-kendall"] < results["psd"]
        assert results["dpcopula-kendall"] < results["fp"]


class TestFigure8Shape:
    def test_absolute_error_grows_with_range_size(self):
        from repro.queries.range_query import workload_with_volume

        data = _data(2, 6000, 256, seed=8)
        method = make_method("dpcopula-kendall")
        absolute = {}
        for selectivity in (1e-4, 0.2):
            volume = selectivity * data.schema.domain_space()
            workload = workload_with_volume(data.schema, volume, 60, rng=9)
            timed = average_evaluation(
                method, data, workload, epsilon=0.1, n_runs=2, rng=10
            )
            absolute[selectivity] = timed.evaluation.mean_absolute_error
        assert absolute[0.2] > absolute[1e-4]


class TestFigure9Shape:
    def test_dpcopula_beats_psd_on_skewed_margins(self):
        """Figure 9: the gap is clearest on zipf margins."""
        data = _data(4, 8000, 500, margins="zipf", seed=11)
        workload = random_workload(data.schema, 80, rng=12)
        errors = {}
        for name in ("dpcopula-kendall", "psd"):
            timed = average_evaluation(
                make_method(name), data, workload, epsilon=0.2, n_runs=3, rng=13
            )
            errors[name] = timed.evaluation.mean_relative_error
        assert errors["dpcopula-kendall"] < errors["psd"]


class TestFigure11Shape:
    def test_fit_time_grows_with_cardinality(self):
        # Publishing two 128-value margins costs ~0.2 s whatever n is, so
        # the larger n must add more than the run-to-run noise of that.
        method = make_method("dpcopula-kendall", subsample=None)
        seconds = {}
        for n in (1000, 256_000):
            data = _data(2, n, 128, seed=14)
            workload = random_workload(data.schema, 5, rng=15)
            timed = average_evaluation(
                method, data, workload, epsilon=1.0, n_runs=2, rng=16
            )
            seconds[n] = timed.fit_seconds
        assert seconds[256_000] > seconds[1000]

    def test_subsampling_makes_correlation_time_flat_in_n(self):
        """The Section 4.2 sampling optimisation: with a fixed n̂ the
        Kendall's-tau cost stops growing with n."""
        import time

        from repro.core.kendall_matrix import dp_kendall_correlation

        seconds = {}
        for n in (20_000, 320_000):
            values = np.random.default_rng(17).standard_normal((n, 3))
            start = time.perf_counter()
            for seed in range(3):
                dp_kendall_correlation(values, 1.0, rng=seed, subsample=2000)
            seconds[n] = time.perf_counter() - start
        # 16x the data must cost nowhere near 16x the time.
        assert seconds[320_000] < seconds[20_000] * 4
