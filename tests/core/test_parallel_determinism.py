"""The determinism contract: serial ≡ thread ≡ process, bitwise.

Every hot path that fans out over an ExecutionContext must produce
*identical* output on every backend for a fixed seed — parallelism is a
scheduling decision, never a statistical one.  These tests pin that
contract end-to-end for the four wired paths (Kendall matrix, hybrid
synthesis, per-block MLE, repeated-run evaluation) plus the exact
equivalence of both fast matrix kernels (count table and merge) with the
reference implementations.
"""

import numpy as np
import pytest

from repro.core.hybrid import DPCopulaHybrid
from repro.core.kendall_matrix import dp_kendall_correlation
from repro.core.mle import dp_mle_correlation
from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Attribute, Dataset, Schema
from repro.experiments.runner import average_evaluation, make_method
from repro.parallel import ExecutionContext
from repro.queries.range_query import random_workload
from repro.stats import kendall
from repro.stats.ecdf import HistogramCDF
from repro.stats.kendall import (
    kendall_tau_matrix,
    kendall_tau_merge,
    kendall_tau_naive,
    rank_code_columns,
)

BACKENDS = [
    ExecutionContext("serial"),
    ExecutionContext("thread", max_workers=4),
    ExecutionContext("process", max_workers=2),
]


def _mixed_data(n=400, seed=3):
    rng = np.random.default_rng(seed)
    values = np.column_stack(
        [
            rng.integers(0, 2, n),
            rng.integers(0, 3, n),
            rng.integers(0, 60, n),
            rng.integers(0, 80, n),
        ]
    )
    schema = Schema(
        [
            Attribute("a", 2),
            Attribute("b", 3),
            Attribute("c", 60),
            Attribute("d", 80),
        ]
    )
    return Dataset(values, schema)


def _all_equal(results):
    reference = results[0]
    return all(np.array_equal(reference, other) for other in results[1:])


class TestBackendEquivalence:
    def test_kendall_tau_matrix(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 40, size=(300, 6)).astype(float)
        matrices = [
            kendall_tau_matrix(values, context=context) for context in BACKENDS
        ]
        assert _all_equal(matrices)

    def test_kendall_tau_matrix_mixed_domains(self):
        # 300 records put the kernel boundary at 1 200 cells: the 3×3,
        # 3×40 and 3×300 pairs take the count-table kernel and the rest
        # the merge kernel, so every backend runs both.
        rng = np.random.default_rng(0)
        domains = (3, 40, 300) * 2
        values = rng.integers(0, domains, size=(300, 6)).astype(float)
        matrices = [
            kendall_tau_matrix(values, context=context) for context in BACKENDS
        ]
        assert _all_equal(matrices)

    def test_dp_kendall_correlation(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 50, size=(500, 5))
        matrices = [
            dp_kendall_correlation(values, epsilon2=1.0, rng=7, context=context)
            for context in BACKENDS
        ]
        assert _all_equal(matrices)

    def test_dp_mle_correlation_pairwise(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(240, 3))
        matrices = [
            dp_mle_correlation(
                values,
                epsilon2=5.0,
                l=8,
                rng=11,
                estimator="pairwise_mle",
                context=context,
            )
            for context in BACKENDS
        ]
        assert _all_equal(matrices)

    def test_hybrid_synthesis(self):
        data = _mixed_data()
        outputs = [
            DPCopulaHybrid(epsilon=4.0, rng=13, context=context)
            .fit_sample(data)
            .values
            for context in BACKENDS
        ]
        assert _all_equal(outputs)

    def test_average_evaluation(self):
        data = _mixed_data(n=600, seed=5)
        workload = random_workload(data.schema, 20, rng=6)
        results = [
            average_evaluation(
                make_method("dpcopula-kendall"),
                data,
                workload,
                epsilon=1.0,
                n_runs=3,
                rng=17,
                context=context,
            )
            for context in BACKENDS
        ]
        reference = results[0].evaluation
        for timed in results[1:]:
            assert timed.evaluation == reference


class TestFastKernelExactness:
    """The matrix kernel must equal the reference estimators exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_on_small_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        values = np.column_stack(
            [
                rng.integers(0, int(rng.integers(2, 12)), n)
                for _ in range(4)
            ]
        ).astype(float)
        fast = kendall_tau_matrix(values, method="merge")
        naive = kendall_tau_matrix(values, method="naive")
        assert np.array_equal(fast, naive)

    @pytest.mark.parametrize(
        "domains, n, offset, kernel",
        [
            ((2, 2), 1000, 0.0, "table"),
            ((5, 500), 1000, 0.0, "table"),
            ((1000, 1000), 1000, 0.0, "merge"),
            # 44·91 = 4n cells: the largest pair the table kernel takes.
            ((44, 91), 1001, 0.0, "table"),
            # 45·89 = 4n + 1 cells: the smallest pair the merge kernel takes.
            ((45, 89), 1001, 0.0, "merge"),
            ((10, 15), 1000, -20.5, "table"),  # negative, non-integer values
        ],
        ids=["domains0", "domains1", "domains2", "4n", "4n+1", "negative"],
    )
    def test_matches_merge_bitwise(self, monkeypatch, domains, n, offset, kernel):
        rng = np.random.default_rng(sum(domains))
        values = offset + np.column_stack(
            [rng.integers(0, d, n) for d in domains]
        ).astype(float)
        tables = []
        table_kernel = kendall._tau_a_from_table
        monkeypatch.setattr(
            kendall,
            "_tau_a_from_table",
            lambda *args: tables.append(args) or table_kernel(*args),
        )
        fast = kendall_tau_matrix(values)
        assert fast[0, 1] == kendall_tau_merge(values[:, 0], values[:, 1])
        assert bool(tables) == (kernel == "table")

    def test_constant_column_yields_zero(self):
        values = np.column_stack([np.zeros(50), np.arange(50)]).astype(float)
        assert kendall_tau_matrix(values)[0, 1] == 0.0
        assert kendall_tau_naive(values[:, 0], values[:, 1]) == 0.0

    def test_rank_codes_preserve_tie_structure(self):
        column = np.array([3.5, -1.0, 3.5, 2.0, -1.0])
        codes, tied, sizes = rank_code_columns(column[:, None])
        assert codes[0].tolist() == [2, 0, 2, 1, 0]
        assert tied == [2]  # two tied pairs: the 3.5s and the -1.0s
        assert sizes == [3]


class TestSamplingVectorization:
    def _margins(self, seed=4, m=3):
        rng = np.random.default_rng(seed)
        return [
            HistogramCDF(rng.uniform(0.0, 10.0, size=int(rng.integers(3, 30))))
            for _ in range(m)
        ]

    def test_batched_inverter_matches_per_margin_inverse(self):
        margins = self._margins()
        inverter = BatchedMarginInverter(margins)
        uniforms = np.random.default_rng(8).uniform(size=(500, len(margins)))
        batched = inverter(uniforms)
        for j, margin in enumerate(margins):
            assert np.array_equal(batched[:, j], margin.inverse(uniforms[:, j]))

    def test_batched_inverter_handles_boundaries(self):
        margins = self._margins(seed=9)
        inverter = BatchedMarginInverter(margins)
        edges = np.tile(
            np.array([0.0, 1.0, 0.5, -0.2, 1.3])[:, None], (1, len(margins))
        )
        # A uniform equal to a CDF value belongs to that value's bin.
        knots = np.column_stack([margin.cdf[:3] for margin in margins])
        edges = np.vstack([edges, knots])
        batched = inverter(edges)
        for j, margin in enumerate(margins):
            assert np.array_equal(batched[:, j], margin.inverse(edges[:, j]))

    def test_rejects_wrong_width(self):
        inverter = BatchedMarginInverter(self._margins())
        with pytest.raises(ValueError, match="uniform batch"):
            inverter(np.zeros((10, 7)))
