"""The determinism contract: serial ≡ thread ≡ process, bitwise.

Every hot path that fans out over an ExecutionContext must produce
*identical* output on every backend for a fixed seed — parallelism is a
scheduling decision, never a statistical one.  These tests pin that
contract end-to-end for the four wired paths (Kendall matrix, hybrid
synthesis, per-block MLE, repeated-run evaluation) plus the exact
equivalence of both fast matrix kernels (count table and merge) with the
reference implementations.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import DPCopulaHybrid
from repro.core.kendall_matrix import dp_kendall_correlation
from repro.core.mle import dp_mle_correlation
from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Attribute, Dataset, Schema
from repro.experiments.runner import average_evaluation, make_method
from repro.parallel import ExecutionContext
from repro.queries.range_query import random_workload
from repro.resilience.deadlines import Deadline, DeadlineExceeded, deadline_scope
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


def _column_kinds(n=400, seed=11):
    """One column of each kind the rank coder must code like ``np.unique``."""
    rng = np.random.default_rng(seed)
    signed_zeros = rng.choice([-1.0, -0.0, 0.0, 2.0], n)
    return {
        "integer": rng.integers(0, 50, n).astype(float),
        "negative-integer": rng.integers(-40, 10, n).astype(float),
        "wide-range-integer": rng.integers(0, 10**9, n).astype(float),
        "non-integer-float": np.round(rng.normal(size=n), 2),
        "signed-zero": signed_zeros,
        "constant": np.full(n, 3.0),
        "tie-heavy": rng.integers(0, 3, n).astype(float),
    }


class TestRankCodedKernels:
    """Bincount rank codes, narrow codes and the table/merge scheduling."""

    BACKENDS = [
        ExecutionContext("serial"),
        ExecutionContext("thread", max_workers=2),
        ExecutionContext("process", max_workers=2),
    ]

    def test_every_column_kind_matches_merge_on_every_backend(self):
        kinds = _column_kinds()
        values = np.column_stack(list(kinds.values()))
        matrices = [kendall_tau_matrix(values, context=c) for c in self.BACKENDS]
        assert _all_equal(matrices)
        m = values.shape[1]
        for j in range(m):
            for k in range(j + 1, m):
                expected = kendall_tau_merge(values[:, j], values[:, k])
                assert matrices[0][j, k] == expected, (list(kinds)[j], list(kinds)[k])

    @pytest.mark.parametrize("kind", list(_column_kinds()))
    def test_rank_codes_are_np_uniques_inverse_in_the_narrowest_dtype(
        self, kind, monkeypatch
    ):
        column = _column_kinds()[kind]
        uniques, inverse, counts = np.unique(
            column, return_inverse=True, return_counts=True
        )
        sorts = []
        real_unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **kw: sorts.append(1) or real_unique(*a, **kw)
        )
        (codes,), (tied,), (size,) = rank_code_columns(column[:, None])
        assert codes.tolist() == inverse.tolist()
        assert codes.dtype == (np.uint16 if size > 256 else np.uint8)
        assert size == uniques.size
        assert tied == int(np.sum(counts * (counts - 1) // 2))
        # Bounded integer columns skip the sort; the rest fall back to it.
        assert bool(sorts) == (kind in ("wide-range-integer", "non-integer-float"))

    @given(
        st.lists(
            st.integers(-300, 300).map(float)
            | st.sampled_from([-0.0, 0.5, -1e300, 1e300, np.inf, -np.inf]),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_codes_match_np_unique_on_any_column(self, column):
        column = np.array(column)
        _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
        (codes,), (tied,), (size,) = rank_code_columns(column[:, None])
        assert codes.tolist() == inverse.tolist()
        assert (size, tied) == (counts.size, int(np.sum(counts * (counts - 1) // 2)))

    @pytest.mark.parametrize(
        "domains, n, dtypes",
        [((300, 300), 22_500, ("uint16", "uint16")), ((200, 300), 15_000, ("uint8", "uint16"))],
        ids=["uint16-codes", "uint8-codes"],
    )
    def test_table_kernel_widens_narrow_codes(self, domains, n, dtypes, monkeypatch):
        """``d_x·d_y = 4n`` exactly: the table's joint code passes 65 535."""
        rng = np.random.default_rng(n)
        values = np.column_stack(
            [rng.permutation(np.arange(n) % d) for d in domains]
        ).astype(float)
        codes, _, sizes = rank_code_columns(values)
        assert tuple(c.dtype.name for c in codes) == dtypes
        assert sizes[0] * sizes[1] == 4 * n
        tables = []
        table_kernel = kendall._tau_a_from_table
        monkeypatch.setattr(
            kendall,
            "_tau_a_from_table",
            lambda *args: tables.append(args) or table_kernel(*args),
        )
        tau = kendall_tau_matrix(values)[0, 1]
        assert len(tables) == 1
        assert tau == kendall_tau_merge(values[:, 0], values[:, 1])

    def test_table_pairs_never_run_on_a_pool_thread(self, monkeypatch):
        # 300 records: the boundary is 1 200 cells, so the 3×3, 3×40
        # and 3×300 pairs take the table and the rest the merge.
        rng = np.random.default_rng(0)
        values = rng.integers(0, (3, 40, 300) * 2, size=(300, 6)).astype(float)
        caller = threading.get_ident()
        threads = {"table": [], "merge": []}
        for kernel in threads:
            real = getattr(kendall, f"_tau_a_from_{kernel}")

            def spy(*args, kernel=kernel, real=real):
                threads[kernel].append(threading.get_ident())
                return real(*args)

            monkeypatch.setattr(kendall, f"_tau_a_from_{kernel}", spy)
        pooled = kendall_tau_matrix(values, context=ExecutionContext("thread", max_workers=2))
        assert threads["table"] and set(threads["table"]) == {caller}
        # The spy sees pool threads: the merge pairs ran on them.
        assert threads["merge"] and caller not in threads["merge"]
        assert np.array_equal(pooled, kendall_tau_matrix(values))

    @pytest.mark.parametrize("kernel", ["table", "merge"])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_deadline_expiring_mid_matrix_raises(self, kernel, backend, monkeypatch):
        rng = np.random.default_rng(0)
        values = rng.integers(0, (3, 40, 300) * 2, size=(300, 6)).astype(float)
        real = getattr(kendall, f"_tau_a_from_{kernel}")

        def slow(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(kendall, f"_tau_a_from_{kernel}", slow)
        context = ExecutionContext(backend, max_workers=2)
        with deadline_scope(Deadline.after(0.08)):
            with pytest.raises(DeadlineExceeded):
                kendall_tau_matrix(values, context=context)


def _flat_banded_search(margins, uniforms):
    """The banded inverter's definition: one flat ``searchsorted``.

    Margin ``j``'s CDF and its uniforms are shifted by ``2j``, so one
    search over the concatenated CDFs answers every column.
    """
    cdfs = [margin.cdf for margin in margins]
    bands = 2.0 * np.arange(len(cdfs))
    sizes = np.array([cdf.size for cdf in cdfs])
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    flat = np.concatenate([cdf + band for cdf, band in zip(cdfs, bands)])
    bins = np.searchsorted(flat, np.clip(uniforms, 0.0, 1.0) + bands, side="left")
    return np.clip(bins - starts, 0, sizes - 1).astype(np.int64)


def _ulps_around(values, steps):
    """``values`` and every neighbour up to ``steps`` ulps either side."""
    probes = [values]
    up = down = values
    for _ in range(steps):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        probes += [up, down]
    return np.concatenate(probes)


_SPECIAL_UNIFORMS = np.array(
    [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     np.nan, np.inf, -np.inf, -0.25, 1.25, -1e300, 1e300, -5e-324]
)

# Zero-mass runs (one long enough to exhaust the forward steps), trailing
# zero bins after a CDF that overshoots 1.0 (so the last entry, set to
# 1.0, sits below the one before it), all counts clipped (the uniform
# fallback) and a one-value domain.
_SPECIAL_COUNTS = [
    [4.0, 0.0, 0.0, 0.0, 2.0, -3.0, 1.0],
    [1.0] + [0.0] * 8 + [1.0],
    [7.0, 6.0, 9.0, 5.0, 1.0, 0.0, 0.0],
    [-1.0, -2.0, 0.0],
    [7.0],
]

_COUNTS = st.lists(
    st.sampled_from([0.0, -1.0]) | st.floats(0.001, 100.0), min_size=1, max_size=30
)


@st.composite
def _margin_batches(draw):
    """Up to 40 margins (the specials among them) and a probe batch.

    Column ``j`` holds every CDF value of margin ``j`` ±40 ulps, every
    guide-bucket edge ``b/B_j`` ±1 ulp, the special values and random
    uniforms.
    """
    m = draw(st.integers(len(_SPECIAL_COUNTS), 40))
    counts = draw(st.lists(_COUNTS, min_size=m - len(_SPECIAL_COUNTS),
                           max_size=m - len(_SPECIAL_COUNTS)))
    margins = [HistogramCDF(c) for c in draw(st.permutations(counts + _SPECIAL_COUNTS))]
    columns = []
    for margin in margins:
        buckets = 1 << (4 * margin.domain_size - 1).bit_length()
        columns.append(np.concatenate([
            _ulps_around(margin.cdf, 40),
            _ulps_around(np.arange(buckets + 1) / buckets, 1),
            _SPECIAL_UNIFORMS,
        ]))
    rows = max(column.size for column in columns)
    probes = np.column_stack([np.resize(column, rows) for column in columns])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return margins, np.vstack([probes, rng.uniform(size=(200, m))])


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

    @given(_margin_batches())
    @settings(max_examples=60, deadline=None)
    def test_guide_table_matches_the_flat_banded_search(self, batch):
        margins, uniforms = batch
        inverter = BatchedMarginInverter(margins)
        expected = _flat_banded_search(margins, uniforms)
        np.testing.assert_array_equal(inverter(uniforms), expected)
        # One row is too few cells for the table and takes the flat search.
        np.testing.assert_array_equal(inverter(uniforms[-1:]), expected[-1:])

    @given(_margin_batches(), st.lists(st.integers(0, 10**6), max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_stacked_batch_inverts_as_its_slices(self, batch, cuts):
        """The coalescer's contract: one pass over stacked requests."""
        margins, uniforms = batch
        inverter = BatchedMarginInverter(margins)
        cuts = sorted(cut % (uniforms.shape[0] + 1) for cut in cuts)
        sliced = [inverter(part) for part in np.split(uniforms, cuts)]
        np.testing.assert_array_equal(np.vstack(sliced), inverter(uniforms))
