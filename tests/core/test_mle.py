"""Tests for Algorithm 2 (subsample-and-aggregate DP MLE)."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core import mle
from repro.core.dpcopula import DPCopulaMLE
from repro.core.mle import (
    _blockwise_normal_scores,
    dp_mle_correlation,
    required_partitions,
)
from repro.data.dataset import Attribute, Dataset, Schema
from repro.stats.copula_math import copula_mle_matrix
from repro.stats.ecdf import pseudo_copula_transform
from repro.stats.psd_repair import is_positive_definite


def _gaussian_sample(correlation, n, seed):
    rng = np.random.default_rng(seed)
    m = correlation.shape[0]
    return rng.multivariate_normal(np.zeros(m), correlation, size=n)


class TestRequiredPartitions:
    def test_paper_bound(self):
        # l > C(m,2) / (0.025 * eps2)
        assert required_partitions(8, 1.0) == int(np.ceil(28 / 0.025))
        assert required_partitions(2, 0.5) == 80

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            required_partitions(4, 0.0)

    @pytest.mark.parametrize("epsilon2", [1e-306, 1e-310, 5e-324])
    def test_an_infinite_bound_saturates_at_the_cap(self, epsilon2):
        assert required_partitions(16, epsilon2, cap=6250) == 6250

    def test_the_cap_is_the_minimum_for_ordinary_epsilon(self):
        for epsilon2 in (1e-3, 0.01, 1 / 9, 0.5, 1.0, 7.3, 1e6):
            for cap in (1, 79, 80, 81, 6250, 10**9):
                for m in (2, 8, 16):
                    assert required_partitions(m, epsilon2, cap=cap) == min(
                        required_partitions(m, epsilon2), cap
                    )


class TestBlockwiseNormalScores:
    def test_shape(self):
        blocks = np.random.default_rng(0).standard_normal((5, 50, 3))
        out = _blockwise_normal_scores(blocks)
        assert out.shape == (5, 3, 3)

    def test_each_block_is_correlation(self):
        blocks = np.random.default_rng(1).standard_normal((4, 100, 3))
        out = _blockwise_normal_scores(blocks)
        for matrix in out:
            assert np.allclose(np.diag(matrix), 1.0)
            assert np.abs(matrix).max() <= 1.0 + 1e-9

    def test_matches_single_block_normal_scores(self):
        from repro.stats.correlation import normal_scores_correlation
        from repro.stats.ecdf import pseudo_copula_transform

        data = np.random.default_rng(2).standard_normal((200, 3))
        blocked = _blockwise_normal_scores(data[None])
        direct = normal_scores_correlation(pseudo_copula_transform(data))
        assert np.allclose(blocked[0], direct, atol=1e-10)

    def test_recovers_dependence(self):
        correlation = np.array([[1.0, 0.8], [0.8, 1.0]])
        data = _gaussian_sample(correlation, 6000, 3)
        out = _blockwise_normal_scores(data.reshape(10, 600, 2))
        assert out.mean(axis=0)[0, 1] == pytest.approx(0.8, abs=0.05)


class TestDPMLECorrelation:
    def test_output_is_pd_correlation(self, synthetic_4d):
        matrix = dp_mle_correlation(synthetic_4d.values.astype(float), 1.0, rng=0)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)
        assert is_positive_definite(matrix)

    def test_recovers_correlation_with_ample_data_and_budget(self):
        correlation = np.array([[1.0, 0.6], [0.6, 1.0]])
        data = _gaussian_sample(correlation, 40_000, 1)
        matrix = dp_mle_correlation(data, 100.0, l=50, rng=2)
        assert matrix[0, 1] == pytest.approx(0.6, abs=0.08)

    def test_l_caps_to_keep_blocks_viable(self):
        # Paper bound would demand l in the thousands; with only 200
        # records the implementation must cap l rather than crash.
        data = _gaussian_sample(np.eye(3), 200, 3)
        matrix = dp_mle_correlation(data, 0.1, rng=4)
        assert is_positive_definite(matrix)

    def test_pairwise_mle_estimator(self):
        correlation = np.array([[1.0, 0.5], [0.5, 1.0]])
        data = _gaussian_sample(correlation, 2000, 5)
        matrix = dp_mle_correlation(
            data, 50.0, l=8, rng=6, estimator="pairwise_mle"
        )
        assert matrix[0, 1] == pytest.approx(0.5, abs=0.15)

    def test_noise_decreases_with_more_partitions(self):
        """The coefficient noise scale is Λ C(m,2) / (l ε₂): doubling l
        should shrink the spread of the released coefficient."""
        data = _gaussian_sample(np.eye(2), 20_000, 7)
        spreads = {}
        for l in (10, 200):
            estimates = [
                dp_mle_correlation(data, 0.5, l=l, rng=seed)[0, 1]
                for seed in range(25)
            ]
            spreads[l] = np.std(estimates)
        assert spreads[200] < spreads[10]

    def test_single_column_identity(self):
        matrix = dp_mle_correlation(np.zeros((50, 1)), 1.0, rng=8)
        assert (matrix == np.eye(1)).all()

    def test_rejects_unknown_estimator(self, synthetic_4d):
        with pytest.raises(ValueError):
            dp_mle_correlation(
                synthetic_4d.values.astype(float), 1.0, estimator="bayes"
            )

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            dp_mle_correlation(np.zeros(10), 1.0)

    @pytest.mark.parametrize("epsilon2", [1e-306, 1e-310, 5e-324])
    def test_tiny_epsilon_fits_at_the_largest_feasible_l(self, epsilon2):
        """A bound that overflows saturates at n / min_block_size."""
        data = _gaussian_sample(np.eye(4), 400, 9)
        matrix = dp_mle_correlation(data, epsilon2, rng=10)
        assert np.allclose(np.diag(matrix), 1.0)
        assert is_positive_definite(matrix)


def _whole_tensor_normal_scores(blocks):
    """Every block's normal-scores matrix in one ``(l, m, m)`` tensor:
    the probit of every cell, non-finite entries from an identity copy
    and a diagonal fill per block."""
    l, b, m = blocks.shape
    order = np.argsort(blocks, axis=1, kind="stable")
    ranks = np.empty_like(order)
    grid = np.broadcast_to(np.arange(b)[None, :, None], (l, b, m)).copy()
    np.put_along_axis(ranks, order, grid, axis=1)
    z = sps.norm.ppf((ranks + 1.0) / (b + 1.0))
    z = z - z.mean(axis=1, keepdims=True)
    cov = np.einsum("lbi,lbj->lij", z, z) / b
    std = np.sqrt(np.einsum("lii->li", cov))
    denom = np.einsum("li,lj->lij", std, std)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)
    identity = np.broadcast_to(np.eye(m), corr.shape)
    corr = np.where(np.isfinite(corr), corr, identity)
    for matrix in corr:
        np.fill_diagonal(matrix, 1.0)
    return corr


def _whole_tensor_average(values, rows, block_size, estimator):
    """The block average from the whole ``(l, b, m)`` tensor at once."""
    m = values.shape[1]
    blocks = np.asarray(values, dtype=float)[rows].reshape(-1, block_size, m)
    if estimator == "normal_scores":
        return _whole_tensor_normal_scores(blocks).mean(axis=0)
    matrices = [copula_mle_matrix(pseudo_copula_transform(block)) for block in blocks]
    return np.stack(matrices).mean(axis=0)


_CELLS = {
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "ties": st.integers(0, 2).map(float),
    "non-finite": st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5]),
}


@st.composite
def _partitioned_data(draw):
    """Data, a permutation prefix of whole blocks, and a chunk length."""
    m = draw(st.integers(2, 5))
    block_size = draw(st.integers(2, 6))
    l = draw(st.integers(1, 12))
    n = l * block_size + draw(st.integers(0, block_size - 1))
    kind = _CELLS[draw(st.sampled_from(sorted(_CELLS)))]
    cells = draw(st.lists(kind, min_size=n * m, max_size=n * m))
    values = np.array(cells).reshape(n, m)
    constant = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    values[:, np.array(constant)] = values[0, np.array(constant)]
    rows = np.array(draw(st.permutations(range(n))))[: l * block_size]
    chunk_blocks = draw(st.integers(1, l + 1))
    return values, rows, block_size, chunk_blocks


class TestStreamedBlockAverage:
    """The chunked block average is bitwise the whole-tensor mean."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=_partitioned_data(),
        estimator=st.sampled_from(["normal_scores", "pairwise_mle"]),
    )
    def test_equals_the_whole_tensor_mean(self, case, estimator):
        values, rows, block_size, chunk_blocks = case
        m = values.shape[1]
        floats = chunk_blocks * m * max(block_size, m)
        l = len(rows) // block_size
        with mock.patch.object(mle, "_CHUNK_FLOATS", floats):
            assert mle._chunks(l, block_size, m)[0] == slice(0, min(chunk_blocks, l))
            streamed = mle._block_average(values, rows, block_size, estimator)
        expected = _whole_tensor_average(values, rows, block_size, estimator)
        assert streamed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("l", [1, 511, 512, 513, 1025])
    def test_equals_the_whole_tensor_mean_around_a_real_chunk(self, l):
        """At m = 16 and b = 4 a chunk is 512 blocks."""
        assert mle._chunks(10**6, 4, 16)[0] == slice(0, 512)
        values = np.random.default_rng(l).integers(0, 500, (4 * l + 3, 16))
        rows = np.random.default_rng(l + 1).permutation(len(values))[: 4 * l]
        streamed = mle._block_average(values, rows, 4, "normal_scores")
        expected = _whole_tensor_average(values, rows, 4, "normal_scores")
        assert streamed.tobytes() == expected.tobytes()


_E2E_DOMAINS = (500,) * 6 + (50,) * 5 + (5,) * 5


def _e2e_shaped(seed, n=25_000):
    """Integer records like the end-to-end benchmark's: a two-factor
    Gaussian latent model cut into equal-width bins over [-3, 3]."""
    rng = np.random.default_rng(seed)
    m = len(_E2E_DOMAINS)
    loadings = rng.uniform(0.3, 0.8, (m, 2)) * rng.choice([-1.0, 1.0], (m, 2))
    loadings /= np.sqrt(2.0)
    unique = np.sqrt(1.0 - (loadings**2).sum(axis=1))
    latent = rng.standard_normal((n, 2)) @ loadings.T
    latent += rng.standard_normal((n, m)) * unique
    sizes = np.array(_E2E_DOMAINS)
    values = np.clip(((latent + 3.0) / 6.0 * sizes).astype(np.int64), 0, sizes - 1)
    schema = Schema([Attribute(f"x{j}", d) for j, d in enumerate(_E2E_DOMAINS)])
    return Dataset(values, schema)


class TestReleasePinned:
    """Two e2e-shaped MLE releases, pinned byte for byte (correlation
    and every margin)."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "9ef83c0a0be59086269a13ac09da80b2833b0503750c6b76aba263159299c852"),
            (11, "9b2abe9940f92e4e0fbefb1d178051743ab400cf5b3bc4e30a6e9fa06cdbcd17"),
        ],
    )
    def test_e2e_shaped_release_digest(self, seed, digest):
        fit = DPCopulaMLE(1.0, rng=seed).fit(_e2e_shaped(20140324))
        hashed = hashlib.sha256(np.ascontiguousarray(fit.correlation_).tobytes())
        for counts in fit.margins_.noisy_counts:
            hashed.update(np.asarray(counts, dtype=float).tobytes())
        assert hashed.hexdigest() == digest


def test_correlation_step_peaks_in_bounded_memory():
    """100 000 × 16 at ε₂ = 1/9 is 25 000 blocks of 4, whose whole
    ``(l, m, m)`` tensor of estimates alone would take 51 MB."""
    values = np.random.default_rng(0).integers(0, 500, (100_000, 16))
    tracemalloc.start()
    try:
        dp_mle_correlation(values, 1 / 9, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
