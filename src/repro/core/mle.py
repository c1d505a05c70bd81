"""Algorithm 2: DP maximum-likelihood estimation of the copula correlation.

The subsample-and-aggregate construction of Dwork & Smith: split the data
into ``l`` disjoint blocks, compute the (non-private) Gaussian-copula MLE
on each block, release the blockwise average plus Laplace noise.  Each
correlation coefficient lives in a space of diameter ``Λ = 2``; changing
one tuple affects exactly one block, moving the average by at most
``Λ / l``, so each coefficient needs ``Lap(C(m,2)·Λ / (l·ε₂))`` for its
``ε₂ / C(m,2)`` budget share.  Disjoint blocks additionally mean the
per-block estimation itself composes in parallel.

The paper requires ``l > C(m,2) / (0.025·ε₂)`` so the injected noise is
small on the [-1, 1] coefficient scale, which in turn demands a large
cardinality ``n`` — the practical weakness relative to DPCopula-Kendall
that Figure 6 demonstrates.

Per-block estimator: the paper fits the copula by maximizing Eq. (1) on
the block's pseudo-copula data.  We support both the iterative pairwise
MLE (``estimator="pairwise_mle"``) and its standard one-step
approximation, the normal-scores correlation (``estimator="normal_scores"``,
default — fully vectorized across blocks, which matters because ``l``
routinely reaches the thousands).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import stats as sps

from repro.parallel import ExecutionContext, resolve_context
from repro.telemetry import trace
from repro.stats.copula_math import copula_mle_matrix
from repro.stats.ecdf import pseudo_copula_transform
from repro.stats.psd_repair import is_positive_definite, make_positive_definite
from repro.utils import RngLike, as_generator, check_positive, pairs_count

COEFFICIENT_DIAMETER = 2.0  # Λ: correlation coefficients live in [-1, 1]
_PAPER_PARTITION_CONSTANT = 0.025


def required_partitions(m: int, epsilon2: float) -> int:
    """The paper's lower bound ``l > C(m,2) / (0.025·ε₂)``."""
    check_positive("epsilon2", epsilon2)
    return int(np.ceil(pairs_count(m) / (_PAPER_PARTITION_CONSTANT * epsilon2)))


def _blockwise_normal_scores(blocks: np.ndarray) -> np.ndarray:
    """Normal-scores correlation for every block at once.

    ``blocks`` has shape ``(l, b, m)``; returns ``(l, m, m)``.
    Ranks are computed within each block (keeping blocks disjoint, as the
    sensitivity argument requires).
    """
    l, b, m = blocks.shape
    order = np.argsort(blocks, axis=1, kind="stable")
    ranks = np.empty_like(order)
    grid = np.arange(b)[None, :, None]
    np.put_along_axis(ranks, order, np.broadcast_to(grid, (l, b, m)).copy(), axis=1)
    u = (ranks + 1.0) / (b + 1.0)
    z = sps.norm.ppf(u)
    z = z - z.mean(axis=1, keepdims=True)
    cov = np.einsum("lbi,lbj->lij", z, z) / b
    std = np.sqrt(np.einsum("lii->li", cov))
    denom = np.einsum("li,lj->lij", std, std)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)
    identity = np.broadcast_to(np.eye(m), (l, m, m)).copy()
    corr = np.where(np.isfinite(corr), corr, identity)
    for matrix in corr:
        np.fill_diagonal(matrix, 1.0)
    return corr


def _block_mle_task(task: int, shared: np.ndarray) -> np.ndarray:
    """Worker body: the pairwise copula MLE of one disjoint block.

    ``shared`` is the full ``(l, b, m)`` block tensor (broadcast once per
    worker by the execution context); the task is the block index.
    """
    pseudo = pseudo_copula_transform(shared[task])
    return copula_mle_matrix(pseudo)


def dp_mle_correlation(
    values: np.ndarray,
    epsilon2: float,
    l: Optional[int] = None,
    rng: RngLike = None,
    estimator: str = "normal_scores",
    min_block_size: int = 4,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Compute the DP correlation matrix estimator ``P̃`` (Algorithm 2).

    Parameters
    ----------
    values:
        ``(n, m)`` data matrix.
    epsilon2:
        Total correlation budget (each coefficient gets ``ε₂ / C(m,2)``).
    l:
        Number of disjoint blocks; ``None`` uses the paper's bound capped
        so each block keeps at least ``min_block_size`` records.
    estimator:
        ``"normal_scores"`` (vectorized one-step MLE) or
        ``"pairwise_mle"`` (iterative bivariate likelihood maximization).
    context:
        :class:`~repro.parallel.ExecutionContext` over which the
        per-block ``pairwise_mle`` fits fan out (``None``: serial) —
        the blocks are disjoint by construction, so they are
        independent tasks.
        ``normal_scores`` is already vectorized across blocks and
        ignores it.

    Returns
    -------
    A positive-definite correlation matrix with unit diagonal.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected an (n, m) matrix, got shape {values.shape}")
    n, m = values.shape
    if m < 2:
        return np.eye(m)
    check_positive("epsilon2", epsilon2)
    gen = as_generator(rng)
    pairs = pairs_count(m)

    if l is None:
        l = required_partitions(m, epsilon2)
    l = int(l)
    max_l = max(1, n // min_block_size)
    if l > max_l:
        # Not enough data for the paper's bound: use the largest feasible l.
        # (The noise scale Λ·C(m,2)/(l·ε₂) then honestly reflects the cost.)
        l = max_l
    if l < 1:
        raise ValueError("need at least one partition")

    block_size = n // l
    if block_size < 2:
        raise ValueError(
            f"blocks of {block_size} record(s) cannot support correlation "
            f"estimation; reduce l (= {l}) or provide more data"
        )
    with trace.span("partition", l=l, block_size=block_size):
        usable = l * block_size
        permutation = gen.permutation(n)[:usable]
        blocks = values[permutation].reshape(l, block_size, m)

    with trace.span("block_estimates", estimator=estimator, l=l):
        if estimator == "normal_scores":
            block_estimates = _blockwise_normal_scores(blocks)
        elif estimator == "pairwise_mle":
            matrices = resolve_context(context).map_tasks(
                _block_mle_task, range(l), shared=blocks
            )
            block_estimates = np.stack(matrices)
        else:
            raise ValueError(
                f"unknown estimator {estimator!r}; expected 'normal_scores' or "
                "'pairwise_mle'"
            )

    averaged = block_estimates.mean(axis=0)

    with trace.span("laplace_noise", pairs=pairs):
        scale = (pairs * COEFFICIENT_DIAMETER) / (l * epsilon2)
        upper = np.triu_indices(m, k=1)
        noisy = averaged.copy()
        noisy[upper] += gen.laplace(0.0, scale, size=len(upper[0]))
        noisy.T[upper] = noisy[upper]
        noisy = np.clip(noisy, -1.0, 1.0)
        np.fill_diagonal(noisy, 1.0)

    if is_positive_definite(noisy):
        return noisy
    with trace.span("psd_repair", method="eigenvalue"):
        return make_positive_definite(noisy)
