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
default).  ``l`` routinely reaches the thousands (6 250 blocks of 4 at
25 000 × 16), so the normal scores are vectorized over the blocks of one
fixed-size chunk at a time and each chunk is folded into a running sum,
so the average is bitwise the one the whole ``(l, m, m)`` tensor of
estimates would give.  The step allocates a few MB whatever ``l`` and
``n`` while one block fits a chunk (``b·m`` and ``m²`` at most
``_CHUNK_FLOATS``); a larger block, as when a large ``ε₂`` or a small
``l`` leaves few blocks, is processed alone, in memory of order ``b·m``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
from scipy.special import ndtri

from repro.parallel import ExecutionContext, resolve_context
from repro.telemetry import trace
from repro.stats.copula_math import copula_mle_matrix
from repro.stats.ecdf import pseudo_copula_transform
from repro.stats.psd_repair import is_positive_definite, make_positive_definite
from repro.utils import RngLike, as_generator, check_positive, pairs_count

COEFFICIENT_DIAMETER = 2.0  # Λ: correlation coefficients live in [-1, 1]
_PAPER_PARTITION_CONSTANT = 0.025

#: Floats the largest array of one chunk of blocks may hold: its
#: gathered rows (blocks × b × m) or its estimates (blocks × m × m).
_CHUNK_FLOATS = 1 << 17


def required_partitions(m: int, epsilon2: float, cap: Optional[int] = None) -> int:
    """The paper's lower bound ``l > C(m,2) / (0.025·ε₂)``, at most ``cap``.

    The bound meets ``cap`` as a float, so an ``ε₂`` small enough to
    make it infinite saturates at ``cap`` instead of overflowing.
    """
    check_positive("epsilon2", epsilon2)
    scaled = _PAPER_PARTITION_CONSTANT * epsilon2  # 0.0 for a subnormal ε₂
    bound = pairs_count(m) / scaled if scaled > 0 else math.inf
    if cap is not None and bound >= cap:
        return int(cap)
    return int(np.ceil(bound))


def _blockwise_normal_scores(blocks: np.ndarray) -> np.ndarray:
    """Normal-scores correlation for every block of a chunk at once.

    ``blocks`` has shape ``(c, b, m)``; returns ``(c, m, m)``.
    Ranks are computed within each block (keeping blocks disjoint, as the
    sensitivity argument requires), and rank ``r`` scores
    ``Φ⁻¹((r + 1)/(b + 1))``, read from a table of the ``b`` scores
    (``ndtri`` is the kernel of ``scipy.stats.norm.ppf``, without its
    per-call argument handling).
    """
    c, b, m = blocks.shape
    order = np.argsort(blocks, axis=1, kind="stable")
    scores = ndtri((np.arange(b) + 1.0) / (b + 1.0))
    z = np.empty(blocks.shape)
    np.put_along_axis(z, order, scores[None, :, None], axis=1)
    z -= z.mean(axis=1, keepdims=True)
    corr = np.einsum("lbi,lbj->lij", z, z)
    corr /= b
    std = np.sqrt(np.einsum("lii->li", corr))
    # A zero (or NaN) denominator leaves a non-finite quotient, zeroed
    # below, so no mask is needed for it.
    with np.errstate(invalid="ignore", divide="ignore"):
        corr /= np.einsum("li,lj->lij", std, std)
    corr[~np.isfinite(corr)] = 0.0
    corr.reshape(c, m * m)[:, :: m + 1] = 1.0
    return corr


def _chunks(l: int, block_size: int, m: int) -> List[slice]:
    """The blocks in order, cut into runs whose gathered rows
    (blocks × b × m) and estimates (blocks × m × m) fit ``_CHUNK_FLOATS``;
    a block that alone exceeds it is a run of its own."""
    step = max(1, _CHUNK_FLOATS // (m * max(block_size, m)))
    return [slice(start, min(start + step, l)) for start in range(0, l, step)]


def _gather(
    values: np.ndarray, rows: np.ndarray, block_size: int, blocks: slice
) -> np.ndarray:
    """The ``(c, b, m)`` float tensor of a run of blocks."""
    chunk = values[rows[blocks.start * block_size : blocks.stop * block_size]]
    return np.asarray(chunk, dtype=float).reshape(-1, block_size, values.shape[1])


def _block_mle_task(task: int, shared: np.ndarray) -> np.ndarray:
    """Worker body: the pairwise copula MLE of one disjoint block.

    ``shared`` is the full ``(l, b, m)`` block tensor (broadcast once per
    worker by the execution context); the task is the block index.
    """
    pseudo = pseudo_copula_transform(shared[task])
    return copula_mle_matrix(pseudo)


def _block_average(
    values: np.ndarray,
    rows: np.ndarray,
    block_size: int,
    estimator: str,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """The mean of the block estimates, one chunk of blocks at a time.

    Block ``k`` is the rows ``rows[k·b : (k+1)·b]`` of ``values``.  Each
    chunk's estimates are added behind the running sum, which keeps the
    additions in the order one ``np.add.reduce(axis=0)`` over every block
    makes: the result is bitwise the mean of the whole ``(l, m, m)``
    tensor of estimates, which is never built.
    """
    l = len(rows) // block_size
    chunks = _chunks(l, block_size, values.shape[1])
    if estimator == "normal_scores":
        estimates = (
            _blockwise_normal_scores(_gather(values, rows, block_size, blocks))
            for blocks in chunks
        )
    else:
        matrices = resolve_context(context).map_tasks(
            _block_mle_task,
            range(l),
            shared=_gather(values, rows, block_size, slice(0, l)),
        )
        estimates = (np.asarray(matrices[blocks]) for blocks in chunks)
    total = None
    for chunk in estimates:
        if total is not None:
            chunk = np.concatenate((total[None], chunk))
        total = np.add.reduce(chunk, axis=0)
    return total / l


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
        ``"normal_scores"`` (one-step MLE, vectorized over a chunk of
        blocks at a time) or ``"pairwise_mle"`` (iterative bivariate
        likelihood maximization).
    context:
        :class:`~repro.parallel.ExecutionContext` over which the
        per-block ``pairwise_mle`` fits fan out (``None``: serial) —
        the blocks are disjoint by construction, so they are
        independent tasks.
        ``normal_scores`` is vectorized across blocks and ignores it.

    Returns
    -------
    A positive-definite correlation matrix with unit diagonal.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected an (n, m) matrix, got shape {values.shape}")
    n, m = values.shape
    if m < 2:
        return np.eye(m)
    check_positive("epsilon2", epsilon2)
    if estimator not in ("normal_scores", "pairwise_mle"):
        raise ValueError(
            f"unknown estimator {estimator!r}; expected 'normal_scores' or "
            "'pairwise_mle'"
        )
    gen = as_generator(rng)
    pairs = pairs_count(m)

    # Not enough data for the paper's bound: use the largest feasible l.
    # (The noise scale Λ·C(m,2)/(l·ε₂) then honestly reflects the cost.)
    max_l = max(1, n // min_block_size)
    if l is None:
        l = required_partitions(m, epsilon2, cap=max_l)
    l = min(int(l), max_l)
    if l < 1:
        raise ValueError("need at least one partition")

    block_size = n // l
    if block_size < 2:
        raise ValueError(
            f"blocks of {block_size} record(s) cannot support correlation "
            f"estimation; reduce l (= {l}) or provide more data"
        )
    with trace.span("partition", l=l, block_size=block_size):
        rows = gen.permutation(n)[: l * block_size]

    with trace.span("block_estimates", estimator=estimator, l=l):
        averaged = _block_average(values, rows, block_size, estimator, context)

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
