"""Kendall's tau rank correlation (Definition 3.5).

Two reference implementations are provided:

* :func:`kendall_tau_naive` — the literal O(n²) pairwise definition,
  kept as an executable specification and test oracle;
* :func:`kendall_tau_merge` — Knight's O(n log n) algorithm (the "fast
  Kendall's tau computation method" the paper's complexity analysis
  assumes), counting discordant pairs as inversions with a merge sort.

:func:`kendall_tau_matrix` rank-codes each column once
(:func:`rank_code_columns`: one ``bincount`` for an integer column whose
range is below its length, ``np.unique`` otherwise; codes stored in the
narrowest unsigned dtype) and gives each of the ``C(m, 2)`` pairs one of
two exact kernels.  A pair whose rank codes span ``d_x·d_y ≤ 4n`` joint
cells takes the count-table kernel: a ``bincount`` of the joint codes
and two prefix sums over that table.  Every other pair (continuous or
large-domain columns) takes scipy's compiled Knight merge sort.  Both
produce the integer concordant-minus-discordant count ``C − D`` and
divide it once by ``C(n, 2)``, so each equals :func:`kendall_tau_merge`
bit for bit.  The scheduling rule: table pairs, short and holding the
GIL for most of their run, always run on the calling thread; merge
pairs, whose sorts release it, fan out over a
:class:`~repro.parallel.ExecutionContext`.

All compute **tau-a**: the paper's Definition 3.5 normalizes by
``C(n, 2)`` without tie corrections, and the Lemma 4.1 sensitivity bound
is derived for exactly that statistic, so we match it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import stats as sps

from repro.parallel import ExecutionContext, resolve_context
from repro.utils import check_matrix_square


def kendall_tau_naive(x: np.ndarray, y: np.ndarray) -> float:
    """O(n²) Kendall's tau-a, the literal Definition 3.5 estimator.

    ``τ̂ = C(n,2)⁻¹ Σ_{i<j} sign(x_i - x_j) * sign(y_i - y_j)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("Kendall's tau needs at least two observations")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    total = float(np.sum(dx[upper] * dy[upper]))
    return total / (n * (n - 1) / 2.0)


def _count_inversions(values: np.ndarray) -> int:
    """Number of (i < j, values[i] > values[j]) inversions.

    Vectorized bottom-up merge sort: the array is padded to a power of
    two with a maximal sentinel, and at each of the log n levels all
    blocks are processed in one batched ``searchsorted`` (rows are kept
    disjoint by adding per-block offsets to the rank-coded values), so
    the Python-level work is O(log n) passes rather than O(n) merges.
    Pairs equal in value contribute no inversions (strict ``>`` only).
    """
    values = np.asarray(values)
    n = values.size
    if n < 2:
        return 0
    # Dense rank coding: preserves order/ties, bounds values for offsets.
    ranks = np.unique(values, return_inverse=True)[1].astype(np.int64)
    sentinel = np.int64(ranks.max() + 1)
    size = 1
    while size < n:
        size *= 2
    padded = np.full(size, sentinel, dtype=np.int64)
    padded[:n] = ranks

    inversions = 0
    width = 1
    stride = sentinel + 1
    while width < size:
        blocks = padded.reshape(-1, 2 * width)
        left = blocks[:, :width]
        right = blocks[:, width:]
        # Offset every block into its own value band so one flat
        # searchsorted answers all blocks at once.
        offsets = (np.arange(blocks.shape[0], dtype=np.int64) * stride)[:, None]
        flat_left = (left + offsets).ravel()
        flat_right = (right + offsets).ravel()
        positions = np.searchsorted(flat_left, flat_right, side="right")
        # Elements of `left` strictly greater than each right element are
        # those after its insertion point, within the block's band.
        block_ends = np.repeat(np.arange(1, blocks.shape[0] + 1) * width, width)
        inversions += int((block_ends - positions).sum())
        padded = np.sort(blocks, axis=1, kind="stable").ravel()
        width *= 2
    return inversions


def kendall_tau_merge(x: np.ndarray, y: np.ndarray) -> float:
    """O(n log n) Kendall's tau-a via Knight's inversion-counting algorithm.

    Sort by ``x`` (ties broken by ``y``), then discordant pairs among
    x-distinct pairs are exactly inversions of the ``y`` sequence.  Tied
    pairs contribute ``sign(...) = 0`` and are subtracted from both the
    concordant and discordant tallies, matching the tau-a definition.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("Kendall's tau needs at least two observations")

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]

    total_pairs = n * (n - 1) // 2

    def tied_pair_count(sorted_values: np.ndarray) -> int:
        _, counts = np.unique(sorted_values, return_counts=True)
        return int(np.sum(counts * (counts - 1) // 2))

    ties_x = tied_pair_count(xs)
    ties_y = tied_pair_count(np.sort(ys))

    # Pairs tied in both coordinates simultaneously.
    pairs = np.stack([xs, ys], axis=1)
    _, joint_counts = np.unique(pairs, axis=0, return_counts=True)
    ties_xy = int(np.sum(joint_counts * (joint_counts - 1) // 2))

    # Inversions of y within the x-sorted order count discordant pairs,
    # but pairs tied in x were sorted by y and contribute no inversions,
    # and pairs tied in y contribute no inversions either - both already
    # excluded.  Discordant strictly requires x and y strict and opposite.
    discordant = _count_inversions(ys)

    # Among x-strict pairs: concordant + discordant + (y-tied-but-x-strict)
    # = total - ties_x.  y-tied-but-x-strict = ties_y - ties_xy.
    concordant = total_pairs - ties_x - (ties_y - ties_xy) - discordant
    return (concordant - discordant) / total_pairs


def kendall_tau(x: np.ndarray, y: np.ndarray, method: str = "merge") -> float:
    """Kendall's tau-a via the requested implementation."""
    if method == "merge":
        return kendall_tau_merge(x, y)
    if method == "naive":
        return kendall_tau_naive(x, y)
    raise ValueError(f"unknown method {method!r}; expected 'merge' or 'naive'")


# Above roughly this many pairs the float64 round-trip through scipy's
# tau-b statistic can no longer recover the integer (C - D) exactly, so
# the matrix engine falls back to the pure-Python merge implementation.
_EXACT_RECOVERY_MAX_PAIRS = 2**50

# A pair whose joint rank-code table has at most this many cells per
# record takes the count-table kernel.  At n = 25 000 on a 2-vCPU Xeon
# the table takes 0.06-0.36 ms per pair up to 1 cell per record and
# 2.1 ms at 4, against the merge's 2.2-4.6 ms; it loses from about 7
# cells per record (500 x 500: 5.9 ms against 3.6 ms).
_TABLE_CELLS_PER_RECORD = 4


# Rows per block of the transposing copy in rank_code_columns.  At
# n = 25 000, m = 16 on a 2-vCPU Xeon, 256-row blocks (32 KB each) take
# 0.56 ms, against 2.2 ms for one np.ascontiguousarray(values.T) and
# 2.5 ms for sixteen strided column copies.  The copy also casts to
# float64, so callers pass their values as they are: a float copy kept
# beside this one raises a served fit's peak RSS by 1-2 MB.
_TRANSPOSE_BLOCK_ROWS = 256


def _code_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype holding codes ``0 .. size - 1``.

    Past ``uint32`` codes stay ``intp``: ``uint64`` mixed with a signed
    integer promotes to ``float64`` in NumPy.
    """
    dtype = np.min_scalar_type(size - 1)
    return dtype if dtype.itemsize <= 4 else np.dtype(np.intp)


def _dense_codes(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A contiguous column's narrow dense rank codes and each code's count.

    An integer column whose range is below its length is coded by one
    ``bincount`` of its offsets from the minimum: the codes are the
    running count of occupied offsets.  For integer values with
    ``max − min < n`` every offset ``x − min`` is an exact integer, so
    the codes are ``np.unique``'s inverse, without its sort.  Any other
    column (non-integer values, a wide range, NaN or ±inf) takes
    ``np.unique``.
    """
    low, high = column.min(), column.max()
    bounded = np.isfinite(low) and high - low < column.size
    if bounded and np.array_equal(column, np.rint(column)):
        offsets = (column - low).astype(np.intp)
        counts = np.bincount(offsets)
        present = counts > 0
        counts = counts[present]
        ranks = np.cumsum(present) - 1
        return ranks.astype(_code_dtype(counts.size))[offsets], counts
    _, codes, counts = np.unique(column, return_inverse=True, return_counts=True)
    return codes.astype(_code_dtype(counts.size)), counts


def rank_code_columns(
    values: np.ndarray,
) -> Tuple[List[np.ndarray], List[int], List[int]]:
    """Dense rank codings, tied-pair counts and domain sizes, once per column.

    Kendall's tau-a depends only on the order/tie structure of each
    column, so every pairwise statistic can be computed from these
    codes.  Computing them here — once per column instead of once per
    pair inside the pair kernel — keeps sorts out of the ``C(m, 2)``
    loop and gives the parallel backends a compact shared payload.
    Each column is coded by :func:`_dense_codes` from one row of a
    C-order ``float64`` transposed copy of ``values``, made in blocks of
    rows.
    A column's domain size is its number of distinct values, so its
    codes lie in ``[0, size)``; they are stored in the narrowest
    unsigned dtype that holds them (``uint8`` up to 256 values,
    ``uint16`` up to 65 536), which makes the merge kernel's stable
    sorts radix sorts.  Arithmetic on codes must widen them first:
    NumPy computes ``uint8``/``uint16`` products in that dtype.
    """
    values = np.asarray(values)
    columns = np.empty(values.shape[::-1])
    for start in range(0, values.shape[0], _TRANSPOSE_BLOCK_ROWS):
        stop = start + _TRANSPOSE_BLOCK_ROWS
        columns[:, start:stop] = values[start:stop].T
    codes: List[np.ndarray] = []
    tied_pairs: List[int] = []
    domain_sizes: List[int] = []
    for column in columns:
        column_codes, counts = _dense_codes(column)
        codes.append(column_codes)
        tied_pairs.append(int(np.sum(counts * (counts - 1) // 2)))
        domain_sizes.append(counts.size)
    return codes, tied_pairs, domain_sizes


def _tau_a_from_table(cx: np.ndarray, cy: np.ndarray, dx: int, dy: int) -> float:
    """Exact tau-a of two rank-coded columns from their joint count table.

    ``table[i, j]`` counts the records with codes ``(i, j)``.  A record in
    cell ``(i, j)`` is concordant with every record in a cell ``(i', j')``
    with ``i' < i, j' < j`` and discordant with every one with
    ``i' < i, j' > j``; counting each pair from its larger x-code counts
    it once.  Two prefix sums give both counts for every cell, so
    ``C − D`` is one ``int64`` dot product (exact while ``n² < 2**63``),
    divided once by ``C(n, 2)``.  The joint code is formed in ``intp``:
    in the codes' narrow dtype ``cx * dy`` would wrap (``uint16``) or
    raise ``OverflowError`` (``uint8``, for ``dy > 255``).
    """
    n = cx.size
    joint = np.multiply(cx, dy, dtype=np.intp)
    joint += cy
    table = np.bincount(joint, minlength=dx * dy).reshape(dx, dy)
    # above[i, j]: records with x-code < i and y-code == j.
    above = np.cumsum(table, axis=0) - table
    # above_left[i, j]: records with x-code < i and y-code <= j.
    above_left = np.cumsum(above, axis=1)
    # concordant: above_left - above; discordant: above_left[:, -1:] - above_left.
    weight = 2 * above_left - above - above_left[:, -1:]
    concordant_minus_discordant = int(np.vdot(table, weight))
    return concordant_minus_discordant / (n * (n - 1) // 2)


def _tau_a_from_merge(
    cx: np.ndarray, cy: np.ndarray, ties_x: int, ties_y: int
) -> float:
    """Exact tau-a of two rank-coded columns via a compiled merge sort.

    ``scipy.stats.kendalltau`` runs Knight's O(n log n) algorithm in C
    and divides the integer concordant-minus-discordant count by the
    tau-b normalizer ``sqrt(total - ties_x) * sqrt(total - ties_y)``.
    Multiplying the statistic back by that normalizer and rounding
    recovers the integer exactly (the float error is ~1e-16 relative,
    orders of magnitude below 1/2 for any ``C(n, 2) < 2**50``), and
    re-normalizing by ``C(n, 2)`` yields tau-a — bit-for-bit equal to
    :func:`kendall_tau_merge`, which the regression tests assert.
    Neither column is constant: a one-value column always takes the
    table kernel.
    """
    n = cx.size
    total_pairs = n * (n - 1) // 2
    if total_pairs > _EXACT_RECOVERY_MAX_PAIRS:
        return kendall_tau_merge(cx, cy)
    statistic = sps.kendalltau(cx, cy, method="asymptotic").statistic
    normalizer = np.sqrt(total_pairs - ties_x) * np.sqrt(total_pairs - ties_y)
    concordant_minus_discordant = round(float(statistic) * float(normalizer))
    return concordant_minus_discordant / total_pairs


def _takes_table(dx: int, dy: int, n: int) -> bool:
    """The kernel rule: the count table when ``d_x·d_y ≤ 4n`` cells."""
    return dx * dy <= _TABLE_CELLS_PER_RECORD * n


def _pair_tau_task(task: Tuple[int, int], shared) -> float:
    """Worker body for one (j, k) pair of the tau matrix."""
    j, k = task
    method, columns, tied_pairs, domain_sizes = shared
    if method == "naive":
        return kendall_tau_naive(columns[j], columns[k])
    dx, dy = domain_sizes[j], domain_sizes[k]
    if _takes_table(dx, dy, columns[j].size):
        return _tau_a_from_table(columns[j], columns[k], dx, dy)
    return _tau_a_from_merge(columns[j], columns[k], tied_pairs[j], tied_pairs[k])


def kendall_tau_matrix(
    values: np.ndarray,
    method: str = "merge",
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Pairwise Kendall's tau-a matrix of the columns of ``values``.

    Diagonal entries are 1 by convention.  For ``method="merge"`` each
    pair is computed from the per-column rank codings by one of two
    exact kernels, chosen from the two columns' domain sizes alone: the
    count-table kernel when ``d_x·d_y ≤ 4n``, scipy's compiled Knight
    merge sort otherwise.  Both divide the integer ``C − D`` once by
    ``C(n, 2)``, so the result equals :func:`kendall_tau_merge` bit for
    bit, just faster.

    The scheduling rule splits the independent pairs by kernel.  Table
    pairs run on the calling thread: each is a few short NumPy calls
    that hold the GIL for most of their run, so spread over pool
    threads they contend and take longer than on one.  The merge pairs
    (every pair for ``method="naive"``), whose sorts release the GIL,
    fan out over ``context`` (an :class:`~repro.parallel.ExecutionContext`;
    default serial).  Where a pair ran never changes its value, so every
    backend returns the same matrix.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {values.shape}")
    if method not in ("merge", "naive"):
        raise ValueError(f"unknown method {method!r}; expected 'merge' or 'naive'")
    n, m = values.shape
    if m >= 2 and n < 2:
        raise ValueError("Kendall's tau needs at least two observations")
    matrix = np.eye(m)
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    if not pairs:
        return check_matrix_square("tau matrix", matrix)
    if method == "merge":
        columns, tied_pairs, domain_sizes = rank_code_columns(values)
    else:
        columns = [np.ascontiguousarray(values[:, j], dtype=float) for j in range(m)]
        tied_pairs = domain_sizes = None
    table_pairs: List[Tuple[int, int]] = []
    pooled_pairs: List[Tuple[int, int]] = []
    for j, k in pairs:
        takes_table = method == "merge" and _takes_table(
            domain_sizes[j], domain_sizes[k], n
        )
        (table_pairs if takes_table else pooled_pairs).append((j, k))
    shared = (method, columns, tied_pairs, domain_sizes)
    caller = ExecutionContext("serial")
    taus = caller.map_tasks(_pair_tau_task, table_pairs, shared=shared)
    taus += resolve_context(context).map_tasks(
        _pair_tau_task, pooled_pairs, shared=shared
    )
    for (j, k), tau in zip(table_pairs + pooled_pairs, taus):
        matrix[j, k] = matrix[k, j] = tau
    return check_matrix_square("tau matrix", matrix)
