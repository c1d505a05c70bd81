"""Algorithm 3: sampling DP synthetic data from the fitted copula.

Three steps, all pure post-processing of already-private quantities:

1. draw latent vectors from the multivariate Gaussian ``Φ(0, P̃)``
   (Cholesky factorization of the repaired DP correlation matrix);
2. push each coordinate through the standard normal CDF, yielding DP
   pseudo-copula data ``T̃ ∈ [0, 1]^(n × m)`` whose dependence is the
   Gaussian copula with parameter ``P̃``;
3. invert the DP empirical marginal distributions, mapping each uniform
   column back onto its attribute's original domain.

:func:`sample_synthetic` runs the three steps through a
:class:`~repro.engine.plan.SamplerPlan`, whose ``sample_batch`` is the
library's one implementation of the loop.  Step 3 is
:class:`BatchedMarginInverter`, which every other sampler calls too.
:func:`sample_pseudo_copula` stops after step 2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import stats as sps

from repro.data.dataset import Dataset, Schema
from repro.stats.copula_math import cholesky_factor
from repro.stats.ecdf import HistogramCDF
from repro.telemetry import trace
from repro.utils import RngLike, as_generator, check_int_at_least, check_matrix_square


#: Forward steps a guide-table lookup may take before the flat search.
_GUIDE_STEPS = 3
#: Batches of fewer cells take the flat search: in process, at 16
#: columns, both ran 800 cells in 30 µs, and the table 1 600 in 37 µs
#: against 88 µs.
_GUIDE_MIN_CELLS = 1024


class BatchedMarginInverter:
    """All ``m`` inverse-CDF transforms of an ``(n, m)`` batch at once.

    The library's only margin inverter: every sampler maps its uniforms
    onto the integer domains through it.
    :meth:`~repro.stats.ecdf.HistogramCDF.inverse` is the per-column
    definition the tests hold it to.

    Each margin's CDF lives in ``[0, 1]``; shifting margin ``j``'s CDF
    (and its uniforms) into the band ``[2j, 2j + 1]`` keeps the
    concatenated CDF vector globally sorted, so a single flat
    ``searchsorted`` answers every column of an ``(n, m)`` uniform batch
    at once.  Subtracting each band's start index recovers the
    per-margin bin, clipped to the margin's domain as
    :meth:`~repro.stats.ecdf.HistogramCDF.inverse` clips it.

    The bin itself can differ from ``HistogramCDF.inverse``'s: ``u + 2j``
    rounds away the low mantissa bits of ``u`` (to a step of 2⁻⁴⁸ for
    columns 8-15), so a ``u`` just above a CDF value may compare as equal
    to it.  Probed one ulp above 50 CDF values, column 15 of a 16-margin
    model gave a different bin on 49-50 of them and column 0 on none.  A
    uniform draw lands that close to one of a margin's ``d`` CDF values
    with odds of about d·2⁻⁴⁸, so no release has shown it; sampling keeps
    this rounding, so seeded draws stay reproducible.

    A call answers that flat search without running it for most cells,
    through a guide table (Chen–Asau indexed search; Devroye 1986,
    §III.2.4) built once, here, and so cached in every compiled plan.
    Band ``j`` is cut into ``B_j`` equal buckets, ``B_j`` the smallest
    power of two ≥ ``4 d_j``, and bucket ``b`` stores the flat search's
    answer at its lower edge ``2j + b/B_j``.  A banded value ``x`` falls
    in bucket ``⌊(x − 2j)·B_j⌋`` (the last bucket also takes
    ``x = 2j + 1``), and both steps are exact: the subtraction by
    Sterbenz's lemma, the product because ``B_j`` is a power of two.  So
    the edge is at most ``x`` and the stored answer never overshoots.
    Up to three forward steps, each taken while the CDF entry is below
    ``x``, reach the flat search's answer; they pass the equal entries
    of zero-mass runs, since a bucket holds a quarter of an entry on
    average.  A cell still short after three, and NaN, which no entry
    is at or above, goes to the flat search itself.  Each cell's bin is
    therefore bitwise the flat search's, and depends only on that
    cell's value and column, so a slice of a batch inverts as the whole
    batch does.  A batch of fewer than 1 024 cells runs the flat search
    directly: below that size the table saves nothing.

    The table lives in banded space (its entries are flat-search answers
    at banded edges, and the steps compare banded values with the
    banded CDF) because that is what the flat search compares: values
    after ``u + 2j`` has rounded.  A table over the unshifted CDFs,
    searched with ``u`` itself, would return
    :meth:`HistogramCDF.inverse`'s bin and drop the rounding above, so
    seeded samples would change.  Thresholds in latent space (each CDF
    value's normal quantile, compared with the latent draw so that the
    normal CDF is skipped) were rejected too: :func:`scipy.special.ndtr`
    is not monotone in floating point (``ndtr(-2.6954293662216915)``
    exceeds ``ndtr(-2.695429366221691)``), so a latent comparison can
    order a draw differently from its ``ndtr`` value.
    """

    def __init__(self, margins: Sequence[HistogramCDF]):
        margins = list(margins)
        if not margins:
            raise ValueError("need at least one margin")
        cdfs = [margin.cdf for margin in margins]
        sizes = np.array([cdf.size for cdf in cdfs], dtype=np.int64)
        self._bands = 2.0 * np.arange(len(margins))
        flat = np.concatenate([cdf + band for cdf, band in zip(cdfs, self._bands)])
        # A finite value's forward steps stop at the first +inf pad; NaN
        # takes every step and stays inside the pads.
        self._padded = np.concatenate([flat, np.full(_GUIDE_STEPS + 1, np.inf)])
        self._flat = self._padded[: flat.size]
        self._starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        self._limits = sizes - 1
        widths = [1 << (4 * int(size) - 1).bit_length() for size in sizes]
        self._widths = np.array(widths, dtype=float)
        self._last_buckets = self._widths - 1.0
        self._guide_starts = np.cumsum([0] + widths[:-1])
        # Each edge 2j + b/B_j is exact while B_j·2m stays below 2⁵².
        edges = np.concatenate(
            [band + np.arange(width) / width for band, width in zip(self._bands, widths)]
        )
        # Every plan the registry caches holds a table, so it is stored in
        # the narrowest unsigned type that holds every index (2 bytes an
        # entry below 65 536 CDF values).
        self._guide = np.searchsorted(flat, edges, side="left").astype(
            np.min_scalar_type(self._padded.size)
        )

    @property
    def n_margins(self) -> int:
        return self._bands.size

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        """Map an ``(n, m)`` uniform batch onto the integer domains."""
        uniforms = np.asarray(uniforms, dtype=float)
        if uniforms.ndim != 2 or uniforms.shape[1] != self.n_margins:
            raise ValueError(
                f"expected an (n, {self.n_margins}) uniform batch, got "
                f"shape {uniforms.shape}"
            )
        banded = np.clip(uniforms, 0.0, 1.0) + self._bands
        if banded.size < _GUIDE_MIN_CELLS:
            bins = np.searchsorted(self._flat, banded, side="left")
        else:
            bins = self._guided_search(banded)
        # A bin never falls below its band's start, so only the upper
        # clip of HistogramCDF.inverse can bind (NaN's bin is past the end).
        bins -= self._starts
        return np.minimum(bins, self._limits, out=bins).astype(np.int64, copy=False)

    def _guided_search(self, banded: np.ndarray) -> np.ndarray:
        """The flat search's answer for every banded value, by guide table."""
        buckets = banded - self._bands
        buckets *= self._widths
        # fmin puts x = 2j + 1, and NaN, in the last bucket.
        np.fmin(buckets, self._last_buckets, out=buckets)
        index = buckets.astype(np.intp)
        index += self._guide_starts
        bins = self._guide[index].astype(np.intp)
        flat_bins = bins.reshape(-1)
        values = banded.reshape(-1)
        # Not `<`: NaN compares false either way and must stay behind.
        behind = np.flatnonzero(~(self._padded[flat_bins] >= values))
        for _ in range(_GUIDE_STEPS):
            if not behind.size:
                break
            flat_bins[behind] += 1
            behind = behind[~(self._padded[flat_bins[behind]] >= values[behind])]
        if behind.size:
            flat_bins[behind] = np.searchsorted(self._flat, values[behind], side="left")
        return bins


def sample_pseudo_copula(
    correlation: np.ndarray,
    n: int,
    rng: RngLike = None,
) -> np.ndarray:
    """Steps 1a–1b of Algorithm 3: uniform data with Gaussian dependence.

    Returns an ``(n, m)`` array in ``(0, 1)`` whose copula is the
    Gaussian copula with the given correlation matrix.
    """
    correlation = check_matrix_square("correlation", correlation)
    check_int_at_least("n", n, 1)
    gen = as_generator(rng)
    m = correlation.shape[0]
    cholesky = cholesky_factor(correlation)
    latent = gen.standard_normal((n, m)) @ cholesky.T
    return sps.norm.cdf(latent)


def sample_synthetic(
    correlation: np.ndarray,
    margins: Sequence[HistogramCDF],
    n: int,
    schema: Schema,
    rng: RngLike = None,
) -> Dataset:
    """Algorithm 3 end-to-end: DP synthetic records on the original domain.

    Builds a :class:`~repro.engine.plan.SamplerPlan` (which checks the
    margins against the schema) and draws through it, so these records
    are bitwise those the service's compiled plan serves for the same
    generator state.

    Parameters
    ----------
    correlation:
        The DP correlation matrix ``P̃`` (repaired if needed).
    margins:
        DP marginal distributions ``F̃_j`` (from :class:`DPMargins`).
    n:
        Number of synthetic records to draw.
    schema:
        The output schema (for domain validation).
    """
    # The engine builds on core, so its plan is imported at call time.
    from repro.engine.plan import SamplerPlan

    with trace.span("sampling", n=int(n), m=schema.dimensions):
        plan = SamplerPlan(correlation, margins, schema)
        return plan.sample(n, as_generator(rng))
