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


class BatchedMarginInverter:
    """All ``m`` inverse-CDF transforms in one ``searchsorted`` call.

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
    """

    def __init__(self, margins: Sequence[HistogramCDF]):
        margins = list(margins)
        if not margins:
            raise ValueError("need at least one margin")
        cdfs = [margin.cdf for margin in margins]
        sizes = np.array([cdf.size for cdf in cdfs], dtype=np.int64)
        self._bands = 2.0 * np.arange(len(margins))
        self._flat = np.concatenate(
            [cdf + band for cdf, band in zip(cdfs, self._bands)]
        )
        self._starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        self._limits = sizes - 1

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
        flat_bins = np.searchsorted(self._flat, banded, side="left")
        local = flat_bins - self._starts
        return np.clip(local, 0, self._limits).astype(np.int64)


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
