"""Compiled sampler plans: paper Algorithm 3, per-model work done once.

Sampling a released copula model splits into two kinds of work.
*Per-model* work — checking the margins against the schema, repairing
and factorizing the DP correlation matrix, building the margin
inverter's banded CDF vector and guide table — depends only on the
released state.  *Per-request* work — drawing latent normals, the
normal-CDF push, the inverse-margin lookup — is three vectorized
passes.  A :class:`SamplerPlan` does the per-model work when it is
built, so the request path is exactly those three passes against
read-only arrays.

:meth:`SamplerPlan.sample_batch` is the library's only Algorithm 3
loop.  :func:`repro.core.sampling.sample_synthetic` builds a plan and
draws through it, and with it :meth:`repro.io.ReleasedModel.sample`,
the synthesizers' ``sample`` and the noise-free Gaussian copula; the
service's registry caches one :func:`compile_plan` result per model.
So every entry point maps the same generator state to the same
records.  The normal-CDF push calls :func:`scipy.special.ndtr`, the
kernel ``scipy.stats.norm.cdf`` evaluates, without its distribution
dispatch.

Coalesced execution keeps that contract per request: each request's
latent block is drawn from its own generator and multiplied at its own
shape (single-row slices of a large GEMM are *not* bitwise stable
across BLAS kernels, so the matmul is deliberately per-request), while
the elementwise normal CDF and the margin inversion — slice-stable,
since each cell's bin depends only on its own value and column — run
once over the whole batch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import special as sc

from repro.core.sampling import BatchedMarginInverter
from repro.data.dataset import Dataset, Schema
from repro.io import ReleasedModel
from repro.stats.copula_math import cholesky_factor
from repro.stats.ecdf import HistogramCDF
from repro.utils import check_int_at_least, check_matrix_square

__all__ = ["SamplerPlan", "compile_plan"]


class SamplerPlan:
    """Everything Algorithm 3 needs to sample, precomputed and read-only.

    Building one checks its inputs: a square correlation, and one
    margin per attribute covering exactly that attribute's domain.

    Parameters
    ----------
    correlation:
        The DP correlation matrix ``P̃``; factorized (after PSD repair
        if needed) by :func:`~repro.stats.copula_math.cholesky_factor`.
    margins:
        The DP marginal distributions ``F̃_j``, one per attribute.
    schema:
        Output schema (the sampled ``Dataset``'s domain metadata).
    model_id:
        Registry id of the model this plan was compiled from; the
        coalescer batches requests per id.
    n_records:
        The model's default sample size.
    """

    __slots__ = (
        "model_id",
        "cholesky",
        "inverter",
        "schema",
        "n_records",
    )

    def __init__(
        self,
        correlation: np.ndarray,
        margins: Sequence[HistogramCDF],
        schema: Schema,
        model_id: str = "",
        n_records: int = 0,
    ):
        margins = list(margins)
        correlation = check_matrix_square("correlation", correlation)
        if len(margins) != correlation.shape[0]:
            raise ValueError(
                f"{len(margins)} margins but correlation is "
                f"{correlation.shape[0]}x{correlation.shape[0]}"
            )
        if len(margins) != schema.dimensions:
            raise ValueError(
                f"{len(margins)} margins but schema has {schema.dimensions} attributes"
            )
        for margin, attribute in zip(margins, schema):
            if margin.domain_size != attribute.domain_size:
                raise ValueError(
                    f"margin for {attribute.name!r} covers {margin.domain_size} "
                    f"values but the attribute domain has {attribute.domain_size}"
                )
        self.model_id = str(model_id)
        self.cholesky = cholesky_factor(correlation)
        self.inverter = BatchedMarginInverter(margins)
        self.schema = schema
        self.n_records = int(n_records)

    @property
    def m(self) -> int:
        """Number of attributes (the latent dimension)."""
        return self.cholesky.shape[0]

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """One request, run as a batch of one through :meth:`sample_batch`."""
        return self.sample_batch([(n, rng)])[0]

    def sample_batch(
        self, requests: Sequence[Tuple[int, np.random.Generator]]
    ) -> List[Dataset]:
        """Coalesced execution of many requests in one vectorized pass.

        Each ``(n, generator)`` request's output is bitwise identical to
        drawing it alone: the latent draw and the Cholesky matmul run per
        request (their results depend on the generator state and, for
        BLAS, on the operand shapes), while the elementwise normal CDF
        and the guide-table margin inversion — both slice-stable, and
        tested so — run once over the whole batch.
        """
        if not requests:
            return []
        sizes = [check_int_at_least("n", n, 1) for n, _ in requests]
        total = int(sum(sizes))
        latent = np.empty((total, self.m), dtype=float)
        offset = 0
        for (n, gen), size in zip(requests, sizes):
            block = gen.standard_normal((size, self.m)) @ self.cholesky.T
            latent[offset : offset + size] = block
            offset += size
        records = self.inverter(sc.ndtr(latent))
        results: List[Dataset] = []
        offset = 0
        for size in sizes:
            # Dataset copies its values, so the slice does not pin the
            # whole batch array in memory.
            results.append(Dataset(records[offset : offset + size], self.schema))
            offset += size
        return results


def compile_plan(model: ReleasedModel, model_id: str) -> SamplerPlan:
    """Compile a released model's per-model sampling work into a plan.

    Normalizes the noisy margin counts into CDFs and builds the
    :class:`SamplerPlan` the registry caches for the model, so a
    malformed model file fails here, naming the attribute, before any
    request is served from it.  :meth:`ReleasedModel.sample` draws
    through the same plan construction, so a plan's records are the
    model's records by construction.
    """
    return SamplerPlan(
        model.correlation,
        [HistogramCDF(counts) for counts in model.margin_counts],
        model.schema,
        model_id=model_id,
        n_records=model.n_records,
    )
