"""Compiled sampler plans: per-model work done once, not per request.

Sampling a released copula model (paper Algorithm 3) splits into two
kinds of work.  *Per-model* work — repairing and factorizing the DP
correlation matrix, normalizing the noisy margin counts into CDF lookup
tables — depends only on the released state and is identical for every
request.  *Per-request* work — drawing latent normals, the normal-CDF
push, the inverse-margin lookup — is three vectorized passes.  A
:class:`SamplerPlan` hoists all per-model work to compile time so the
request path is exactly those three passes against read-only arrays.

Bitwise contract: for the same ``np.random.Generator`` state,
:meth:`SamplerPlan.sample` produces bit-for-bit the records of
:meth:`repro.io.ReleasedModel.sample` — the plan caches the *inputs*
to the hot loop (Cholesky factor, inverter tables), never changes the
operations.  (The normal-CDF push uses :func:`scipy.special.ndtr`
directly — the exact kernel ``scipy.stats.norm.cdf`` evaluates, minus
the distribution-dispatch overhead; the outputs are bit-identical.)  :meth:`SamplerPlan.sample_batch` extends the contract to
coalesced execution: each request's latent block is drawn from its own
generator and multiplied at its own shape (single-row slices of a large
GEMM are *not* bitwise stable across BLAS kernels, so the matmul is
deliberately per-request), while the elementwise normal-CDF and the
``searchsorted`` margin inversion — which are slice-stable — run once
over the whole batch.
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
from repro.utils import check_int_at_least

__all__ = ["SamplerPlan", "compile_plan"]


class SamplerPlan:
    """Everything Algorithm 3 needs to sample, precomputed and read-only.

    Parameters
    ----------
    model_id:
        Registry id of the model this plan was compiled from.
    generation:
        Monotone per-model counter assigned by the registry; a hot-swap
        bumps it, so the coalescer never batches requests against old
        and new arrays together.
    cholesky:
        Lower-triangular factor of the (repaired) DP correlation matrix.
    inverter:
        Precomputed :class:`~repro.core.sampling.BatchedMarginInverter`
        over the model's DP margins.
    schema:
        Output schema (the sampled ``Dataset``'s domain metadata).
    n_records:
        The model's default sample size.
    epsilon:
        Privacy budget recorded on the released model (metadata only).
    """

    __slots__ = (
        "model_id",
        "generation",
        "cholesky",
        "inverter",
        "schema",
        "n_records",
        "epsilon",
    )

    def __init__(
        self,
        model_id: str,
        generation: int,
        cholesky: np.ndarray,
        inverter: BatchedMarginInverter,
        schema: Schema,
        n_records: int,
        epsilon: float,
    ):
        self.model_id = str(model_id)
        self.generation = int(generation)
        self.cholesky = np.asarray(cholesky, dtype=float)
        self.inverter = inverter
        self.schema = schema
        self.n_records = int(n_records)
        self.epsilon = float(epsilon)
        if self.cholesky.ndim != 2 or self.cholesky.shape[0] != self.cholesky.shape[1]:
            raise ValueError(
                f"cholesky must be square, got shape {self.cholesky.shape}"
            )
        if self.cholesky.shape[0] != schema.dimensions:
            raise ValueError(
                f"cholesky is {self.cholesky.shape[0]}-dimensional but the "
                f"schema has {schema.dimensions} attributes"
            )

    @property
    def m(self) -> int:
        """Number of attributes (the latent dimension)."""
        return self.cholesky.shape[0]

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """One request: bitwise identical to ``ReleasedModel.sample``.

        Runs as a batch of one, so the plan has a single hot loop.
        """
        return self.sample_batch([(n, rng)])[0]

    def sample_batch(
        self, requests: Sequence[Tuple[int, np.random.Generator]]
    ) -> List[Dataset]:
        """Coalesced execution of many requests in one vectorized pass.

        Each ``(n, generator)`` request's output is bitwise identical to
        drawing it alone: the latent draw and the Cholesky matmul run per
        request (their results depend on the generator state and, for
        BLAS, on the operand shapes), while the elementwise normal CDF
        and the banded ``searchsorted`` inversion — both verified
        slice-stable — run once over the whole batch.
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


def compile_plan(
    model: ReleasedModel, model_id: str, generation: int = 1
) -> SamplerPlan:
    """Compile a released model's per-model sampling work into a plan.

    Performs exactly the per-model steps of
    :func:`repro.core.sampling.sample_synthetic` — PSD repair + Cholesky
    via :func:`repro.stats.copula_math.cholesky_factor`, margin CDF
    normalization, inverter table construction — so plan-based sampling
    is bitwise identical to the uncompiled path.
    """
    cholesky = cholesky_factor(model.correlation)
    margins = [HistogramCDF(counts) for counts in model.margin_counts]
    inverter = BatchedMarginInverter(margins)
    return SamplerPlan(
        model_id=model_id,
        generation=generation,
        cholesky=cholesky,
        inverter=inverter,
        schema=model.schema,
        n_records=model.n_records,
        epsilon=model.epsilon,
    )
