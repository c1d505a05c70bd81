"""Algorithm 6: DPCopula hybrid for datasets with small-domain attributes.

Attributes with fewer than ~10 values (binary gender/disability/nativity
in the census data) break the "approximately continuous margins"
assumption.  The hybrid scheme:

1. partitions the dataset on the cross-product of the small-domain
   attributes (``∏ |A_i|`` cells — *all* cells, occupied or not, so the
   release pattern itself leaks nothing);
2. publishes a noisy record count ``ñ_i = n_i + Lap(1/ε₁ᵖ)`` per cell —
   the cells are disjoint, so one round of Laplace noise costs ``ε₁ᵖ``
   overall by parallel composition;
3. runs a full DPCopula synthesizer on the large-domain attributes of
   each cell with the remaining budget ``ε − ε₁ᵖ`` (again parallel across
   cells), sampling ``ñ_i`` records, and concatenates.

Degenerate cells are handled explicitly: a cell with a positive noisy
count but fewer than ``min_fit_records`` true records cannot support
copula estimation, so its synthetic rows fall back to sampling the
large-domain attributes uniformly (documented utility floor, never a
privacy issue).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

import numpy as np

from repro.core.dpcopula import (
    DEFAULT_RATIO_K,
    DPCopulaKendall,
    DPCopulaMLE,
    DPCopulaSynthesizer,
)
from repro.data.dataset import Dataset, Schema, concatenate
from repro.dp.budget import PrivacyBudget
from repro.dp.mechanisms import laplace_noise
from repro.histograms.base import HistogramPublisher
from repro.parallel import (
    ExecutionContext,
    resolve_context,
    spawn_seed_sequences,
)
from repro.telemetry import get_logger, metrics, trace
from repro.utils import RngLike, as_generator, check_positive

_MAX_PARTITIONS = 100_000

_logger = get_logger("core.hybrid")

_FIT_ERRORS = metrics.REGISTRY.counter(
    "dpcopula_fit_errors_total",
    "Failed fits, by pipeline stage (label: stage)",
)


def _fit_cell_task(task, shared):
    """Worker body: one occupied cell's full DPCopula fit + sample.

    The task carries only what differs per cell (its large-domain
    submatrix, the noisy record count to draw, and an independent child
    seed); the synthesizer configuration rides in the shared payload so
    the process backend ships it once per worker.
    """
    cell_values, synth_count, seed = task
    cls, epsilon, k, margin_publisher, method_kwargs, large_schema = shared
    synthesizer = cls(
        epsilon,
        k=k,
        margin_publisher=margin_publisher,
        rng=np.random.default_rng(seed),
        **method_kwargs,
    )
    cell_data = Dataset(cell_values, large_schema)
    return synthesizer.fit_sample(cell_data, n=synth_count).values


class DPCopulaHybrid:
    """Partition-then-synthesize wrapper around a DPCopula method.

    Parameters
    ----------
    epsilon:
        Overall privacy budget.
    partition_fraction:
        Share ``ε₁ᵖ / ε`` spent on the noisy partition counts.
    method:
        ``"kendall"`` or ``"mle"`` — which synthesizer runs per cell.
    small_domain_indices:
        Attributes to partition on; ``None`` auto-detects attributes with
        domain size below the continuity threshold.
    context:
        :class:`~repro.parallel.ExecutionContext` over which the
        per-cell fits fan out (``None``: serial).  Parallelism is
        across cells only — each cell's synthesizer runs serially
        inside its worker with an independent child generator, so
        results are identical for every backend.
    method_kwargs:
        Extra keyword arguments forwarded to the per-cell synthesizer.
    """

    method_name = "dpcopula-hybrid"

    def __init__(
        self,
        epsilon: float,
        k: float = DEFAULT_RATIO_K,
        partition_fraction: float = 0.1,
        method: str = "kendall",
        margin_publisher: Optional[HistogramPublisher] = None,
        small_domain_indices: Optional[Sequence[int]] = None,
        min_fit_records: int = 10,
        rng: RngLike = None,
        context: Optional[ExecutionContext] = None,
        **method_kwargs,
    ):
        check_positive("epsilon", epsilon)
        if not 0.0 < partition_fraction < 1.0:
            raise ValueError(
                f"partition_fraction must lie in (0, 1), got {partition_fraction}"
            )
        if method not in ("kendall", "mle"):
            raise ValueError(f"unknown method {method!r}; expected 'kendall' or 'mle'")
        self.epsilon = float(epsilon)
        self.k = float(k)
        self.partition_fraction = float(partition_fraction)
        self.method = method
        self.margin_publisher = margin_publisher
        self.small_domain_indices = (
            list(small_domain_indices) if small_domain_indices is not None else None
        )
        self.min_fit_records = int(min_fit_records)
        self.method_kwargs = dict(method_kwargs)
        self.context = resolve_context(context)
        self._rng = as_generator(rng)
        self.budget_: Optional[PrivacyBudget] = None
        self._synthetic: Optional[Dataset] = None

    def _synthesizer_class(self) -> Type[DPCopulaSynthesizer]:
        return DPCopulaKendall if self.method == "kendall" else DPCopulaMLE

    def fit_sample(self, dataset: Dataset) -> Dataset:
        """Run Algorithm 6 end-to-end and return the synthetic dataset."""
        with trace.span(
            "hybrid.fit_sample",
            method=self.method,
            n=dataset.n_records,
            m=dataset.dimensions,
            epsilon=self.epsilon,
        ):
            return self._fit_sample(dataset)

    def _fit_sample(self, dataset: Dataset) -> Dataset:
        schema = dataset.schema
        small = (
            self.small_domain_indices
            if self.small_domain_indices is not None
            else schema.small_domain_indices()
        )
        large = [j for j in range(schema.dimensions) if j not in set(small)]
        if not large:
            raise ValueError(
                "hybrid needs at least one large-domain attribute to model"
            )
        if not small:
            # Nothing to partition on: plain DPCopula with the full budget.
            synthesizer = self._synthesizer_class()(
                self.epsilon,
                k=self.k,
                margin_publisher=self.margin_publisher,
                rng=self._rng,
                **self.method_kwargs,
            )
            synthetic = synthesizer.fit_sample(dataset)
            self.budget_ = synthesizer.budget_
            self._synthetic = synthetic
            return synthetic

        budget = PrivacyBudget(self.epsilon)
        epsilon_partition = self.epsilon * self.partition_fraction
        epsilon_copula = self.epsilon - epsilon_partition
        budget.spend_parallel(epsilon_partition, "partition counts")
        budget.spend_parallel(epsilon_copula, "per-partition DPCopula")

        small_sizes = [schema[j].domain_size for j in small]
        total_cells = int(np.prod(small_sizes))
        if total_cells > _MAX_PARTITIONS:
            raise ValueError(
                f"partitioning on {small} yields {total_cells} cells "
                f"(> {_MAX_PARTITIONS}); reduce the small-domain attribute set"
            )

        small_values = dataset.values[:, small]
        large_schema = schema.subset(large)

        with trace.span("census", cells=total_cells):
            # Vectorized partition census: encode each record's small-domain
            # combination as a flat cell id (C-order, matching the cell
            # enumeration below) and count with one bincount pass instead of
            # one boolean mask per cell.
            cell_ids = np.ravel_multi_index(
                tuple(small_values[:, position] for position in range(len(small))),
                tuple(small_sizes),
            )
            true_counts = np.bincount(cell_ids, minlength=total_cells)

            # One vectorized Laplace draw covers *all* cells (occupied or
            # not — the release pattern must not depend on the data), in the
            # same C-order, so the noise stream is independent of how the
            # per-cell work is later scheduled.
            noise = laplace_noise(
                1.0 / epsilon_partition, size=total_cells, rng=self._rng
            )
            synth_counts = np.rint(true_counts + noise).astype(np.int64)

        # Triage every cell *before* dispatching any work: cells with a
        # non-positive noisy count vanish, cells too sparse to support
        # copula estimation take the cheap uniform fallback inline, and
        # only genuinely fittable cells are handed to the executor — no
        # worker slot is ever spent on a degenerate branch.
        keep = np.flatnonzero(synth_counts > 0)
        if keep.size == 0:
            raise RuntimeError(
                "every partition received a non-positive noisy count; "
                "increase epsilon or partition_fraction"
            )
        min_fit = max(2, self.min_fit_records)
        fit_cells = [int(c) for c in keep if true_counts[c] >= min_fit]
        fallback_cells = [int(c) for c in keep if true_counts[c] < min_fit]

        # Independent child seeds, derived up front in deterministic cell
        # order: the randomness each cell sees depends only on the
        # hybrid's own generator state and the cell id, never on the
        # backend or scheduling order.
        seeds = spawn_seed_sequences(self._rng, keep.size)
        seed_by_cell = {int(c): seeds[i] for i, c in enumerate(keep)}

        sort_order = np.argsort(cell_ids, kind="stable")
        sorted_ids = cell_ids[sort_order]
        large_values_all = dataset.values[:, large]

        tasks = []
        for c in fit_cells:
            lo, hi = np.searchsorted(sorted_ids, [c, c + 1])
            members = sort_order[lo:hi]
            tasks.append(
                (
                    np.ascontiguousarray(large_values_all[members]),
                    int(synth_counts[c]),
                    seed_by_cell[c],
                )
            )
        shared = (
            self._synthesizer_class(),
            epsilon_copula,
            self.k,
            self.margin_publisher,
            self.method_kwargs,
            large_schema,
        )
        try:
            with trace.span(
                "cell_fits", cells=len(tasks), fallback=len(fallback_cells)
            ):
                fitted = self.context.map_tasks(_fit_cell_task, tasks, shared=shared)
        except Exception:
            # A worker exception used to surface as a bare traceback from
            # deep inside the executor; record which stage died (and how
            # many cells were in flight) before propagating.
            _FIT_ERRORS.inc(stage="hybrid_cell_fit")
            _logger.exception(
                "hybrid per-cell fit failed",
                extra={
                    "cells": len(tasks),
                    "backend": self.context.backend,
                    "method": self.method,
                },
            )
            raise

        pieces: List[Dataset] = []
        results = dict(zip(fit_cells, fitted))
        for c in fallback_cells:
            # Utility fallback for (near-)empty cells: uniform values,
            # drawn from the cell's own child generator.
            gen = np.random.default_rng(seed_by_cell[c])
            synth_count = int(synth_counts[c])
            results[c] = np.column_stack(
                [
                    gen.integers(0, a.domain_size, size=synth_count)
                    for a in large_schema
                ]
            )
        with trace.span("assemble", cells=len(results)):
            for c in sorted(results):
                cell = np.unravel_index(c, tuple(small_sizes))
                large_values = results[c]
                synth_count = large_values.shape[0]
                full = np.empty((synth_count, schema.dimensions), dtype=np.int64)
                for position, j in enumerate(small):
                    full[:, j] = cell[position]
                for position, j in enumerate(large):
                    full[:, j] = large_values[:, position]
                pieces.append(Dataset(full, schema))

            combined = concatenate(pieces)
            shuffled = combined.values[self._rng.permutation(combined.n_records)]
            synthetic = Dataset(shuffled, schema)
        self.budget_ = budget
        self._synthetic = synthetic
        return synthetic
