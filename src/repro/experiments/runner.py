"""Method wrappers and the evaluation loop shared by all figures.

A :class:`Method` turns (dataset, ε, rng) into something that answers
range queries — a synthetic dataset for the DPCopula variants, a noisy
structure for the histogram baselines.  :func:`average_evaluation`
repeats fit + evaluate over independent runs and averages the error
metrics, matching the paper's "1000 random queries, averaged over 5
runs" protocol at configurable scale.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.dpcopula import DPCopulaKendall, DPCopulaMLE
from repro.core.hybrid import DPCopulaHybrid
from repro.data.dataset import Dataset
from repro.histograms.base import HistogramPublisher, RangeQueryAnswerer
from repro.histograms.dpcube import DPCubePublisher
from repro.histograms.efpa import EFPAPublisher
from repro.histograms.fp import FilterPriorityPublisher
from repro.histograms.grid import AdaptiveGridPublisher, UniformGridPublisher
from repro.histograms.hierarchical import HierarchicalPublisher
from repro.histograms.identity import IdentityPublisher
from repro.histograms.php import PHPPublisher
from repro.histograms.privelet import PriveletPublisher
from repro.histograms.psd import PSDPublisher
from repro.histograms.structurefirst import NoiseFirstPublisher, StructureFirstPublisher
from repro.parallel import ExecutionContext, resolve_context, spawn_seed_sequences
from repro.queries.evaluation import QueryEvaluation, evaluate_workload, true_answers
from repro.queries.ml_utility import MLUtilityReport, ml_utility
from repro.queries.range_query import RangeQuery
from repro.queries.workloads import (
    KWayMarginal,
    MarginalEvaluation,
    evaluate_marginals,
)
from repro.utils import RngLike, as_generator

# Dense-grid methods refuse domains beyond this many cells — the same
# constraint that forces the paper to drop histogram-input baselines on
# high-dimensional domains.
MAX_DENSE_CELLS = 2**24


def dense_counts(dataset: Dataset, max_cells: int = MAX_DENSE_CELLS) -> np.ndarray:
    """Materialize the full m-dimensional count grid of a dataset."""
    shape = tuple(dataset.schema.domain_sizes)
    cells = float(np.prod([float(s) for s in shape]))
    if cells > max_cells:
        raise MemoryError(
            f"domain space of {cells:.3g} cells exceeds the dense limit "
            f"({max_cells}); use a point-input method (PSD, FP, DPCopula)"
        )
    counts = np.zeros(shape)
    np.add.at(counts, tuple(dataset.values[:, j] for j in range(dataset.dimensions)), 1.0)
    return counts


class Method(abc.ABC):
    """A named competitor: fits private state, answers range queries."""

    name: str = "method"

    @abc.abstractmethod
    def fit(self, dataset: Dataset, epsilon: float, rng: RngLike = None):
        """Return an answer source (Dataset or RangeQueryAnswerer)."""

    def supports(self, dataset: Dataset) -> bool:
        """Whether the method can run on this dataset's domain."""
        return True


_MARGIN_PUBLISHERS = {
    "efpa": EFPAPublisher,
    "identity": IdentityPublisher,
    "noisefirst": NoiseFirstPublisher,
    "structurefirst": StructureFirstPublisher,
    "privelet": PriveletPublisher,
    "hierarchical": HierarchicalPublisher,
}


def margin_publisher_by_name(name: str) -> HistogramPublisher:
    """Instantiate a 1-D margin publisher from its registry name."""
    try:
        return _MARGIN_PUBLISHERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown margin publisher {name!r}; available: "
            f"{sorted(_MARGIN_PUBLISHERS)}"
        ) from None


class DPCopulaMethod(Method):
    """DPCopula in any of its three variants.

    The experiment harness defaults DPCopula's margins to NoiseFirst
    rather than the library's EFPA default: the paper's protocol sets
    "all parameters in the algorithms ... to the optimal values in each
    experiment" (Section 5.1), and across our workloads the merging-based
    publisher is uniformly at least as accurate as our DCT-based EFPA
    variant (which smears spiky margins; see the margin ablation bench).
    """

    def __init__(
        self,
        variant: str = "kendall",
        k: float = 8.0,
        margin_publisher: Union[str, HistogramPublisher, None] = "noisefirst",
        **kwargs,
    ):
        if variant not in ("kendall", "mle", "hybrid"):
            raise ValueError(f"unknown DPCopula variant {variant!r}")
        self.variant = variant
        self.k = k
        if isinstance(margin_publisher, str):
            margin_publisher = margin_publisher_by_name(margin_publisher)
        self.margin_publisher = margin_publisher
        self.kwargs = kwargs
        self.name = f"dpcopula-{variant}"

    def fit(self, dataset: Dataset, epsilon: float, rng: RngLike = None) -> Dataset:
        if self.variant == "hybrid":
            synthesizer = DPCopulaHybrid(
                epsilon,
                k=self.k,
                margin_publisher=self.margin_publisher,
                rng=rng,
                **self.kwargs,
            )
            return synthesizer.fit_sample(dataset)
        cls = DPCopulaKendall if self.variant == "kendall" else DPCopulaMLE
        synthesizer = cls(
            epsilon,
            k=self.k,
            margin_publisher=self.margin_publisher,
            rng=rng,
            **self.kwargs,
        )
        return synthesizer.fit_sample(dataset)


class PSDMethod(Method):
    """Private spatial decomposition (point input: any domain size)."""

    name = "psd"

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def fit(
        self, dataset: Dataset, epsilon: float, rng: RngLike = None
    ) -> RangeQueryAnswerer:
        return PSDPublisher(**self.kwargs).publish(dataset, epsilon, rng)


class FPMethod(Method):
    """Filter Priority sparse summaries (point input)."""

    name = "fp"

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def fit(
        self, dataset: Dataset, epsilon: float, rng: RngLike = None
    ) -> RangeQueryAnswerer:
        return FilterPriorityPublisher(**self.kwargs).publish(dataset, epsilon, rng)


class _DenseMethod(Method):
    """Base for methods consuming the materialized count grid."""

    publisher_class = None
    # Non-negativity clipping is standard (privacy-free) post-processing
    # for cell-wise estimates, but methods whose range-query accuracy
    # relies on *signed noise cancellation* (the wavelet transform) are
    # biased catastrophically by it, so they opt out.
    clip_negative = True

    def __init__(self, max_cells: int = MAX_DENSE_CELLS, **kwargs):
        self.max_cells = max_cells
        self.kwargs = kwargs

    def supports(self, dataset: Dataset) -> bool:
        return dataset.schema.domain_space() <= self.max_cells

    def fit(
        self, dataset: Dataset, epsilon: float, rng: RngLike = None
    ) -> RangeQueryAnswerer:
        counts = dense_counts(dataset, self.max_cells)
        publisher = self.publisher_class(**self.kwargs)
        return publisher.publish_dense(
            counts, epsilon, rng, clip_negative=self.clip_negative
        )


class PriveletMethod(_DenseMethod):
    """Privelet+ (wavelet noise on the dense grid).

    Unclipped: range sums over the wavelet reconstruction are unbiased
    with polylogarithmic variance precisely because positive and
    negative per-cell noise cancels; clipping would turn that into a
    volume-proportional positive bias.
    """

    name = "privelet"
    publisher_class = PriveletPublisher
    clip_negative = False


class PHPMethod(_DenseMethod):
    """P-HP hierarchical partitioning on the (flattened) dense grid."""

    name = "php"
    publisher_class = PHPPublisher


class IdentityMethod(_DenseMethod):
    """Dwork's Laplace-per-bin mechanism on the dense grid."""

    name = "identity"
    publisher_class = IdentityPublisher


class DPCubeMethod(_DenseMethod):
    """DPCube two-phase kd-partitioning on the dense grid."""

    name = "dpcube"
    publisher_class = DPCubePublisher


class UGMethod(Method):
    """Uniform grid (Qardaji et al.) — 2-D point input."""

    name = "ug"

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def supports(self, dataset: Dataset) -> bool:
        return dataset.dimensions == 2

    def fit(
        self, dataset: Dataset, epsilon: float, rng: RngLike = None
    ) -> RangeQueryAnswerer:
        return UniformGridPublisher(**self.kwargs).publish(dataset, epsilon, rng)


class AGMethod(Method):
    """Adaptive grid (Qardaji et al.) — 2-D point input."""

    name = "ag"

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def supports(self, dataset: Dataset) -> bool:
        return dataset.dimensions == 2

    def fit(
        self, dataset: Dataset, epsilon: float, rng: RngLike = None
    ) -> RangeQueryAnswerer:
        return AdaptiveGridPublisher(**self.kwargs).publish(dataset, epsilon, rng)


_METHODS = {
    "dpcopula-kendall": lambda **kw: DPCopulaMethod("kendall", **kw),
    "dpcopula-mle": lambda **kw: DPCopulaMethod("mle", **kw),
    "dpcopula-hybrid": lambda **kw: DPCopulaMethod("hybrid", **kw),
    "psd": PSDMethod,
    "fp": FPMethod,
    "privelet": PriveletMethod,
    "php": PHPMethod,
    "identity": IdentityMethod,
    "dpcube": DPCubeMethod,
    "ug": UGMethod,
    "ag": AGMethod,
}


def make_method(name: str, **kwargs) -> Method:
    """Instantiate a method by its registry name."""
    try:
        factory = _METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {sorted(_METHODS)}"
        ) from None
    return factory(**kwargs)


def _sample_dense_histogram(
    histogram, schema, n_records: int, rng: np.random.Generator
) -> Dataset:
    """Draw records from a dense noisy grid's clipped, normalized cells."""
    counts = np.clip(np.asarray(histogram.counts, dtype=float), 0.0, None).ravel()
    total = counts.sum()
    if total <= 0:
        probabilities = np.full(counts.size, 1.0 / counts.size)
    else:
        probabilities = counts / total
    flat = rng.choice(counts.size, size=n_records, p=probabilities)
    values = np.column_stack(np.unravel_index(flat, histogram.shape))
    return Dataset(values, schema)


def _sample_from_answerer(
    answerer: RangeQueryAnswerer,
    schema,
    n_records: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw records from any range-query answerer by recursive bisection.

    Starting from the full domain, the widest axis is split at its
    midpoint, the two halves are queried, and the records are allocated
    binomially in proportion to the (clipped) noisy counts — the same
    multinomial-by-splitting trick hierarchical samplers use.  When both
    halves answer ≤ 0 the split falls back to cell volume, so the
    sampler degrades toward uniform rather than failing on regions the
    structure zeroed out.
    """
    m = schema.dimensions
    values = np.empty((n_records, m), dtype=np.int64)

    def recurse(ranges, n, offset):
        if n == 0:
            return
        widths = [hi - lo + 1 for lo, hi in ranges]
        axis = int(np.argmax(widths))
        if widths[axis] == 1:
            values[offset : offset + n] = [lo for lo, _ in ranges]
            return
        lo, hi = ranges[axis]
        mid = lo + widths[axis] // 2
        left = list(ranges)
        left[axis] = (lo, mid - 1)
        right = list(ranges)
        right[axis] = (mid, hi)
        count_left = max(float(answerer.range_count(left)), 0.0)
        count_right = max(float(answerer.range_count(right)), 0.0)
        if count_left + count_right <= 0.0:
            # Volume fallback: the structure thinks this region is empty.
            count_left = float(mid - lo)
            count_right = float(hi - mid + 1)
        n_left = int(rng.binomial(n, count_left / (count_left + count_right)))
        recurse(left, n_left, offset)
        recurse(right, n - n_left, offset + n_left)

    full = [(0, attribute.domain_size - 1) for attribute in schema]
    recurse(full, n_records, 0)
    return Dataset(values, schema)


def source_as_dataset(
    source,
    schema,
    n_records: int,
    rng: RngLike = None,
) -> Dataset:
    """Materialize any answer source as synthetic records.

    DPCopula variants already release records, so a ``Dataset`` passes
    through untouched.  Histogram baselines release structures; to put
    them on the ML train-on-synthetic workload, a dense grid is sampled
    cell-wise and a generic answerer is sampled by recursive bisection
    (:func:`_sample_from_answerer`).  Sampling is privacy-free
    post-processing of the released structure.
    """
    if isinstance(source, Dataset):
        return source
    gen = as_generator(rng)
    if hasattr(source, "counts") and hasattr(source, "shape"):
        return _sample_dense_histogram(source, schema, n_records, gen)
    if isinstance(source, RangeQueryAnswerer):
        return _sample_from_answerer(source, schema, n_records, gen)
    raise TypeError(
        f"cannot materialize {type(source).__name__} as a dataset; expected "
        "a Dataset, a dense histogram, or a RangeQueryAnswerer"
    )


@dataclass(frozen=True)
class UtilityEvaluation:
    """One method's scores on all three workload families.

    ``ml`` is ``None`` when the schema designates no target (the ML
    workload needs a label to predict).
    """

    method: str
    range_queries: QueryEvaluation
    marginals: MarginalEvaluation
    ml: Optional[MLUtilityReport]
    fit_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "fit_seconds": self.fit_seconds,
            "range_queries": {
                "mean_relative_error": self.range_queries.mean_relative_error,
                "median_relative_error": self.range_queries.median_relative_error,
                "mean_absolute_error": self.range_queries.mean_absolute_error,
                "max_relative_error": self.range_queries.max_relative_error,
                "n_queries": self.range_queries.n_queries,
            },
            "marginals": self.marginals.to_dict(),
            "ml": self.ml.to_dict() if self.ml is not None else None,
        }


def utility_evaluation(
    method: Method,
    train: Dataset,
    test: Dataset,
    range_workload: Sequence[RangeQuery],
    marginals: Sequence[KWayMarginal],
    epsilon: float,
    rng: RngLike = None,
    sanity_bound: float = 1.0,
    synthetic_records: Optional[int] = None,
) -> UtilityEvaluation:
    """Fit once, score on range queries, k-way marginals and ML utility.

    The method fits on ``train`` only; ``test`` is the held-out real
    data the ML workload tests on (range and marginal workloads compare
    against ``train``, the data the method actually saw).  The ML leg
    materializes the fitted source as ``synthetic_records`` records
    (default: ``train.n_records``) via :func:`source_as_dataset`.
    """
    gen = as_generator(rng)
    start = time.perf_counter()
    source = method.fit(train, epsilon, rng=gen)
    fit_seconds = time.perf_counter() - start
    range_scores = evaluate_workload(source, range_workload, train, sanity_bound)
    marginal_scores = evaluate_marginals(source, marginals, train)
    ml_report = None
    if train.schema.target is not None:
        synthetic = source_as_dataset(
            source,
            train.schema,
            synthetic_records or train.n_records,
            rng=gen,
        )
        # The materialized schema may lack the target annotation
        # (synthesizers rebuild schemas); re-attach the convention.
        if synthetic.schema.target is None:
            synthetic = Dataset(
                synthetic.values, synthetic.schema.with_target(train.schema.target)
            )
        ml_report = ml_utility(train, test, synthetic, target=train.schema.target)
    return UtilityEvaluation(
        method=method.name,
        range_queries=range_scores,
        marginals=marginal_scores,
        ml=ml_report,
        fit_seconds=fit_seconds,
    )


@dataclass(frozen=True)
class TimedEvaluation:
    """Averaged error metrics plus mean fit wall-clock seconds."""

    evaluation: QueryEvaluation
    fit_seconds: float


def _evaluation_run_task(seed, shared):
    """Worker body: one independent fit + evaluation of the method.

    Returns plain floats only, so the process backend ships results
    cheaply; the fitted model itself never leaves the worker.
    """
    method, dataset, workload, epsilon, actual, sanity_bound = shared
    start = time.perf_counter()
    source = method.fit(dataset, epsilon, rng=np.random.default_rng(seed))
    elapsed = time.perf_counter() - start
    evaluation = evaluate_workload(source, workload, actual, sanity_bound)
    return (
        evaluation.mean_relative_error,
        evaluation.median_relative_error,
        evaluation.mean_absolute_error,
        evaluation.max_relative_error,
        elapsed,
    )


def average_evaluation(
    method: Method,
    dataset: Dataset,
    workload: Sequence[RangeQuery],
    epsilon: float,
    n_runs: int = 2,
    sanity_bound: float = 1.0,
    rng: RngLike = None,
    context: Optional[ExecutionContext] = None,
) -> TimedEvaluation:
    """Fit ``method`` ``n_runs`` times, evaluate, average the metrics.

    The runs are statistically independent by construction — each gets
    its own child generator spawned up front from ``rng`` — so they fan
    out over ``context`` (default serial) with identical results on
    every backend.  Note ``fit_seconds`` stays the mean *per-fit*
    wall-clock, which under a pooled backend exceeds elapsed time.
    """
    gen = as_generator(rng)
    actual = true_answers(dataset, workload)
    seeds = spawn_seed_sequences(gen, n_runs)
    shared = (method, dataset, list(workload), epsilon, actual, sanity_bound)
    runs = resolve_context(context).map_tasks(
        _evaluation_run_task, seeds, shared=shared
    )
    relative, medians, absolute, maxima, seconds = map(list, zip(*runs))
    averaged = QueryEvaluation(
        mean_relative_error=float(np.mean(relative)),
        median_relative_error=float(np.mean(medians)),
        mean_absolute_error=float(np.mean(absolute)),
        max_relative_error=float(np.mean(maxima)),
        n_queries=len(workload),
    )
    return TimedEvaluation(evaluation=averaged, fit_seconds=float(np.mean(seconds)))
