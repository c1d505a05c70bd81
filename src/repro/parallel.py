"""Shared parallel-execution layer for the DPCopula hot paths.

Every embarrassingly parallel loop in the library — the ``C(m, 2)``
pairwise Kendall's-tau fan-out, the per-cell hybrid fits, the per-block
MLE estimation, the repeated-run evaluation harness — runs through one
:class:`ExecutionContext` with three interchangeable backends:

``serial``
    A plain in-process loop.  The reference backend: every other backend
    is required to produce bitwise-identical results.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor` fan-out.  Useful
    when the task body releases the GIL (large-array NumPy/SciPy work).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` fan-out for
    CPU-bound task bodies.  Task functions and payloads must be
    picklable (module-level functions, plain-data arguments).

Determinism contract
--------------------
Parallel execution must never change results.  Two rules enforce that:

1. :meth:`ExecutionContext.map_tasks` always returns results in task
   order, regardless of completion order.
2. Randomized task bodies never share a generator.  Callers derive one
   independent child seed per task *up front* with
   :func:`spawn_seed_sequences` (``np.random.SeedSequence.spawn``), in
   task order, from the caller's own generator.  Each task then builds
   its private ``Generator`` from its child seed, so the random stream a
   task sees depends only on (caller seed, task index) — not on which
   worker ran it or when.

Under these rules ``serial``, ``thread`` and ``process`` backends are
bitwise-interchangeable for a fixed seed, which the determinism suite
(`tests/core/test_parallel_determinism.py`) asserts end-to-end.

Contexts are stateless (each :meth:`map_tasks` call builds and tears
down its own executor), so one context can be shared freely across
threads — e.g. by every worker of the service's fit pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.resilience import faults
from repro.resilience.deadlines import Deadline, current_deadline
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.telemetry import bind_context, current_context, get_logger, metrics, trace
from repro.utils import RngLike, as_generator

_logger = get_logger("parallel")

_TASKS_TOTAL = metrics.REGISTRY.counter(
    "dpcopula_parallel_tasks_total",
    "Tasks dispatched through ExecutionContext.map_tasks (label: backend)",
)
_FANOUT_TASKS = metrics.REGISTRY.histogram(
    "dpcopula_parallel_fanout_tasks",
    "Tasks per map_tasks call (label: backend)",
    buckets=metrics.DEFAULT_FANOUT_BUCKETS,
)

__all__ = [
    "BACKENDS",
    "ExecutionContext",
    "resolve_context",
    "spawn_seed_sequences",
]

BACKENDS = ("serial", "thread", "process")

#: Entropy words drawn from the caller's generator to key a spawn root.
_ENTROPY_WORDS = 4

#: Retry policy for pooled dispatch: a SIGKILLed/OOM-killed worker
#: surfaces as ``BrokenExecutor`` in the parent, the broken pool is
#: torn down, and the whole fan-out is re-dispatched on a fresh pool.
#: Safe because tasks are pure functions of (task, shared, per-task
#: seed): a retried fan-out recomputes bitwise-identical results — the
#: DP release is the same release, so retries cost no extra ε (see
#: docs/RELIABILITY.md).  Tests may monkeypatch this module attribute.
MAP_TASKS_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.1, multiplier=4.0, max_delay=2.0, jitter=0.1
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def spawn_seed_sequences(rng: RngLike, n: int) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent child seeds from ``rng``, deterministically.

    Draws a fixed number of entropy words from ``rng`` (advancing it by
    the same amount no matter how many children are requested), keys a
    :class:`numpy.random.SeedSequence` with them and spawns ``n``
    children.  For a given generator state the children are a pure
    function of the task index, which is what makes parallel randomness
    reproducible and backend-independent.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seed sequences")
    gen = as_generator(rng)
    entropy = gen.integers(0, 2**63 - 1, size=_ENTROPY_WORDS).tolist()
    root = np.random.SeedSequence([int(word) for word in entropy])
    return root.spawn(n)


# Worker-process state installed by the pool initializer: the shared
# payload is pickled once per worker instead of once per task/chunk.
_PROCESS_SHARED: Any = None


def _install_shared(shared: Any) -> None:
    global _PROCESS_SHARED
    _PROCESS_SHARED = shared


class _Installed:
    """``shared`` of a process-pool chunk: read the installed payload.

    A class pickles by name, so the worker sees this same object.
    """


def _run_chunk(
    fn: Callable[[Any, Any], Any],
    chunk: Sequence[Any],
    shared: Any,
    deadline: Optional[Deadline],
    context_ids: Optional[dict] = None,
    traced: bool = False,
) -> Any:
    """Run one contiguous chunk of tasks: fault point, deadline checks.

    The ``parallel.chunk`` fault point runs *inside the worker*, which
    is what lets the chaos suite SIGKILL a pool worker mid-fan-out; the
    deadline check between tasks is the cooperative cancellation point
    for hung/slow stages (a :class:`Deadline` pickles as its remaining
    budget, so process workers enforce it against their own clocks).

    ``shared`` is the payload itself, or :class:`_Installed` for the one
    a process worker's initializer installed.  ``context_ids`` re-binds
    the dispatching caller's correlation ids (request/job) inside the
    worker — contextvars don't cross pool boundaries on their own — so
    every log line a pooled task emits still carries the ids of the
    request that caused it.

    With ``traced``, the chunk runs under its own collected root
    (``parallel.chunk``), since pool workers cannot see the caller's
    trace, and returns ``(results, exported subtree)`` for the caller to
    attach.  Timing is the only difference: the task bodies, their order
    and their RNG streams are untouched, so traced runs stay
    bitwise-identical to untraced ones.
    """
    if shared is _Installed:
        shared = _PROCESS_SHARED
    if traced:
        return trace.call_collected(
            "parallel.chunk",
            lambda: _run_chunk(fn, chunk, shared, deadline, context_ids),
            tasks=len(chunk),
        )
    if context_ids:
        with bind_context(**context_ids):
            return _run_chunk(fn, chunk, shared, deadline)
    faults.inject("parallel.chunk")
    results = []
    for task in chunk:
        if deadline is not None:
            deadline.check("parallel.map_tasks task")
        results.append(fn(task, shared))
    return results


class ExecutionContext:
    """A named backend plus a worker budget for :meth:`map_tasks`.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``.
    max_workers:
        Worker count for the pooled backends; ``None`` uses the number
        of CPUs available to this process.  Ignored by ``serial``.
    chunk_size:
        Default tasks-per-dispatch for :meth:`map_tasks`; ``None`` picks
        ``ceil(len(tasks) / (4 * workers))`` so each worker sees a few
        chunks (amortizing dispatch overhead while keeping the pool
        load-balanced).
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.backend = backend
        self.max_workers = (
            int(max_workers) if max_workers is not None else _available_cpus()
        )
        self.chunk_size = int(chunk_size) if chunk_size is not None else None

    @property
    def is_serial(self) -> bool:
        return self.backend == "serial" or self.max_workers == 1

    def _chunk(self, tasks: Sequence[Any], chunk_size: Optional[int]) -> List[Sequence[Any]]:
        size = chunk_size or self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(tasks) / (4 * self.max_workers)))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def map_tasks(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        shared: Any = None,
        chunk_size: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[Any]:
        """Apply ``fn(task, shared)`` to every task; results in task order.

        ``shared`` is a read-only payload broadcast to every task: the
        ``process`` backend ships it to each worker exactly once (via the
        pool initializer) instead of per task, so large arrays — rank
        codings, data blocks — cost one pickle per worker.

        For the ``process`` backend ``fn`` must be a module-level
        function and tasks/shared/results must be picklable.

        Resilience: an explicit ``deadline`` (or the ambient one from
        :func:`repro.resilience.deadlines.deadline_scope`) is checked
        cooperatively between tasks on every backend, raising
        :class:`~repro.resilience.deadlines.DeadlineExceeded`; a fan-out
        whose pool breaks (worker crash) is re-dispatched on a fresh
        pool under :data:`MAP_TASKS_RETRY_POLICY`, bitwise identically.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if deadline is None:
            deadline = current_deadline()
        _TASKS_TOTAL.inc(len(tasks), backend=self.backend)
        _FANOUT_TASKS.observe(len(tasks), backend=self.backend)
        traced = trace.is_active()
        with trace.span(
            "parallel.map_tasks",
            backend=self.backend,
            tasks=len(tasks),
            workers=1 if self.is_serial else self.max_workers,
        ):
            if self.is_serial:
                if deadline is None:
                    return [fn(task, shared) for task in tasks]
                return _run_chunk(fn, tasks, shared, deadline)
            chunks = self._chunk(tasks, chunk_size)
            workers = min(self.max_workers, len(chunks))
            _logger.debug(
                "map_tasks fan-out",
                extra={
                    "backend": self.backend,
                    "tasks": len(tasks),
                    "chunks": len(chunks),
                    "workers": workers,
                },
            )

            # Correlation ids captured at dispatch travel with every
            # chunk: pool workers (threads *and* processes) re-bind
            # them, so a pooled fan-out logs under its request/job ids.
            context_ids = current_context() or None

            def dispatch() -> List[Any]:
                n = len(chunks)
                if self.backend == "thread":
                    pool = ThreadPoolExecutor(max_workers=workers)
                    payload = shared
                else:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_install_shared,
                        initargs=(shared,),
                    )
                    payload = _Installed
                with pool:
                    return list(
                        pool.map(
                            _run_chunk,
                            [fn] * n,
                            chunks,
                            [payload] * n,
                            [deadline] * n,
                            [context_ids] * n,
                            [traced] * n,
                        )
                    )

            chunked = call_with_retry(
                dispatch,
                MAP_TASKS_RETRY_POLICY,
                operation=f"parallel.map_tasks[{self.backend}]",
            )
            if traced:
                results = []
                for chunk_results, exported in chunked:
                    trace.attach(exported)
                    results.extend(chunk_results)
                return results
            return [result for chunk in chunked for result in chunk]

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(backend={self.backend!r}, "
            f"max_workers={self.max_workers})"
        )


def resolve_context(context: Optional[ExecutionContext] = None) -> ExecutionContext:
    """``context`` itself, or a serial context for ``None``."""
    return context if context is not None else ExecutionContext()
