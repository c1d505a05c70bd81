"""Request coalescing: many concurrent sample requests, one vectorized draw.

Under concurrent load the serve hot path spends more time in per-call
overhead (Python dispatch, small-array BLAS, CDF setup) than in useful
arithmetic.  The :class:`RequestCoalescer` merges concurrent requests
against the same plan into one
:meth:`~repro.engine.plan.SamplerPlan.sample_batch` call using a
*leader/follower* scheme with leadership hand-off:

* the first request to arrive for a model id becomes the **leader**:
  it drains the queue into a batch (which always contains its own
  request) and executes it at once;
* requests arriving while a batch executes park as **followers**; when
  the leader finishes it promotes the oldest parked follower to lead
  the next batch, so a busy key forms back-to-back batches with zero
  idle time — and no single request is ever pinned serving other
  people's batches after its own is done.

Determinism: each request carries its *own* ``np.random.Generator``,
and ``sample_batch`` draws and matmuls per request — so a request's
records are bitwise identical whether it was coalesced or served alone.
The batch only fuses the slice-stable elementwise stages.

Resilience: the queue is bounded (:class:`EngineOverloadedError`,
mapped to HTTP 429 upstream), one batch holds at most
:data:`MAX_BATCH_RECORDS` records, and a failed batch poisons only the
requests in it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.plan import SamplerPlan
from repro.telemetry import get_logger, metrics

__all__ = ["EngineOverloadedError", "MAX_BATCH_RECORDS", "RequestCoalescer"]

_logger = get_logger("engine.coalesce")

#: Record budget of one executed batch: a drain stops adding requests
#: once the batch would exceed it (the first request is always taken,
#: whatever its size), which bounds the work arrays one draw holds.
MAX_BATCH_RECORDS = 262_144

_BATCH_SIZE = metrics.REGISTRY.histogram(
    "dpcopula_coalesced_batch_size",
    "Requests merged into one vectorized sampling batch",
    buckets=metrics.DEFAULT_FANOUT_BUCKETS,
)
_REJECTED = metrics.REGISTRY.counter(
    "dpcopula_engine_rejected_total",
    "Sample requests refused because the coalescer queue was full",
)


class EngineOverloadedError(RuntimeError):
    """The coalescer's pending-request queue is at capacity.

    ``retry_after`` is a backoff hint the service layer surfaces as a
    ``Retry-After`` header on the 429 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class _PendingRequest:
    """One parked request: inputs in, result (or error or the baton) out."""

    __slots__ = ("n", "rng", "event", "result", "error", "lead")

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = int(n)
        self.rng = rng
        self.event = threading.Event()
        self.result: Optional[Dataset] = None
        self.error: Optional[BaseException] = None
        #: Set (under the coalescer lock) to wake this follower as the
        #: next leader instead of with a result.
        self.lead = False


class _KeyState:
    """Queue + leadership flag for one model id."""

    __slots__ = ("queue", "leader_active")

    def __init__(self):
        self.queue: Deque[_PendingRequest] = deque()
        self.leader_active = False


class RequestCoalescer:
    """Micro-batches concurrent sample requests per model id.

    Parameters
    ----------
    max_pending_requests:
        Bound on requests parked across all keys.  Arrivals beyond it
        are refused with :class:`EngineOverloadedError`.  ``None``
        disables the bound.
    """

    def __init__(self, max_pending_requests: Optional[int] = 256):
        if max_pending_requests is not None and max_pending_requests < 1:
            raise ValueError(
                f"max_pending_requests must be >= 1 or None, "
                f"got {max_pending_requests}"
            )
        self.max_pending_requests = (
            None if max_pending_requests is None else int(max_pending_requests)
        )
        self._lock = threading.Lock()
        self._states: Dict[str, _KeyState] = {}
        self._total_pending = 0

    def pending(self) -> int:
        """Requests currently parked or queued (scrape-time gauge source)."""
        with self._lock:
            return self._total_pending

    # -- request path -----------------------------------------------------

    def sample(self, plan: SamplerPlan, n: int, rng: np.random.Generator) -> Dataset:
        """Draw ``n`` records from ``plan``, coalescing with concurrent peers.

        Bitwise identical to ``plan.sample(n, rng)`` for the same
        generator state, whatever batching happens around it.
        """
        key = plan.model_id
        pending = _PendingRequest(n, rng)
        with self._lock:
            if (
                self.max_pending_requests is not None
                and self._total_pending >= self.max_pending_requests
            ):
                _REJECTED.inc()
                raise EngineOverloadedError(
                    f"sampling engine overloaded: {self._total_pending} "
                    f"requests already pending (limit "
                    f"{self.max_pending_requests})"
                )
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _KeyState()
            state.queue.append(pending)
            self._total_pending += 1
            is_leader = not state.leader_active
            if is_leader:
                state.leader_active = True
        if is_leader:
            self._lead(key, state, plan)
        else:
            self._follow(key, state, plan, pending)
        if pending.error is not None:
            raise pending.error
        if pending.result is None:  # pragma: no cover - defensive
            raise RuntimeError("coalesced request finished without a result")
        return pending.result

    # -- leader side ------------------------------------------------------

    def _lead(self, key: str, state: _KeyState, plan: SamplerPlan) -> None:
        """Execute one batch (containing our own request), then hand off.

        Leadership transfers under the lock, so a racing arrival either
        sees the flag still set (and parks) or becomes the new leader
        itself — never neither.
        """
        try:
            with self._lock:
                batch = self._drain_locked(state)
            if batch:
                self._execute(plan, batch)
        except BaseException as exc:  # pragma: no cover - defensive
            self._strand(key, state, exc)
            raise
        with self._lock:
            self._pass_leadership_locked(key, state)

    def _drain_locked(self, state: _KeyState) -> List[_PendingRequest]:
        """Pop the next batch (caller holds the lock)."""
        batch: List[_PendingRequest] = []
        records = 0
        while state.queue:
            request = state.queue[0]
            if batch and records + request.n > MAX_BATCH_RECORDS:
                break
            batch.append(state.queue.popleft())
            records += request.n
        self._total_pending -= len(batch)
        return batch

    def _pass_leadership_locked(self, key: str, state: _KeyState) -> None:
        """Promote the oldest parked follower, or retire the key."""
        if state.queue:
            successor = state.queue[0]
            successor.lead = True
            successor.event.set()
        else:
            state.leader_active = False
            self._states.pop(key, None)

    def _strand(
        self, key: str, state: _KeyState, exc: BaseException
    ) -> None:
        """Fail every queued request and retire the key (leader died)."""
        with self._lock:
            stranded = list(state.queue)
            state.queue.clear()
            self._total_pending -= len(stranded)
            state.leader_active = False
            self._states.pop(key, None)
        for request in stranded:
            request.error = exc
            request.event.set()

    def _execute(self, plan: SamplerPlan, batch: List[_PendingRequest]) -> None:
        """Run one coalesced draw and publish per-request results."""
        _BATCH_SIZE.observe(len(batch))
        try:
            results = plan.sample_batch([(r.n, r.rng) for r in batch])
        except BaseException as exc:
            for request in batch:
                request.error = exc
                request.event.set()
            _logger.warning(
                "coalesced batch failed",
                extra={
                    "model_id": plan.model_id,
                    "batch_requests": len(batch),
                    "cause": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        for request, result in zip(batch, results):
            request.result = result
            request.event.set()

    # -- follower side ----------------------------------------------------

    def _follow(
        self,
        key: str,
        state: _KeyState,
        plan: SamplerPlan,
        pending: _PendingRequest,
    ) -> None:
        """Park until a result arrives or the leadership baton does."""
        pending.event.wait()
        if pending.lead:
            # Promoted: our request is still at the head of the queue,
            # so leading drains it into our own batch.
            pending.lead = False
            pending.event.clear()
            self._lead(key, state, plan)
