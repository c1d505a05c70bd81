"""The sampling-engine facade the synthesis service talks to.

:class:`SamplingEngine` composes the engine layers behind one call:
resolve the model's compiled plan (from a provider such as
:meth:`~repro.service.registry.ModelRegistry.get_plan`), mint the
request's generator, and execute — coalesced with concurrent peers when
a :class:`~repro.engine.coalesce.RequestCoalescer` is configured, or as
a direct plan draw otherwise.

Seeding contract: a request with an explicit ``seed`` gets exactly
``np.random.default_rng(seed)`` — bitwise the generator the pre-engine
serve path used — so seeded requests reproduce historical responses.
Unseeded requests draw from per-request children of one root
``SeedSequence``: statistically independent substreams with no shared
mutable generator state between concurrent requests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.coalesce import RequestCoalescer
from repro.engine.plan import SamplerPlan
from repro.telemetry import current_context, get_logger, metrics

__all__ = ["SamplingEngine"]

_logger = get_logger("engine.engine")

_ENGINE_SECONDS = metrics.REGISTRY.histogram(
    "dpcopula_engine_sample_seconds",
    "Engine sample-request wall-clock seconds (plan resolve + draw)",
)


class SamplingEngine:
    """Serve-side sampling: compiled plans, coalesced draws.

    Parameters
    ----------
    plan_provider:
        ``model_id -> SamplerPlan``; raises ``KeyError`` for unknown
        models.  The provider owns plan caching (the registry's
        ``get_plan``).
    coalescer:
        Optional :class:`~repro.engine.coalesce.RequestCoalescer`;
        ``None`` executes every request as its own draw.
    seed_root:
        Entropy for the unseeded-request ``SeedSequence``; ``None``
        pulls OS entropy.
    """

    def __init__(
        self,
        plan_provider: Callable[[str], SamplerPlan],
        coalescer: Optional[RequestCoalescer] = None,
        seed_root: Optional[int] = None,
    ):
        self._provider = plan_provider
        self._coalescer = coalescer
        self._seed_lock = threading.Lock()
        self._seed_sequence = np.random.SeedSequence(seed_root)

    def request_generator(self, seed: Optional[int]) -> np.random.Generator:
        """The request's private generator (see the seeding contract)."""
        if seed is not None:
            return np.random.default_rng(seed)
        with self._seed_lock:
            child = self._seed_sequence.spawn(1)[0]
        return np.random.default_rng(child)

    def sample(
        self,
        model_id: str,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> Dataset:
        """Draw ``n`` synthetic records (``None``: the model's own size).

        Raises ``KeyError`` for unknown models and
        :class:`~repro.engine.coalesce.EngineOverloadedError` when the
        coalescer queue is full.  Pure post-processing: no privacy
        budget is spent here.
        """
        started = time.perf_counter()
        plan = self._provider(model_id)
        if n is None:
            n = plan.n_records
        rng = self.request_generator(seed)
        if self._coalescer is not None:
            synthetic = self._coalescer.sample(plan, n, rng)
        else:
            synthetic = plan.sample(n, rng)
        # Exemplar: the request id joins this latency bucket to the
        # request's exported trace (JSON snapshot only, never the text
        # exposition).
        context = current_context()
        _ENGINE_SECONDS.observe(
            time.perf_counter() - started,
            exemplar=context.get("request_id") or context.get("job_id"),
        )
        return synthetic

    def pending(self) -> int:
        """Requests parked in the coalescer (scrape-time gauge source)."""
        return self._coalescer.pending() if self._coalescer is not None else 0
