"""The sampling engine: compiled plans and request coalescing.

The serve hot path (``POST /models/<id>/sample``) used to repeat
per-model work on every request: re-factorize the correlation matrix,
rebuild the inverse-margin lookup tables, revalidate the schema.  This
package compiles that work into a :class:`~repro.engine.plan.SamplerPlan`
once per model and serves every subsequent request from the plan:

* :mod:`repro.engine.plan` — the compiled plan itself (cached Cholesky
  factor, a :class:`~repro.core.sampling.BatchedMarginInverter` with its
  banded CDF vector and guide table, domain metadata) plus the batched
  multi-request draw;
* :mod:`repro.engine.coalesce` — micro-batching of concurrent requests
  against the same plan into one vectorized draw, bitwise identical per
  request to an uncoalesced serial draw;
* :mod:`repro.engine.engine` — the facade the service talks to.

Plans are process-local: every serving process samples from the plan
its own :class:`~repro.service.registry.ModelRegistry` compiled (one
m×m factor, one CDF entry per domain value and four to eight guide
entries per domain value).  A registered model never changes, so every
pre-fork worker compiles the same plan for an id.

Everything here is pure post-processing of already-released DP state:
no code path in this package ever touches original data or spends ε.
"""

from repro.engine.coalesce import EngineOverloadedError, RequestCoalescer
from repro.engine.engine import SamplingEngine
from repro.engine.plan import SamplerPlan, compile_plan

__all__ = [
    "EngineOverloadedError",
    "RequestCoalescer",
    "SamplerPlan",
    "SamplingEngine",
    "compile_plan",
]
