"""Resilience: deadlines, retries, durable job journals, fault injection.

The fault-tolerance layer for the fit/serve paths, in four stdlib-only
pieces (see docs/RELIABILITY.md for the operator-facing story):

* :mod:`repro.resilience.deadlines` — wall-clock deadlines with
  *cooperative* cancellation.  A deadline is installed for a scope
  (a whole fit job, one ``map_tasks`` fan-out) and checked between
  units of work on every execution backend, including inside process
  pool workers.
* :mod:`repro.resilience.retry` — exponential-backoff-with-jitter
  retry policies for transient failures (crashed pool workers,
  registry/ledger I/O), with a hard no-retry wall: exceptions that
  represent privacy decisions (:class:`BudgetExhaustedError`) or
  expired deadlines are never retried, and any exception can be
  marked non-retryable at the raise site.
* :mod:`repro.resilience.journal` — the durable fit-job journal.
  One lifecycle record per job, carrying the noise mark and the
  refund-due flag, is persisted under the service data directory so a
  restarted ``dpcopula serve`` reruns in-flight jobs — or cleanly
  voids them — instead of losing them (and the ε they charged).
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (``DPCOPULA_FAULTS`` environment variable) used by the
  chaos suite (``tests/resilience/``) to kill workers, delay stages
  and fail I/O on demand.

Layering: this package sits *below* :mod:`repro.parallel` and
:mod:`repro.service` (both import it) and depends only on the
telemetry layer, :mod:`repro.utils`, :mod:`repro.dp.budget` (for
its exhaustion error) and the standard library.
"""

from repro.resilience.deadlines import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import FaultInjected, FaultPlan, inject
from repro.resilience.journal import JobJournal, JobRecord
from repro.resilience.retry import (
    RetryPolicy,
    call_with_retry,
    is_retryable,
    mark_no_retry,
)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "JobJournal",
    "JobRecord",
    "RetryPolicy",
    "call_with_retry",
    "current_deadline",
    "deadline_scope",
    "inject",
    "is_retryable",
    "mark_no_retry",
]
