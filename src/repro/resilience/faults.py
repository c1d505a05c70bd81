"""Deterministic fault injection (the ``DPCOPULA_FAULTS`` harness).

The chaos suite (``tests/resilience/``) needs to make precisely-placed
bad things happen: kill a pool worker, stall a fit stage, fail a ledger
append.  Production code is sprinkled with cheap named *fault points* —
``faults.inject("parallel.chunk")`` — that are inert unless the
``DPCOPULA_FAULTS`` environment variable (or an explicit
:func:`configure` call) arms a plan.

Spec grammar (semicolon-separated clauses)::

    DPCOPULA_FAULTS="<site>:<action>[:<value>][:<count>];..."

======== ======================= =====================================
action   value                    effect at the fault point
======== ======================= =====================================
kill     —                        ``SIGKILL`` the *current process*
                                  (simulates an OOM-killed pool worker)
delay    seconds (default 0.05)   sleep, then continue (simulates a
                                  hung stage; pairs with deadlines)
raise    exception name           raise ``OSError``/``RuntimeError``/
         (default FaultInjected)  ``FaultInjected``
======== ======================= =====================================

``count`` (default 1) is how many times the clause fires; ``*`` means
every time.  Counts are process-local, which is wrong for pool workers
(every fresh worker process re-arms from the inherited environment and
would fire again).  Setting ``DPCOPULA_FAULTS_LATCH=<dir>`` makes each
firing claim a lock file (``O_EXCL``) in that directory first, so a
clause fires its ``count`` times *globally* across all processes — the
chaos test that SIGKILLs exactly one worker relies on this.

Determinism: fault points fire based only on invocation order and the
latch directory contents — never on timing or randomness — so a fault
schedule replays identically run after run.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry import get_logger, metrics

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULTS_LATCH_ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "configure",
    "inject",
]

_logger = get_logger("resilience.faults")

_FAULTS_TOTAL = metrics.REGISTRY.counter(
    "dpcopula_faults_injected_total",
    "Faults fired by the injection harness (label: site, action)",
)

FAULTS_ENV_VAR = "DPCOPULA_FAULTS"
FAULTS_LATCH_ENV_VAR = "DPCOPULA_FAULTS_LATCH"

_ACTIONS = ("kill", "delay", "raise")

_RAISABLE = {
    "FaultInjected": None,  # filled in below FaultInjected's definition
    "OSError": OSError,
    "IOError": OSError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


class FaultInjected(RuntimeError):
    """The default exception raised by an armed ``raise`` clause."""


_RAISABLE["FaultInjected"] = FaultInjected


@dataclass
class _Clause:
    site: str
    action: str
    value: str
    remaining: Optional[int]  # None means unlimited ("*")
    index: int  # position in the plan, keys the cross-process latch

    def latch_name(self, firing: int) -> str:
        return f"{self.site}.{self.index}.{firing}.latch"


@dataclass
class FaultPlan:
    """A parsed ``DPCOPULA_FAULTS`` spec plus its firing state."""

    spec: str
    clauses: List[_Clause] = field(default_factory=list)
    latch_dir: Optional[str] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def parse(cls, spec: str, latch_dir: Optional[str] = None) -> "FaultPlan":
        plan = cls(spec=spec, latch_dir=latch_dir)
        for index, raw in enumerate(part for part in spec.split(";") if part.strip()):
            fields = [piece.strip() for piece in raw.split(":")]
            if len(fields) < 2 or len(fields) > 4:
                raise ValueError(
                    f"fault clause {raw!r} is not site:action[:value][:count]"
                )
            site, action = fields[0], fields[1]
            if not site or action not in _ACTIONS:
                raise ValueError(
                    f"fault clause {raw!r}: action must be one of {_ACTIONS}"
                )
            value = fields[2] if len(fields) > 2 else ""
            count_text = fields[3] if len(fields) > 3 else "1"
            if count_text == "*":
                remaining: Optional[int] = None
            else:
                remaining = int(count_text)
                if remaining < 0:
                    raise ValueError(f"fault clause {raw!r}: count must be >= 0")
            plan.clauses.append(_Clause(site, action, value, remaining, index))
        return plan

    def _claim(self, clause: _Clause) -> bool:
        """Decrement the clause's budget; True if this firing is ours.

        With a latch directory the claim is global across processes:
        each firing takes one ``O_EXCL`` lock file, so ``count`` firings
        happen fleet-wide no matter how many worker processes re-parse
        the inherited environment.
        """
        with self._lock:
            if clause.remaining is None:
                pass  # unlimited
            elif clause.remaining <= 0:
                return False
            if self.latch_dir:
                budget = clause.remaining if clause.remaining is not None else 1_000_000
                for firing in range(budget):
                    latch = os.path.join(self.latch_dir, clause.latch_name(firing))
                    try:
                        fd = os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    except FileExistsError:
                        continue
                    os.close(fd)
                    if clause.remaining is not None:
                        clause.remaining -= 1
                    return True
                if clause.remaining is not None:
                    clause.remaining = 0
                return False
            if clause.remaining is not None:
                clause.remaining -= 1
            return True

    def fire(self, site: str) -> None:
        """Trigger any armed ``kill``/``delay``/``raise`` clause for ``site``."""
        for clause in self.clauses:
            if clause.site != site:
                continue
            if not self._claim(clause):
                continue
            _FAULTS_TOTAL.inc(site=site, action=clause.action)
            _logger.warning(
                "fault injected",
                extra={"site": site, "action": clause.action, "value": clause.value},
            )
            if clause.action == "delay":
                time.sleep(float(clause.value) if clause.value else 0.05)
            elif clause.action == "raise":
                exc_type = _RAISABLE.get(clause.value or "FaultInjected")
                if exc_type is None:
                    exc_type = FaultInjected
                raise exc_type(f"injected fault at {site}")
            elif clause.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)


# The active plan is cached against the exact env value that produced
# it, so tests flipping DPCOPULA_FAULTS between cases re-arm correctly
# while steady-state production pays one dict lookup per fault point.
_cached_plan: Optional[FaultPlan] = None
_cached_key: Optional[str] = None
_configured = False
_cache_lock = threading.Lock()


def _active_plan() -> Optional[FaultPlan]:
    global _cached_plan, _cached_key
    if _configured:
        return _cached_plan
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    latch = os.environ.get(FAULTS_LATCH_ENV_VAR) or None
    key = f"{spec}\x00{latch or ''}"
    if key == _cached_key:
        return _cached_plan
    with _cache_lock:
        if key != _cached_key:
            _cached_plan = FaultPlan.parse(spec, latch) if spec.strip() else None
            _cached_key = key
    return _cached_plan


def configure(spec: Optional[str], latch_dir: Optional[str] = None) -> None:
    """Arm (or with ``None`` disarm) a fault plan programmatically.

    Equivalent to setting the environment variables but scoped to this
    process; ``configure(None)`` disarms and returns control to the
    environment variables.
    """
    global _cached_plan, _cached_key, _configured
    with _cache_lock:
        _cached_plan = FaultPlan.parse(spec, latch_dir) if spec else None
        _cached_key = None
        _configured = spec is not None


def inject(site: str) -> None:
    """Fault point: fire any armed kill/delay/raise clause for ``site``.

    A no-op costing one environment read when no plan is armed.
    """
    plan = _active_plan()
    if plan is not None:
        plan.fire(site)
