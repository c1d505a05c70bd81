"""Cross-request, cross-restart privacy accounting.

A single in-process :class:`~repro.dp.budget.PrivacyBudget` dies with
the process, which is exactly wrong for a long-running service: the
privacy loss a dataset has suffered is a property of the *data*, not of
any server instance.  :class:`PrivacyAccountant` therefore journals
every fit's ε spend to an append-only JSONL ledger file and rebuilds
the per-dataset ledgers from it on startup, so a restarted (or
horizontally re-deployed, pointed at the same data directory) service
keeps refusing fits that would push a dataset past its lifetime cap.

Sampling never goes through the accountant: drawing records from a
released model is post-processing and costs nothing (paper §3.3).

Resilience semantics (see docs/RELIABILITY.md):

* **Idempotency** — charges and refunds may carry an idempotency
  ``key``; an entry whose key is already journaled is a no-op.  The
  ledger itself is the deduplication source of truth, so a retried fit
  (worker crash, registry hiccup) can re-issue its charge safely and a
  restarted service can resume a journaled job without double-charging.
* **Refunds** — negative entries (``"kind": "refund"``) exist for
  exactly one case: a fit that failed *before drawing any noise*.  In
  that window the data never influenced a releasable value, so undoing
  the charge is provably safe.  Refunds after noise was drawn would
  break the DP guarantee and are never issued by the service.
* **Torn tails** — a crash mid-append can leave a truncated final
  line.  Replay drops exactly that line (the charge was rolled back
  in-memory when the append failed) and repairs the file back to a
  newline-terminated state so later appends start on a fresh line;
  corruption anywhere *else* still refuses startup, because a ledger
  we cannot read in the middle is a ledger we cannot trust.
* **Inter-process safety** — pre-fork serving runs one accountant per
  worker process over the *same* ledger file.  Every mutation
  (append, tail repair) happens under an ``fcntl.flock`` on a
  sidecar lock file, and before deciding anything under that lock the
  accountant **catches up**: it replays whatever bytes sibling
  processes appended since its last read (deduplicated by idempotency
  key, exactly like startup replay).  The cap check therefore always
  runs against the union of every process's charges — two workers
  racing the last slice of a dataset's budget cannot jointly overdraw
  it.  Read paths (``spent``, ``summary``...) catch up lazily when
  the file has grown, so every worker's budget view converges.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.dp.budget import BudgetExhaustedError, PrivacyBudget
from repro.service.config import PathLike
from repro.telemetry import get_logger, metrics
from repro.utils import check_positive, interprocess_lock

__all__ = ["PrivacyAccountant", "BudgetExhaustedError", "replay_ledger"]

_logger = get_logger("service.accountant")


def replay_ledger(ledger_path: PathLike) -> List[Dict[str, Any]]:
    """Pure-read replay of a ledger file: parsed, deduplicated entries.

    The budget observatory's view of the world: one buffered read with
    **no locking whatsoever** — it never touches the flock sidecar, so
    rendering burn-down timelines adds zero contention to the append
    path.  Semantics mirror the accountant's replay: entries come back
    in append order, duplicates by idempotency key are dropped, and a
    final line missing its newline counts when it parses (its append
    died between the write and the newline) and is skipped when it is
    a torn fragment — never repaired, because repairs are mutations and
    belong to the accountant.  Unlike startup replay this is
    diagnostic, so mid-file corruption skips the bad line instead of
    refusing: an observatory must be able to look at a damaged ledger.
    """
    try:
        text = Path(ledger_path).read_text(encoding="utf-8")
    except OSError:
        return []
    entries: List[Dict[str, Any]] = []
    seen_keys: set = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if not isinstance(entry, dict) or "dataset" not in entry:
            continue
        try:
            float(entry["epsilon"])
        except (KeyError, TypeError, ValueError):
            continue
        key = entry.get("key")
        if key is not None:
            if key in seen_keys:
                continue
            seen_keys.add(key)
        entries.append(entry)
    return entries

# Per-dataset privacy gauges: refreshed on every charge and on ledger
# replay, so /metrics always reflects the durable accounting state.
_EPS_SPENT = metrics.REGISTRY.gauge(
    "dpcopula_epsilon_spent",
    "Cumulative privacy budget charged per dataset (label: dataset)",
)
_EPS_REMAINING = metrics.REGISTRY.gauge(
    "dpcopula_epsilon_remaining",
    "Privacy budget left under the lifetime cap per dataset (label: dataset)",
)
_BUDGET_REFUSALS = metrics.REGISTRY.counter(
    "dpcopula_budget_refusals_total",
    "Charges refused because they would exceed a dataset's lifetime cap",
)


class PrivacyAccountant:
    """A durable per-dataset ε ledger with a configurable lifetime cap.

    Parameters
    ----------
    ledger_path:
        The append-only JSONL journal.  Created on first charge; an
        existing journal is replayed on construction, which is how the
        accountant survives process restarts.
    epsilon_cap:
        Maximum cumulative ε any single dataset may spend across all
        fits, ever.  Charges that would exceed it raise
        :class:`~repro.dp.budget.BudgetExhaustedError` and are *not*
        journaled.
    """

    def __init__(self, ledger_path: PathLike, epsilon_cap: float):
        self.ledger_path = Path(ledger_path)
        self.lock_path = self.ledger_path.with_name(self.ledger_path.name + ".lock")
        self.epsilon_cap = check_positive("epsilon_cap", epsilon_cap)
        self._lock = threading.Lock()
        self._entries: List[Dict[str, Any]] = []
        self._budgets: Dict[str, PrivacyBudget] = {}
        self._keys: set = set()
        # Bytes of the ledger already applied in-memory; everything past
        # it was appended by a sibling process and is replayed on the
        # next catch-up.  Complete lines only: a torn fragment is never
        # consumed until it is repaired.
        self._offset = 0
        self._lineno = 0
        with self._lock, interprocess_lock(self.lock_path):
            self._catch_up_locked(startup=True)

    def _maybe_refresh_locked(self) -> None:
        """Catch up on sibling appends iff the file grew (thread lock held).

        A bare ``stat`` is the fast path: when the ledger's size equals
        the bytes we already consumed nothing new exists and no flock
        is taken.
        """
        try:
            size = self.ledger_path.stat().st_size
        except (FileNotFoundError, OSError):
            return
        if size != self._offset:
            with interprocess_lock(self.lock_path):
                self._catch_up_locked()

    def _catch_up_locked(self, startup: bool = False) -> None:
        """Apply every ledger entry past ``self._offset`` (both locks held).

        This is startup replay *and* inter-process catch-up: the first
        call consumes the whole file, later calls only the bytes
        sibling processes appended since.  A truncated *final* line
        (torn append from a crash mid-write) is dropped with a warning
        — the matching in-memory charge was rolled back when the
        append raised, so the entry never took effect — and the file
        itself is repaired (truncated back to the last complete line,
        or newline-terminated if the tail parsed), so the next append
        starts on a fresh line instead of concatenating onto the
        leftover fragment.  Torn tails are recognized by the missing
        trailing newline (each append writes ``json + "\\n"`` in one
        call, so an interrupted one never reaches the newline); a
        *complete* line that fails to parse — anywhere, including last
        — raises, because a ledger we cannot read is a ledger we
        cannot trust.  Repairing under the flock is safe: every live
        appender holds it, so a torn tail can only belong to a dead
        writer.

        Catch-up applies the same idempotency rule as :meth:`charge` /
        :meth:`refund`: an entry whose key is already journaled is
        skipped, so a retried append whose first attempt did reach disk
        (e.g. an fsync error after a successful write) cannot
        double-count on restart, and a sibling's replay of our own
        entries cannot double-count either.
        """
        if not self.ledger_path.exists():
            return
        with self.ledger_path.open("rb") as handle:
            handle.seek(self._offset)
            raw = handle.read()
        if not raw:
            return
        text = raw.decode("utf-8")
        torn_tail = not text.endswith("\n")
        complete, _, fragment = text.rpartition("\n")
        lines = complete.split("\n") if complete else []
        for line in lines:
            self._lineno += 1
            stripped = line.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped)
                str(entry["dataset"])
                float(entry["epsilon"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"privacy ledger {self.ledger_path} is corrupt at "
                    f"line {self._lineno}: {exc}"
                ) from exc
            self._apply_locked(entry)
        self._offset += len(complete.encode("utf-8")) + (1 if complete else 0)
        if torn_tail:
            dropped = True
            stripped = fragment.strip()
            if stripped:
                try:
                    entry = json.loads(stripped)
                    str(entry["dataset"])
                    float(entry["epsilon"])
                except (ValueError, KeyError, TypeError):
                    self._lineno += 1
                    _logger.warning(
                        "dropping truncated trailing ledger line",
                        extra={
                            "ledger": str(self.ledger_path),
                            "line": self._lineno,
                        },
                    )
                else:
                    # The tail is a complete entry whose append died
                    # between the write and the newline: keep it.
                    self._lineno += 1
                    self._apply_locked(entry)
                    self._offset += len(fragment.encode("utf-8"))
                    dropped = False
            self._repair_torn_tail_locked(dropped=dropped)
        for dataset, budget in self._budgets.items():
            _EPS_SPENT.set(budget.spent, dataset=dataset)
            _EPS_REMAINING.set(budget.remaining, dataset=dataset)
        if startup and self._budgets:
            _logger.info(
                "privacy ledger replayed",
                extra={
                    "datasets": len(self._budgets),
                    "entries": len(self._entries),
                    "ledger": str(self.ledger_path),
                },
            )

    def _apply_locked(self, entry: Dict[str, Any]) -> None:
        """Fold one journaled entry into the in-memory ledgers."""
        key = str(entry["key"]) if entry.get("key") else None
        if key is not None and key in self._keys:
            _logger.warning(
                "skipping duplicate ledger entry on replay",
                extra={
                    "ledger": str(self.ledger_path),
                    "line": self._lineno,
                    "key": key,
                },
            )
            return
        self._entries.append(entry)
        if key is not None:
            self._keys.add(key)
        dataset = str(entry["dataset"])
        epsilon = float(entry["epsilon"])
        budget = self._budgets.setdefault(dataset, PrivacyBudget(self.epsilon_cap))
        label = str(entry.get("label", ""))
        if entry.get("kind", "charge") == "refund":
            budget.spent = max(0.0, budget.spent - epsilon)
            budget.log.append((label, -epsilon))
        else:
            # Historic spends are facts: replay them verbatim even
            # when they overdraw a since-lowered cap.
            budget.spent += epsilon
            budget.log.append((label, epsilon))

    def spent(self, dataset_id: str) -> float:
        """Cumulative ε already charged to ``dataset_id``."""
        with self._lock:
            self._maybe_refresh_locked()
            budget = self._budgets.get(dataset_id)
            return budget.spent if budget is not None else 0.0

    def remaining(self, dataset_id: str) -> float:
        """ε still available to ``dataset_id`` under the cap."""
        with self._lock:
            self._maybe_refresh_locked()
            budget = self._budgets.get(dataset_id)
            return budget.remaining if budget is not None else self.epsilon_cap

    def can_charge(self, dataset_id: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` would fit under the cap.

        Advisory in a multi-process fleet: the authoritative check runs
        inside :meth:`charge` under the inter-process lock; this one
        merely catches up first so refusals are as fresh as possible.
        """
        with self._lock:
            self._maybe_refresh_locked()
            budget = self._budgets.get(dataset_id)
            if budget is None:
                budget = PrivacyBudget(self.epsilon_cap)
            return budget.can_spend(epsilon)

    def has_key(self, key: str) -> bool:
        """Whether an entry with idempotency ``key`` is already journaled."""
        with self._lock:
            self._maybe_refresh_locked()
            return key in self._keys

    def charge(
        self,
        dataset_id: str,
        epsilon: float,
        label: str = "fit",
        key: Optional[str] = None,
    ) -> float:
        """Charge ``epsilon`` against ``dataset_id`` and journal it.

        The in-memory spend and the journal append happen under one
        lock, so concurrent fit workers cannot jointly overdraw the
        cap.  Raises :class:`BudgetExhaustedError` (journaling nothing)
        when the charge does not fit.

        With an idempotency ``key`` the charge is exactly-once: if the
        key is already journaled the call returns 0.0 without spending
        anything.  Retried fit attempts and journal-resumed jobs pass
        their job id here so re-execution never double-charges.
        """
        check_positive("epsilon", epsilon)
        with self._lock, interprocess_lock(self.lock_path):
            # Catch up on sibling processes' appends *inside* the flock:
            # the cap check below must see every charge any process has
            # journaled, or two workers could jointly overdraw it.
            self._catch_up_locked()
            if key is not None and key in self._keys:
                _logger.info(
                    "charge skipped: idempotency key already journaled",
                    extra={"dataset": dataset_id, "key": key},
                )
                return 0.0
            budget = self._budgets.setdefault(
                dataset_id, PrivacyBudget(self.epsilon_cap)
            )
            try:
                budget.spend(epsilon, label)
            except BudgetExhaustedError:
                _BUDGET_REFUSALS.inc()
                _logger.warning(
                    "charge refused: lifetime cap",
                    extra={
                        "dataset": dataset_id,
                        "epsilon": float(epsilon),
                        "spent": budget.spent,
                        "cap": self.epsilon_cap,
                    },
                )
                raise
            entry = {
                "dataset": dataset_id,
                "epsilon": float(epsilon),
                "label": label,
                "timestamp": time.time(),
            }
            if key is not None:
                entry["key"] = key
            try:
                self._offset += self._append(entry)
                self._lineno += 1
            except BaseException:
                # The journal is the source of truth: a spend we could
                # not record must not count against future charges.
                budget.spent -= float(epsilon)
                budget.log.pop()
                _logger.exception(
                    "ledger append failed; charge rolled back",
                    extra={"dataset": dataset_id, "ledger": str(self.ledger_path)},
                )
                raise
            self._entries.append(entry)
            if key is not None:
                self._keys.add(key)
            _EPS_SPENT.set(budget.spent, dataset=dataset_id)
            _EPS_REMAINING.set(budget.remaining, dataset=dataset_id)
            _logger.info(
                "epsilon charged",
                extra={
                    "dataset": dataset_id,
                    "epsilon": float(epsilon),
                    "label": label,
                    "spent": budget.spent,
                    "remaining": budget.remaining,
                },
            )
            return float(epsilon)

    def refund(
        self,
        dataset_id: str,
        epsilon: float,
        label: str = "refund",
        key: Optional[str] = None,
    ) -> float:
        """Return ``epsilon`` to ``dataset_id`` and journal the refund.

        **Only safe before any noise was drawn.**  The service issues a
        refund solely when a charged fit failed while the synthesizer's
        ``privacy_touched_`` flag was still ``False`` and the job
        journal records no computed stage — i.e. no DP mechanism ever
        saw the data under this charge, so the privacy loss is
        provably zero (docs/RELIABILITY.md states the argument).  Like
        :meth:`charge`, refunds are idempotent under ``key``.
        """
        check_positive("epsilon", epsilon)
        with self._lock, interprocess_lock(self.lock_path):
            self._catch_up_locked()
            if key is not None and key in self._keys:
                return 0.0
            budget = self._budgets.setdefault(
                dataset_id, PrivacyBudget(self.epsilon_cap)
            )
            entry = {
                "dataset": dataset_id,
                "epsilon": float(epsilon),
                "label": label,
                "kind": "refund",
                "timestamp": time.time(),
            }
            if key is not None:
                entry["key"] = key
            self._offset += self._append(entry)
            self._lineno += 1
            budget.spent = max(0.0, budget.spent - float(epsilon))
            budget.log.append((label, -float(epsilon)))
            self._entries.append(entry)
            if key is not None:
                self._keys.add(key)
            _EPS_SPENT.set(budget.spent, dataset=dataset_id)
            _EPS_REMAINING.set(budget.remaining, dataset=dataset_id)
            _logger.info(
                "epsilon refunded",
                extra={
                    "dataset": dataset_id,
                    "epsilon": float(epsilon),
                    "label": label,
                    "remaining": budget.remaining,
                },
            )
            return float(epsilon)

    def _repair_torn_tail_locked(self, dropped: bool) -> None:
        """Restore the newline-terminated invariant after a torn append.

        Catch-up tolerates a torn tail in memory, but ``_append`` opens
        the file in append mode: left unrepaired, the first
        post-recovery entry would concatenate onto the leftover
        fragment, producing one merged line that ends with a newline —
        unreadable, and no longer recognizable as torn — so the *next*
        restart would refuse to start.  Repair before accepting writes
        (the flock is held, so only a dead writer's fragment can be
        here): truncate the dropped fragment away, or (when the tail
        parsed as a complete entry that was replayed) complete it with
        the newline its append never reached.
        """
        if dropped:
            with self.ledger_path.open("r+b") as handle:
                handle.truncate(self._offset)
                handle.flush()
                os.fsync(handle.fileno())
        else:
            with self.ledger_path.open("a") as handle:
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._offset += 1
        _logger.warning(
            "repaired torn ledger tail",
            extra={
                "ledger": str(self.ledger_path),
                "action": "truncated" if dropped else "newline-terminated",
            },
        )

    def _append(self, entry: Dict[str, Any]) -> int:
        """Durably append one entry; returns the bytes written."""
        from repro.resilience import faults

        faults.inject("ledger.append")
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self.ledger_path.open("ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return len(data)

    def entries(self, dataset_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Journal entries, optionally restricted to one dataset."""
        with self._lock:
            self._maybe_refresh_locked()
            if dataset_id is None:
                return [dict(e) for e in self._entries]
            return [dict(e) for e in self._entries if e["dataset"] == dataset_id]

    def summary(self, dataset_id: str) -> Dict[str, Any]:
        """JSON-ready accounting state for one dataset."""
        with self._lock:
            self._maybe_refresh_locked()
            budget = self._budgets.get(dataset_id)
            spent = budget.spent if budget is not None else 0.0
            remaining = budget.remaining if budget is not None else self.epsilon_cap
            charges = [
                {
                    "epsilon": e["epsilon"],
                    "label": e.get("label", ""),
                    "kind": e.get("kind", "charge"),
                    "timestamp": e.get("timestamp"),
                }
                for e in self._entries
                if e["dataset"] == dataset_id
            ]
        return {
            "dataset_id": dataset_id,
            "epsilon_cap": self.epsilon_cap,
            "epsilon_spent": spent,
            "epsilon_remaining": remaining,
            "charges": charges,
        }
