"""Cross-request, cross-restart privacy accounting.

A single in-process :class:`~repro.dp.budget.PrivacyBudget` dies with
the process, which is exactly wrong for a long-running service: the
privacy loss a dataset has suffered is a property of the *data*, not of
any server instance.  :class:`PrivacyAccountant` therefore journals
every fit's ε spend to an append-only JSONL ledger file and rebuilds
the per-dataset spends from it on startup, so a restarted (or
horizontally re-deployed, pointed at the same data directory) service
keeps refusing fits that would push a dataset past its lifetime cap.

Every reading of the ledger, the accountant's and the lock-free
:func:`replay_ledger` behind :func:`budget_overview` alike, parses
lines with :func:`~repro.dp.budget.parse_ledger_line` and folds them
with :meth:`~repro.dp.budget.PrivacyLedger.apply`.

Sampling never goes through the accountant: drawing records from a
released model is post-processing and costs nothing (paper §3.3).

Resilience semantics (see docs/RELIABILITY.md):

* **Idempotency** — charges and refunds may carry an idempotency
  ``key`` (compared as ``str(key)``); an entry whose key is already
  journaled is a no-op.  The ledger itself is the deduplication source
  of truth, so a retried fit (worker crash, registry hiccup) can
  re-issue its charge safely and a restarted service can rerun a
  journaled job without double-charging.
* **Refunds** — negative entries (``"kind": "refund"``) exist for
  exactly one case: a fit that failed *before drawing any noise*.  In
  that window the data never influenced a releasable value, so undoing
  the charge is provably safe.  Refunds after noise was drawn would
  break the DP guarantee and are never issued by the service.
* **Torn tails** — a crash mid-append can leave a truncated final
  line.  Replay drops exactly that line (an entry counts in memory only
  after its append returned) and repairs the file back to a
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

from repro.dp.budget import (
    BudgetExhaustedError,
    LedgerEntry,
    PrivacyLedger,
    parse_ledger_line,
)
from repro.service.config import PathLike
from repro.telemetry import get_logger, metrics
from repro.telemetry.observatory import budget_timelines
from repro.utils import check_positive, interprocess_lock

__all__ = [
    "PrivacyAccountant",
    "BudgetExhaustedError",
    "budget_overview",
    "replay_ledger",
]

_logger = get_logger("service.accountant")


def replay_ledger(ledger_path: PathLike) -> List[LedgerEntry]:
    """Pure-read replay of a ledger file: its valid entries in append order.

    One buffered read with **no locking whatsoever**: it never touches
    the flock sidecar, so rendering burn-down timelines adds zero
    contention to the append path.  A final line missing its newline
    counts when it parses (its append died between the write and the
    newline) and is skipped when it is a torn fragment, never repaired,
    because repairs are mutations and belong to the accountant.  Unlike
    startup replay this is diagnostic, so a bad line anywhere is
    skipped instead of refusing: an observatory must be able to look at
    a damaged ledger.  Duplicate keys are left to the fold.
    """
    try:
        text = Path(ledger_path).read_text(encoding="utf-8")
    except OSError:
        return []
    entries: List[LedgerEntry] = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            entries.append(parse_ledger_line(line))
        except ValueError:
            continue
    return entries


def budget_overview(data_dir: PathLike, epsilon_cap: float) -> Dict[str, Any]:
    """Per-dataset ε burn-down timelines of a serve data directory.

    Backs ``GET /budget``, ``dpcopula budget`` and the dashboards, live
    or offline.  The ledger is read with :func:`replay_ledger`, without
    its lock, and every uploaded dataset is listed, so a never-fitted
    one still shows its full cap.
    """
    root = Path(data_dir)
    datasets = [sidecar.stem for sidecar in (root / "datasets").glob("*.json")]
    return budget_timelines(
        replay_ledger(root / "ledger.jsonl"), epsilon_cap, datasets=datasets
    )


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
        self._ledger = PrivacyLedger(self.epsilon_cap)
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
        — its entry never took effect, because an entry counts in
        memory only after its append returned — and the file itself is
        repaired (truncated back to the last complete line, or
        newline-terminated if the tail parsed), so the next append
        starts on a fresh line instead of concatenating onto the
        leftover fragment.  Torn tails are recognized by the missing
        trailing newline (each append writes ``json + "\\n"`` in one
        call, so an interrupted one never reaches the newline); a
        *complete* line that fails to parse — anywhere, including last
        — raises, because a ledger we cannot read is a ledger we
        cannot trust.  Repairing under the flock is safe: every live
        appender holds it, so a torn tail can only belong to a dead
        writer.

        The fold skips an entry whose key is already applied, so a
        retried append whose first attempt did reach disk (e.g. an
        fsync error after a successful write) cannot double-count on
        restart, and a sibling's replay of our own entries cannot
        double-count either.
        """
        if not self.ledger_path.exists():
            return
        with self.ledger_path.open("rb") as handle:
            handle.seek(self._offset)
            raw = handle.read()
        if not raw:
            return
        complete, newline, fragment = raw.decode("utf-8").rpartition("\n")
        for line in complete.split("\n") if newline else []:
            self._lineno += 1
            if not line.strip():
                continue
            try:
                entry = parse_ledger_line(line)
            except ValueError as exc:
                raise ValueError(
                    f"privacy ledger {self.ledger_path} is corrupt at "
                    f"line {self._lineno}: {exc}"
                ) from exc
            self._apply_locked(entry)
        self._offset += len(complete.encode("utf-8")) + len(newline)
        if fragment:
            self._lineno += 1
            try:
                entry = parse_ledger_line(fragment)
            except ValueError:
                _logger.warning(
                    "dropping truncated trailing ledger line",
                    extra={"ledger": str(self.ledger_path), "line": self._lineno},
                )
                self._repair_torn_tail_locked(dropped=True)
            else:
                # The tail is a complete entry whose append died
                # between the write and the newline: keep it.
                self._apply_locked(entry)
                self._offset += len(fragment.encode("utf-8"))
                self._repair_torn_tail_locked(dropped=False)
        for dataset, spent in self._ledger.spent.items():
            _EPS_SPENT.set(spent, dataset=dataset)
            _EPS_REMAINING.set(self._ledger.remaining(dataset), dataset=dataset)
        if startup and self._ledger.spent:
            _logger.info(
                "privacy ledger replayed",
                extra={
                    "datasets": len(self._ledger.spent),
                    "entries": len(self._ledger.entries),
                    "ledger": str(self.ledger_path),
                },
            )

    def _apply_locked(self, entry: LedgerEntry) -> None:
        """Fold one replayed entry into the in-memory ledger."""
        if not self._ledger.apply(entry):
            _logger.warning(
                "skipping duplicate ledger entry on replay",
                extra={
                    "ledger": str(self.ledger_path),
                    "line": self._lineno,
                    "key": entry.key,
                },
            )

    def spent(self, dataset_id: str) -> float:
        """Cumulative ε already charged to ``dataset_id``."""
        with self._lock:
            self._maybe_refresh_locked()
            return self._ledger.spent.get(dataset_id, 0.0)

    def remaining(self, dataset_id: str) -> float:
        """ε still available to ``dataset_id`` under the cap."""
        with self._lock:
            self._maybe_refresh_locked()
            return self._ledger.remaining(dataset_id)

    def can_charge(self, dataset_id: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` would fit under the cap.

        Advisory in a multi-process fleet: the authoritative check runs
        inside :meth:`charge` under the inter-process lock; this one
        merely catches up first so refusals are as fresh as possible.
        """
        with self._lock:
            self._maybe_refresh_locked()
            return self._ledger.can_charge(dataset_id, epsilon)

    def journaled(self, key: str) -> bool:
        """Whether the ledger holds an entry under idempotency ``key``."""
        with self._lock:
            self._maybe_refresh_locked()
            return self._ledger.has_key(key)

    def charge(
        self,
        dataset_id: str,
        epsilon: float,
        label: str = "fit",
        key: Optional[str] = None,
    ) -> float:
        """Charge ``epsilon`` against ``dataset_id`` and journal it.

        The cap check and the journal append happen under one lock, so
        concurrent fit workers cannot jointly overdraw the cap.  Raises
        :class:`BudgetExhaustedError` (journaling nothing) when the
        charge does not fit.

        With an idempotency ``key`` the charge is exactly-once: if the
        key is already journaled the call returns 0.0 without spending
        anything.  Retried fit attempts and journal-resumed jobs pass
        their job id here so re-execution never double-charges.
        """
        return self._journal("charge", dataset_id, epsilon, label, key)

    def refund(
        self,
        dataset_id: str,
        epsilon: float,
        label: str = "refund",
        key: Optional[str] = None,
    ) -> float:
        """Return ``epsilon`` to ``dataset_id`` and journal the refund.

        **Only safe before any noise was drawn.**  The service issues a
        refund solely for a charged fit that ended before its job record
        carried the noise mark, which is journaled before the first
        mechanism sees the data, so the privacy loss is provably zero
        (docs/RELIABILITY.md states the argument).  Like :meth:`charge`,
        refunds are idempotent under ``key``.
        """
        return self._journal("refund", dataset_id, epsilon, label, key)

    def _journal(
        self,
        kind: str,
        dataset_id: str,
        epsilon: float,
        label: str,
        key: Optional[str],
    ) -> float:
        """Append one charge or refund, then fold it in; the ε it moved.

        The line is parsed back with the reader's own parser, and the
        entry counts in memory only once its append returned, so a
        failed append leaves nothing to undo.
        """
        check_positive("epsilon", epsilon)
        with self._lock, interprocess_lock(self.lock_path):
            # Catch up on sibling processes' appends *inside* the flock:
            # the cap check below must see every charge any process has
            # journaled, or two workers could jointly overdraw it.
            self._catch_up_locked()
            record: Dict[str, Any] = {
                "dataset": dataset_id,
                "epsilon": float(epsilon),
                "label": label,
                "timestamp": time.time(),
            }
            if kind == "refund":
                record["kind"] = kind
            if key is not None:
                record["key"] = key
            line = json.dumps(record, sort_keys=True)
            entry = parse_ledger_line(line)
            if self._ledger.seen(entry):
                _logger.info(
                    f"{kind} skipped: idempotency key already journaled",
                    extra={"dataset": dataset_id, "key": entry.key},
                )
                return 0.0
            if kind == "charge" and not self._ledger.can_charge(
                dataset_id, entry.epsilon
            ):
                _BUDGET_REFUSALS.inc()
                remaining = self._ledger.remaining(dataset_id)
                _logger.warning(
                    "charge refused: lifetime cap",
                    extra={
                        "dataset": dataset_id,
                        "epsilon": entry.epsilon,
                        "spent": self._ledger.spent.get(dataset_id, 0.0),
                        "cap": self.epsilon_cap,
                    },
                )
                raise BudgetExhaustedError(
                    f"cannot spend {entry.epsilon:.6g}: only {remaining:.6g} "
                    f"of {self.epsilon_cap:.6g} remains (label={label!r})"
                )
            self._offset += self._append(line)
            self._lineno += 1
            self._ledger.apply(entry)
            spent = self._ledger.spent[dataset_id]
            remaining = self._ledger.remaining(dataset_id)
            _EPS_SPENT.set(spent, dataset=dataset_id)
            _EPS_REMAINING.set(remaining, dataset=dataset_id)
            _logger.info(
                "epsilon charged" if kind == "charge" else "epsilon refunded",
                extra={
                    "dataset": dataset_id,
                    "epsilon": entry.epsilon,
                    "label": label,
                    "spent": spent,
                    "remaining": remaining,
                },
            )
            return entry.epsilon

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

    def _append(self, line: str) -> int:
        """Durably append one serialized entry; returns the bytes written."""
        from repro.resilience import faults

        faults.inject("ledger.append")
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        data = (line + "\n").encode("utf-8")
        with self.ledger_path.open("ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return len(data)

    def entries(self, dataset_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Journal entries as written, optionally restricted to one dataset."""
        with self._lock:
            self._maybe_refresh_locked()
            return [
                dict(entry.record)
                for entry in self._ledger.entries
                if dataset_id is None or entry.dataset == dataset_id
            ]

    def summary(self, dataset_id: str) -> Dict[str, Any]:
        """JSON-ready accounting state for one dataset."""
        with self._lock:
            self._maybe_refresh_locked()
            spent = self._ledger.spent.get(dataset_id, 0.0)
            remaining = self._ledger.remaining(dataset_id)
            charges = [
                {
                    "epsilon": entry.epsilon,
                    "label": entry.label,
                    "kind": entry.kind,
                    "timestamp": entry.timestamp,
                }
                for entry in self._ledger.entries
                if entry.dataset == dataset_id
            ]
        return {
            "dataset_id": dataset_id,
            "epsilon_cap": self.epsilon_cap,
            "epsilon_spent": spent,
            "epsilon_remaining": remaining,
            "charges": charges,
        }
