"""Explicit privacy-budget accounting.

The paper's algorithms split an overall budget ``ε`` between margins
(``ε₁``) and correlation coefficients (``ε₂``), and rely on the sequential
(Theorem 3.1) and parallel (Theorem 3.2) composition theorems for the
end-to-end guarantee.  :class:`PrivacyBudget` makes that arithmetic an
auditable object: synthesizers *spend* from a ledger, tests assert the
ledger never overdraws, and the spend log documents exactly which
mechanism consumed which slice.

The service's durable per-dataset ledger (``<data-dir>/ledger.jsonl``,
one JSON object per line) is read here too, and only here:
:func:`parse_ledger_line` turns one line into a validated
:class:`LedgerEntry`, and :meth:`PrivacyLedger.apply` folds entries in
append order.  The accountant's replay, catch-up, charges and refunds,
the lock-free ``GET /budget`` replay and the burn-down timelines all go
through those two, so every reader agrees on what a line means.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.utils import check_positive

# Tolerance for floating-point accumulation when many small slices are spent.
_EPSILON_SLACK = 1e-9


class BudgetExhaustedError(RuntimeError):
    """Raised when a spend would exceed the remaining privacy budget."""


@dataclass
class PrivacyBudget:
    """A sequential-composition ledger for a total budget of ``epsilon``.

    Examples
    --------
    >>> budget = PrivacyBudget(1.0)
    >>> budget.spend(0.25, "margins")
    0.25
    >>> budget.remaining
    0.75
    >>> budget.split(3)  # three equal disjoint slices of what remains
    (0.25, 0.25, 0.25)
    """

    epsilon: float
    spent: float = 0.0
    log: List[Tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive("epsilon", self.epsilon)

    @property
    def remaining(self) -> float:
        """Budget still available for future spends."""
        return max(0.0, self.epsilon - self.spent)

    def can_spend(self, amount: float) -> bool:
        """Whether ``amount`` fits in the remaining budget."""
        return amount <= self.remaining + _EPSILON_SLACK

    def spend(self, amount: float, label: str = "") -> float:
        """Record a sequential-composition spend of ``amount``.

        Returns the amount spent so calls compose naturally with mechanism
        invocations.  Raises :class:`BudgetExhaustedError` on overdraw.
        """
        check_positive("spend amount", amount)
        if not self.can_spend(amount):
            raise BudgetExhaustedError(
                f"cannot spend {amount:.6g}: only {self.remaining:.6g} of "
                f"{self.epsilon:.6g} remains (label={label!r})"
            )
        self.spent = min(self.epsilon, self.spent + amount)
        self.log.append((label, amount))
        return amount

    def spend_parallel(self, amount: float, label: str = "") -> float:
        """Record a spend over *disjoint* data partitions (Theorem 3.2).

        Parallel composition charges the maximum, not the sum: running an
        ``amount``-DP mechanism once on each of several disjoint subsets
        costs ``amount`` overall.  The ledger therefore records a single
        spend regardless of partition count; callers invoke this once per
        *round* of parallel mechanisms.
        """
        return self.spend(amount, label or "parallel")

    def split(self, parts: int) -> Tuple[float, ...]:
        """Evenly divide the *remaining* budget into ``parts`` slices.

        Does not spend anything; callers spend each slice as they use it.
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        share = self.remaining / parts
        return tuple(share for _ in range(parts))

    def subbudget(self, amount: float, label: str = "") -> "PrivacyBudget":
        """Spend ``amount`` here and return a fresh ledger of that size.

        Used by the hybrid algorithm: the parent spends ``ε − ε₁`` once and
        each partition's DPCopula run accounts against its own sub-ledger
        (parallel composition over disjoint partitions).
        """
        self.spend(amount, label or "subbudget")
        return PrivacyBudget(amount)

    def summary(self) -> str:
        """Human-readable spend log."""
        lines = [f"PrivacyBudget(total={self.epsilon:.6g}, spent={self.spent:.6g})"]
        for label, amount in self.log:
            lines.append(f"  - {label or '<unlabelled>'}: {amount:.6g}")
        return "\n".join(lines)


#: The kinds of ledger entry; a line without ``"kind"`` is a charge.
LEDGER_KINDS = ("charge", "refund")


@dataclass(frozen=True)
class LedgerEntry:
    """One validated line of the privacy ledger.

    ``record`` is the line's JSON object as written; ``key`` is its
    idempotency key, ``None`` when absent or null and ``str(key)``
    otherwise, so ``7`` and ``"7"`` are one key and ``""`` is a key.
    """

    dataset: str
    kind: str
    epsilon: float
    key: Optional[str]
    record: Dict[str, Any]

    @property
    def label(self) -> Any:
        return self.record.get("label", "")

    @property
    def timestamp(self) -> Any:
        return self.record.get("timestamp")


def parse_ledger_line(line: str) -> LedgerEntry:
    """Parse and validate one ledger line; ``ValueError`` if it is not an entry.

    An entry is a JSON object with a string ``dataset``, a ``kind`` from
    :data:`LEDGER_KINDS` (default ``"charge"``) and a finite positive
    ``epsilon``: exactly what a charge or refund writes.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"a ledger entry is a JSON object, got {record!r}")
    dataset = record.get("dataset")
    if not isinstance(dataset, str):
        raise ValueError(f"ledger dataset must be a string, got {dataset!r}")
    kind = record.get("kind", "charge")
    if kind not in LEDGER_KINDS:
        raise ValueError(f"ledger kind must be one of {LEDGER_KINDS}, got {kind!r}")
    epsilon = record.get("epsilon")
    if (
        isinstance(epsilon, bool)
        or not isinstance(epsilon, (int, float))
        or not 0 < epsilon <= sys.float_info.max
    ):
        raise ValueError(
            f"ledger epsilon must be a finite positive number, got {epsilon!r}"
        )
    key = record.get("key")
    return LedgerEntry(
        dataset=dataset,
        kind=kind,
        epsilon=float(epsilon),
        key=None if key is None else str(key),
        record=record,
    )


class PrivacyLedger:
    """Per-dataset ε spent, folded from ledger entries in append order.

    Historic spends are facts, privacy loss that already happened, so
    :meth:`apply` adds a charge even when it overdraws ``epsilon_cap``
    (the cap may have been lowered since); only :meth:`can_charge`
    enforces the cap, for charges not yet journaled.
    """

    def __init__(self, epsilon_cap: float):
        self.epsilon_cap = float(epsilon_cap)
        self.entries: List[LedgerEntry] = []
        self.spent: Dict[str, float] = {}
        self._keys: Set[str] = set()

    def seen(self, entry: LedgerEntry) -> bool:
        """Whether ``entry``'s idempotency key is already applied."""
        return entry.key is not None and entry.key in self._keys

    def apply(self, entry: LedgerEntry) -> bool:
        """Fold one entry in; ``False`` (and no change) if its key was seen.

        A charge adds its ε to the dataset's spend; a refund subtracts
        it, clipped at zero.
        """
        if self.seen(entry):
            return False
        if entry.key is not None:
            self._keys.add(entry.key)
        self.entries.append(entry)
        spent = self.spent.get(entry.dataset, 0.0)
        if entry.kind == "refund":
            spent = max(0.0, spent - entry.epsilon)
        else:
            spent += entry.epsilon
        self.spent[entry.dataset] = spent
        return True

    def remaining(self, dataset: str) -> float:
        """ε still available to ``dataset`` under the cap."""
        return max(0.0, self.epsilon_cap - self.spent.get(dataset, 0.0))

    def can_charge(self, dataset: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits under the cap."""
        return epsilon <= self.remaining(dataset) + _EPSILON_SLACK


def split_budget_by_ratio(epsilon: float, k: float) -> Tuple[float, float]:
    """Split ``epsilon`` into ``(ε₁, ε₂)`` with ``ε₁/ε₂ = k`` (paper's ``k``).

    The paper's only algorithmic parameter: ``ε₁`` funds the m marginal
    histograms, ``ε₂`` funds the C(m,2) correlation coefficients, and
    Figure 5 shows accuracy is insensitive to ``k`` once ``k >= 1`` (the
    paper defaults to ``k = 8``).

    >>> split_budget_by_ratio(1.0, 1.0)
    (0.5, 0.5)
    >>> e1, e2 = split_budget_by_ratio(0.9, 8.0)
    >>> round(e1, 3), round(e2, 3)
    (0.8, 0.1)
    """
    check_positive("epsilon", epsilon)
    check_positive("k", k)
    epsilon2 = epsilon / (k + 1.0)
    epsilon1 = epsilon - epsilon2
    return epsilon1, epsilon2
