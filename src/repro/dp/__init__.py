"""Differential-privacy primitives used throughout the library.

This subpackage is the privacy substrate of the DPCopula reproduction:

* :mod:`repro.dp.mechanisms` — Laplace, geometric and exponential mechanisms;
* :mod:`repro.dp.budget` — an explicit privacy-budget ledger implementing the
  sequential and parallel composition theorems (Theorems 3.1 and 3.2 of the
  paper), and the one parser and fold of the service's durable ε ledger;
* :mod:`repro.dp.sensitivity` — closed-form sensitivities, including the
  Kendall's-tau sensitivity of Lemma 4.1.
"""

from repro.dp.budget import BudgetExhaustedError, PrivacyBudget
from repro.dp.mechanisms import (
    exponential_mechanism,
    geometric_mechanism,
    laplace_mechanism,
    laplace_noise,
)
from repro.dp.sensitivity import (
    bounded_mean_sensitivity,
    count_sensitivity,
    histogram_sensitivity,
    kendall_tau_sensitivity,
)
from repro.dp.validation import (
    PrivacyLossEstimate,
    estimate_privacy_loss,
    laplace_release,
)

__all__ = [
    "BudgetExhaustedError",
    "PrivacyBudget",
    "laplace_noise",
    "laplace_mechanism",
    "geometric_mechanism",
    "exponential_mechanism",
    "count_sensitivity",
    "histogram_sensitivity",
    "kendall_tau_sensitivity",
    "bounded_mean_sensitivity",
    "PrivacyLossEstimate",
    "estimate_privacy_loss",
    "laplace_release",
]
