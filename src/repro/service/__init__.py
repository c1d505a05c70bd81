"""Long-running synthesis service: fit once, sample forever.

The paper's structure makes a server the natural deployment shape: a
DPCopula release spends privacy budget exactly once at fit time, and
sampling from the released model afterwards is pure post-processing
with zero additional cost (§3.3 / Algorithm 3).  This subpackage turns
the library into that server:

* :class:`ModelRegistry` persists released models on disk;
* :class:`PrivacyAccountant` journals every fit's ε spend and enforces
  a per-dataset lifetime cap across process restarts;
* :class:`FitWorker` runs fits on a background queue with job polling;
* :class:`SynthesisService` + :func:`build_server` expose it all as a
  concurrent, stdlib-only JSON HTTP API (``dpcopula serve``);
* :class:`PreforkServer` scales that API across N worker processes
  sharing one port (``dpcopula serve --workers N``).
"""

from repro.service.accountant import PrivacyAccountant
from repro.service.app import FIT_METHODS, SynthesisService
from repro.service.config import ServiceConfig
from repro.service.datasets import DatasetStore
from repro.service.errors import (
    BudgetRefusedError,
    NotFoundError,
    ServiceError,
    ValidationError,
)
from repro.service.http import build_server
from repro.service.jobs import FitWorker
from repro.service.prefork import PreforkServer, resolve_worker_count
from repro.service.registry import ModelRecord, ModelRegistry
from repro.service.serializers import dataset_summary, dataset_to_rows

__all__ = [
    "PrivacyAccountant",
    "SynthesisService",
    "FIT_METHODS",
    "ServiceConfig",
    "DatasetStore",
    "ServiceError",
    "NotFoundError",
    "ValidationError",
    "BudgetRefusedError",
    "build_server",
    "PreforkServer",
    "resolve_worker_count",
    "FitWorker",
    "ModelRecord",
    "ModelRegistry",
    "dataset_summary",
    "dataset_to_rows",
]
