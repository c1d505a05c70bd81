"""Service-level errors with HTTP status semantics."""

from __future__ import annotations


class ServiceError(Exception):
    """An operation failure the HTTP layer maps to a status code.

    Raised by :class:`~repro.service.app.SynthesisService` operations so
    the transport layer can translate failures uniformly; non-HTTP
    callers (tests, embedding applications) get an exception whose
    ``status`` documents the failure class.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


class NotFoundError(ServiceError):
    """A dataset, model or job id that does not exist (404)."""

    def __init__(self, message: str):
        super().__init__(404, message)


class ValidationError(ServiceError):
    """A malformed or unsupported request (400)."""

    def __init__(self, message: str):
        super().__init__(400, message)


class BudgetRefusedError(ServiceError):
    """A fit refused because it would exceed the dataset's ε cap (409)."""

    def __init__(self, message: str):
        super().__init__(409, message)


class QueueFullError(ServiceError):
    """The fit queue is at capacity; retry after backoff (429).

    ``retry_after`` is a best-effort hint, surfaced by the HTTP layer
    as a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 30.0):
        super().__init__(429, message)
        self.retry_after = float(retry_after)


class JobCancelledError(ServiceError):
    """A fit job stopped because its cancellation flag was set (409).

    Raised cooperatively at stage boundaries by the
    :class:`~repro.service.jobs.FitCheckpoint` stage hook the service
    hands to ``fit()``; the worker maps it to the terminal
    ``cancelled`` state rather than ``failed``.
    """

    def __init__(self, message: str):
        super().__init__(409, message)
