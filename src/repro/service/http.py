"""Stdlib-only JSON HTTP API over :class:`SynthesisService`.

Built on :class:`http.server.ThreadingHTTPServer` — no web framework,
no new dependencies.  One thread per request is exactly right here:
sampling requests are CPU-light NumPy calls that release the GIL in the
hot loops, and the heavy work (fitting) never runs in a request thread
at all (it goes through the background :class:`FitWorker`).

Endpoints
---------
========  ==============================  ==========================================
Method    Path                            Meaning
========  ==============================  ==========================================
GET       /health                         liveness + library version
GET       /healthz                        readiness probe: 200 healthy / 503 not
GET       /metrics                        Prometheus text (or JSON via Accept)
GET       /datasets                       list uploaded dataset summaries
POST      /datasets                       upload ``{"dataset_id", "csv"}``
GET       /datasets/<id>                  inspect (shared with ``inspect --json``)
GET       /datasets/<id>/budget           the accountant's view of the dataset
GET       /fits                           list fit jobs
POST      /fits                           submit ``{"dataset_id", "method", ...}``
GET       /fits/<id>                      poll job status
POST      /fits/<id>/cancel               request cooperative cancellation
GET       /models                         list registered model records
GET       /models/<id>                    one model record
POST      /models/<id>/sample             draw records: ``{"n", "seed"}``
GET       /budget                         per-dataset ε burn-down timelines
GET       /debug/observatory              fleet observatory document (JSON)
==========================================================================

All request and response bodies are JSON (UTF-8) except ``/metrics``,
which defaults to the Prometheus text exposition format and switches to
the JSON snapshot when the request's ``Accept`` header asks for
``application/json``.  Errors are ``{"error": "<message>"}`` with a
meaningful status code: 400 malformed, 404 unknown id, 409 privacy
budget refused, 405 wrong method, 429 fit queue full *or* sampling
engine overloaded (with a ``Retry-After`` header carrying the backoff
hint in seconds).

Sampling requests are served by the engine (:mod:`repro.engine`):
concurrent requests against the same model may coalesce into one
vectorized draw, with per-request bitwise determinism.  Over HTTP they
rarely do: with two keep-alive clients sending 25-record requests at
about 800-900 requests/s (2-vCPU VM), 0.2-0.4% of requests shared a
batch (``coalesce.batched_share`` in the end-to-end benchmark's traced
sample-small runs).

Hardening: each connection runs under the config's
``request_timeout_seconds`` socket timeout, so a stalled client cannot
pin a handler thread; the serve CLI additionally installs a SIGTERM
handler that stops accepting, finishes in-flight work and leaves queued
jobs journaled for the next start (graceful drain).
"""

from __future__ import annotations

import json
import re
import socket
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.dp.budget import BudgetExhaustedError
from repro.service.app import SynthesisService
from repro.service.errors import ServiceError
from repro.telemetry import bind_context, get_logger, metrics, trace

__all__ = ["build_server", "SynthesisRequestHandler"]

_logger = get_logger("service.http")

_REQUESTS_TOTAL = metrics.REGISTRY.counter(
    "dpcopula_http_requests_total",
    "HTTP requests served, by method/route/status",
)
_THROTTLED_TOTAL = metrics.REGISTRY.counter(
    "dpcopula_http_throttled_total",
    "Requests refused with 429 (fit queue full or sampling engine overloaded)",
)
_REQUEST_SECONDS = metrics.REGISTRY.histogram(
    "dpcopula_http_request_seconds",
    "End-to-end request handling wall clock, by method/route "
    "(JSON snapshot carries per-bucket request-id exemplars)",
)
_SLOW_REQUESTS = metrics.REGISTRY.counter(
    "dpcopula_http_slow_requests_total",
    "Requests slower than the configured slow-request threshold (label: route)",
)

#: Uploads above this size are refused outright (64 MiB of CSV text).
MAX_BODY_BYTES = 64 * 1024 * 1024


class PlainText(str):
    """Handler return type that is sent verbatim instead of JSON-encoded."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"


_ID = r"(?P<id>[A-Za-z0-9._-]+)"
_ROUTES = [
    ("GET", re.compile(r"^/health$"), "health"),
    ("GET", re.compile(r"^/healthz$"), "healthz"),
    ("GET", re.compile(r"^/metrics$"), "metrics"),
    ("GET", re.compile(r"^/datasets$"), "list_datasets"),
    ("POST", re.compile(r"^/datasets$"), "upload_dataset"),
    ("GET", re.compile(rf"^/datasets/{_ID}$"), "inspect_dataset"),
    ("GET", re.compile(rf"^/datasets/{_ID}/budget$"), "dataset_budget"),
    ("GET", re.compile(r"^/fits$"), "list_fits"),
    ("POST", re.compile(r"^/fits$"), "submit_fit"),
    ("GET", re.compile(rf"^/fits/{_ID}$"), "fit_status"),
    ("POST", re.compile(rf"^/fits/{_ID}/cancel$"), "cancel_fit"),
    ("GET", re.compile(r"^/models$"), "list_models"),
    ("GET", re.compile(rf"^/models/{_ID}$"), "model_info"),
    ("POST", re.compile(rf"^/models/{_ID}/sample$"), "sample_model"),
    ("GET", re.compile(r"^/budget$"), "budget"),
    ("GET", re.compile(r"^/debug/observatory$"), "observatory"),
]


class SynthesisRequestHandler(BaseHTTPRequestHandler):
    """Routes JSON requests to the attached :class:`SynthesisService`."""

    server_version = "dpcopula-synthesis"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket, so no write waits on the
    # client's delayed ACK (the stdlib's send_error writes twice).
    disable_nagle_algorithm = True

    # Set by build_server on the handler subclass.
    service: SynthesisService = None  # type: ignore[assignment]
    quiet: bool = True
    #: The current request's correlation id, echoed as ``X-Request-ID``
    #: on every response (set per-request by ``_dispatch``).
    _request_id: Optional[str] = None
    #: Pre-fork worker identity echoed on every response (``None`` for
    #: the single-process server): lets clients and the scale-out bench
    #: see which process served them.
    worker_label: Optional[str] = None

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        payload: Any,
        extra_headers: Optional[dict] = None,
    ) -> None:
        """Send ``payload`` (JSON, or :class:`PlainText` verbatim) in one write.

        Headers and body in two writes would leave a small body waiting
        on every keep-alive request for the client's delayed ACK of the
        headers (Nagle's algorithm), about 40 ms.
        """
        if isinstance(payload, PlainText):
            body, content_type = payload.encode("utf-8"), payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json; charset=utf-8"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.worker_label is not None:
            self.send_header("X-DPCopula-Worker", self.worker_label)
        if self._request_id is not None:
            self.send_header("X-Request-ID", self._request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no headers: a bare body
            self.wfile.write(body)
            return
        # end_headers() would send the buffered status line and headers
        # in a write of their own; flush_headers() sends all of it.
        self._headers_buffer += [b"\r\n", body]
        self.flush_headers()

    def _read_json_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # Where this body ends, and so where the next request starts,
            # is unknown: refuse before reading (``rfile.read(-1)`` would
            # wait out the socket timeout) and close after the 400.
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(400, f"request body is not valid JSON: {exc}")

    def _run_handler(self, name: str, handler, route_id) -> Tuple[int, Any]:
        """Invoke a route handler, under a per-request trace if exporting.

        When the durable trace exporter is installed, each request runs
        under its own trace root: spans opened anywhere below (engine,
        parallel chunks) collect into one tree, and on completion the
        exporter appends it to the worker's trace log keyed by the bound
        request id.  Without an exporter the request path stays exactly
        as cheap as before — one attribute read.
        """
        if self.service.trace_exporter is None:
            return handler(route_id)
        with trace.trace_root("http.request", method=self.command, route=name):
            return handler(route_id)

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        # Every request gets a request id bound into the logging context,
        # so all log lines a handler (or the service underneath) emits
        # carry it; clients get it back as X-Request-ID (an inbound one
        # is honored) for support correlation against exported traces.
        request_id = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:12]
        self._request_id = request_id
        started = time.perf_counter()
        with bind_context(request_id=request_id):
            matched_path = False
            for route_method, pattern, name in _ROUTES:
                match = pattern.match(path)
                if not match:
                    continue
                matched_path = True
                if route_method != method:
                    continue
                handler = getattr(self, f"_handle_{name}")
                extra_headers: Optional[dict] = None
                try:
                    status, payload = self._run_handler(
                        name, handler, match.groupdict().get("id")
                    )
                except ServiceError as exc:
                    status, payload = exc.status, {"error": exc.message}
                    retry_after = getattr(exc, "retry_after", None)
                    if retry_after is not None:
                        # Shed load politely: tell the client when the
                        # queue is worth trying again.
                        extra_headers = {"Retry-After": f"{retry_after:g}"}
                    if status == 429:
                        _THROTTLED_TOTAL.inc()
                except BudgetExhaustedError as exc:
                    status, payload = 409, {"error": str(exc)}
                except Exception as exc:  # pragma: no cover - defensive
                    # The client gets the one-liner; the log keeps the
                    # traceback that used to vanish with it.
                    _logger.exception(
                        "unhandled request error",
                        extra={"method": method, "path": path},
                    )
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                elapsed = time.perf_counter() - started
                _REQUESTS_TOTAL.inc(method=method, route=name, status=str(status))
                _REQUEST_SECONDS.observe(
                    elapsed, exemplar=request_id, method=method, route=name
                )
                slow_after = self.service.config.slow_request_seconds
                if slow_after is not None and elapsed >= slow_after:
                    _SLOW_REQUESTS.inc(route=name)
                    _logger.warning(
                        "slow request",
                        extra={
                            "method": method,
                            "path": path,
                            "status": status,
                            "seconds": round(elapsed, 6),
                            "threshold": slow_after,
                        },
                    )
                _logger.debug(
                    "request served",
                    extra={
                        "method": method,
                        "path": path,
                        "status": status,
                        "seconds": round(elapsed, 6),
                    },
                )
                self._send(status, payload, extra_headers)
                return
            if matched_path:
                status, payload = 405, {
                    "error": f"method {method} not allowed on {path}"
                }
            else:
                status, payload = 404, {"error": f"no route for {method} {path}"}
            _REQUESTS_TOTAL.inc(method=method, route="<unrouted>", status=str(status))
            self._send(status, payload)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch(self.command)

    # PUT, DELETE and PATCH get the JSON 405 (known path) or 404 too,
    # not the stdlib's HTML 501.  HEAD keeps the 501: a HEAD response
    # has no body to carry a JSON error.
    do_POST = do_PUT = do_DELETE = do_PATCH = do_GET

    # -- handlers ---------------------------------------------------------

    def _handle_health(self, _: Optional[str]) -> Tuple[int, Any]:
        from repro import __version__

        return 200, {
            "status": "ok",
            "version": __version__,
            "epsilon_cap": self.service.config.epsilon_cap,
        }

    def _handle_healthz(self, _: Optional[str]) -> Tuple[int, Any]:
        document = self.service.healthz()
        return (200 if document["healthy"] else 503), document

    def _handle_metrics(self, _: Optional[str]) -> Tuple[int, Any]:
        accept = self.headers.get("Accept", "")
        if "application/json" in accept:
            return 200, self.service.metrics_snapshot()
        return 200, PlainText(self.service.metrics_text())

    def _handle_list_datasets(self, _: Optional[str]) -> Tuple[int, Any]:
        return 200, {"datasets": self.service.list_datasets()}

    def _handle_upload_dataset(self, _: Optional[str]) -> Tuple[int, Any]:
        body = self._read_json_body()
        if not isinstance(body, dict):
            raise ServiceError(400, "upload body must be a JSON object")
        dataset_id = body.get("dataset_id")
        csv_text = body.get("csv")
        if not isinstance(dataset_id, str) or not isinstance(csv_text, str):
            raise ServiceError(
                400, 'upload requires string fields "dataset_id" and "csv"'
            )
        return 201, self.service.upload_dataset(dataset_id, csv_text)

    def _handle_inspect_dataset(self, dataset_id: str) -> Tuple[int, Any]:
        return 200, self.service.inspect_dataset(dataset_id)

    def _handle_dataset_budget(self, dataset_id: str) -> Tuple[int, Any]:
        return 200, self.service.budget_summary(dataset_id)

    def _handle_list_fits(self, _: Optional[str]) -> Tuple[int, Any]:
        return 200, {"jobs": self.service.list_jobs()}

    def _handle_submit_fit(self, _: Optional[str]) -> Tuple[int, Any]:
        return 202, self.service.submit_fit(self._read_json_body())

    def _handle_fit_status(self, job_id: str) -> Tuple[int, Any]:
        return 200, self.service.job_status(job_id)

    def _handle_cancel_fit(self, job_id: str) -> Tuple[int, Any]:
        return 202, self.service.cancel_job(job_id)

    def _handle_list_models(self, _: Optional[str]) -> Tuple[int, Any]:
        return 200, {"models": self.service.list_models()}

    def _handle_model_info(self, model_id: str) -> Tuple[int, Any]:
        return 200, self.service.model_info(model_id)

    def _handle_sample_model(self, model_id: str) -> Tuple[int, Any]:
        body = self._read_json_body()
        if not isinstance(body, dict):
            raise ServiceError(400, "sample body must be a JSON object")
        return 200, self.service.sample(
            model_id, n=body.get("n"), seed=body.get("seed")
        )

    def _handle_budget(self, _: Optional[str]) -> Tuple[int, Any]:
        return 200, self.service.budget_overview()

    def _handle_observatory(self, _: Optional[str]) -> Tuple[int, Any]:
        return 200, self.service.observatory_snapshot()


class _ReusePortHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server whose listening socket sets SO_REUSEPORT.

    With SO_REUSEPORT, N sibling processes each bind their *own*
    listening socket to the same address and the kernel load-balances
    incoming connections across them — the pre-fork scale-out model
    (:mod:`repro.service.prefork`).  The option must be set before
    ``bind``, hence the override rather than a post-hoc setsockopt.
    """

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def build_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    *,
    reuse_port: bool = False,
    listen_socket: Optional[socket.socket] = None,
    worker_label: Optional[str] = None,
) -> ThreadingHTTPServer:
    """A ready-to-run threaded HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (useful for tests); read the
    actual port from ``server.server_address[1]``.  The caller owns the
    lifecycle: ``serve_forever()`` to run, then ``shutdown()`` /
    ``server_close()`` and ``service.close()`` to stop.

    Each connection inherits the config's ``request_timeout_seconds``
    as its socket timeout: a client that opens a connection and stalls
    mid-request is disconnected instead of holding a handler thread
    (and its memory) hostage indefinitely.

    Pre-fork options (see :mod:`repro.service.prefork`):

    ``reuse_port``
        Bind with ``SO_REUSEPORT`` so sibling worker processes can bind
        the same address and share incoming connections kernel-side.
    ``listen_socket``
        Adopt an already-bound, already-listening socket (the
        no-SO_REUSEPORT fallback: the parent binds once and every
        forked worker accepts from the inherited socket).  Mutually
        exclusive with ``reuse_port``; ``host``/``port`` are ignored.
    ``worker_label``
        Echoed on every response as ``X-DPCopula-Worker``.
    """
    if reuse_port and listen_socket is not None:
        raise ValueError("pass either reuse_port or listen_socket, not both")
    handler = type(
        "BoundSynthesisRequestHandler",
        (SynthesisRequestHandler,),
        {
            "service": service,
            "quiet": quiet,
            "timeout": service.config.request_timeout_seconds,
            "worker_label": worker_label,
        },
    )
    if listen_socket is not None:
        server = ThreadingHTTPServer(
            listen_socket.getsockname()[:2], handler, bind_and_activate=False
        )
        server.socket.close()
        server.socket = listen_socket
        server.server_address = listen_socket.getsockname()[:2]
        bound_host, bound_port = server.server_address[:2]
        server.server_name = socket.getfqdn(bound_host)
        server.server_port = bound_port
    elif reuse_port:
        server = _ReusePortHTTPServer((host, port), handler)
    else:
        server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
