"""Pre-fork multi-process serving: N workers, one port, one data directory.

A single :class:`~http.server.ThreadingHTTPServer` process caps sample
throughput at one GIL no matter how fast the engine gets.  This module
breaks that cap the classic Unix way: ``dpcopula serve --workers N``
runs a small supervisor that forks N worker processes, each running the
full service stack (handler + :class:`~repro.engine.engine.SamplingEngine`)
against the *same* data directory.

Socket sharing
--------------
Every worker binds its own listening socket to the same address with
``SO_REUSEPORT`` — the kernel load-balances incoming connections across
the workers with no userspace accept lock.  The supervisor first binds
a non-listening *holder* socket to fix the port (essential for
``--port 0`` in tests) and keeps it open for the fleet's lifetime;
bound-but-not-listening sockets receive no connections, so the holder
only reserves the address.  Linux, macOS and the BSDs define
``SO_REUSEPORT``; elsewhere a fleet is refused and ``--workers 1``
serves from one process.

Division of labor
-----------------
Worker 0 is the **fit owner** (see ``ServiceConfig.is_fit_owner``): it
runs the fit pool, startup job recovery and the journal poller that
adopts follower submissions.  All workers serve reads and sampling,
each from the sampler plans its own registry compiled.  Cross-process
coherence rides on durable state: flocked ledger, journal and dataset
writes, and registered models that never change, so every worker
compiles the same plan for a model id.

Supervision
-----------
The supervisor watches worker processes and respawns crashed ones with
a capped exponential backoff (a worker that lived a while resets its
backoff).  ``SIGTERM`` to the supervisor fans out to every worker; each
worker stops accepting, finishes its in-flight requests and exits —
queued fit jobs stay journaled for the next start.  A worker whose
supervisor died without that fan-out (``SIGKILL``) notices that it was
re-parented and drains the same way, so no orphaned fit owner keeps
running fits beside a restarted fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
import warnings
from dataclasses import replace
from typing import Dict, Optional

from repro.parallel import _available_cpus
from repro.service.config import ServiceConfig
from repro.telemetry import get_logger
from repro.telemetry.aggregate import prune_worker_snapshot

__all__ = ["PreforkServer", "SUPPORTS_REUSE_PORT", "resolve_worker_count"]

_logger = get_logger("service.prefork")

#: Whether this platform can bind N listening sockets to one port.
SUPPORTS_REUSE_PORT = hasattr(socket, "SO_REUSEPORT")

#: A worker that survives this long gets its respawn backoff reset.
_STABLE_SECONDS = 5.0


def resolve_worker_count(value: int) -> int:
    """Validate a pre-fork worker count and return it.

    Counts below 1 are rejected, and so is a fleet (more than one
    worker) where the platform lacks ``SO_REUSEPORT``.  Counts above
    the CPUs in this process's affinity mask — the count the service's
    fit context sizes itself by — draw a warning: extra workers cost
    memory without adding throughput.
    """
    value = int(value)
    if value < 1:
        raise ValueError(f"--workers must be >= 1, got {value}")
    if value > 1 and not SUPPORTS_REUSE_PORT:
        raise ValueError(
            f"--workers {value} needs SO_REUSEPORT, which this platform "
            "lacks; serve from one process with --workers 1"
        )
    cpus = _available_cpus()
    if value > cpus:
        warnings.warn(
            f"--workers={value} exceeds the {cpus} CPU(s) this process may "
            "use; extra workers add memory overhead without sampling throughput",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def _worker_main(
    config: ServiceConfig,
    host: str,
    port: int,
    worker_index: int,
    quiet: bool,
    ready_queue,
    supervisor_pid: int,
) -> None:
    """Entry point of one forked worker process.

    Builds its own service + server, announces readiness, and serves
    until SIGTERM, or until its parent is no longer ``supervisor_pid``.
    Either drains: stop accepting, finish in-flight requests, close the
    service (queued fits stay journaled).
    """
    # Imported here, not at module top: the supervisor process should
    # stay lean and never construct service state of its own.
    from repro.service.app import SynthesisService
    from repro.service.http import build_server

    service = SynthesisService(config)
    server = build_server(
        service,
        host=host,
        port=port,
        quiet=quiet,
        reuse_port=True,
        worker_label=str(worker_index),
    )

    def _drain(signum=None, frame=None):
        threading.Thread(target=server.shutdown, daemon=True).start()

    def _drain_if_orphaned():
        # serve_forever calls this after every poll and request.  A
        # SIGKILLed supervisor sends no SIGTERM, but its workers are
        # re-parented.  A second drain before the loop exits is
        # harmless: shutdown() only sets a flag and waits.
        if os.getppid() != supervisor_pid:
            _drain()

    server.service_actions = _drain_if_orphaned
    signal.signal(signal.SIGTERM, _drain)
    # The supervisor coordinates interactive shutdown; a Ctrl-C hits
    # the whole process group, so workers defer to the SIGTERM fan-out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ready_queue.put((worker_index, os.getpid()))
    _logger.info(
        "worker serving",
        extra={"worker": worker_index, "pid": os.getpid(), "port": port},
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()


class PreforkServer:
    """Supervisor for a fleet of pre-fork HTTP worker processes.

    Parameters
    ----------
    config:
        The fleet-wide :class:`ServiceConfig`; ``config.workers`` is the
        fleet size (checked by :func:`resolve_worker_count`, which
        raises ``ValueError``) and each worker gets ``worker_index``
        stamped in.
    host, port:
        Bind address.  ``port=0`` resolves an ephemeral port once (via
        the holder socket) that every worker then shares.
    quiet:
        Suppress per-request logging in workers.
    respawn:
        Whether the watch loop restarts crashed workers.
    """

    def __init__(
        self,
        config: ServiceConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        respawn: bool = True,
        max_respawn_delay: float = 2.0,
    ):
        resolve_worker_count(config.workers)
        self.config = config
        self.host = host
        self.requested_port = port
        self.quiet = quiet
        self.respawn = respawn
        self.max_respawn_delay = float(max_respawn_delay)
        self.port: Optional[int] = None
        self.restarts: Dict[int, int] = {}
        self._ctx = multiprocessing.get_context("fork")
        self._ready_queue = self._ctx.Queue()
        self._ready_indexes: set = set()
        self._processes: Dict[int, multiprocessing.Process] = {}
        self._spawned_at: Dict[int, float] = {}
        self._backoff: Dict[int, float] = {}
        self._holder: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._stopped = False

    # -- lifecycle --------------------------------------------------------

    def start(self, timeout: float = 60.0) -> "PreforkServer":
        """Bind the port, fork every worker, wait until all are serving."""
        if self._holder is not None:
            raise RuntimeError("PreforkServer already started")
        self._holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._holder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        # Never listened: the holder only pins the (possibly ephemeral)
        # port so workers can bind it by number.
        self._holder.bind((self.host, self.requested_port))
        self.port = self._holder.getsockname()[1]
        for index in range(self.config.workers):
            self._spawn(index)
        self.wait_ready(timeout=timeout)
        return self

    def _spawn(self, index: int) -> None:
        self._ready_indexes.discard(index)
        # Drop any metrics snapshot left by a previous process at this
        # index (a crashed worker, or a prior deployment over the same
        # data dir): `GET /metrics` aggregation must never mix a dead
        # process's last flush with the new process's counters under
        # the same worker label.
        prune_worker_snapshot(self.config.metrics_dir, index)
        config = replace(self.config, worker_index=index)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                config,
                self.host,
                self.port,
                index,
                self.quiet,
                self._ready_queue,
                os.getpid(),
            ),
            name=f"dpcopula-worker-{index}",
        )
        process.start()
        self._processes[index] = process
        self._spawned_at[index] = time.monotonic()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every currently-spawned worker announced itself.

        Readiness is remembered per index across calls, so waiting
        after a respawn only waits for the respawned worker(s).
        """
        import queue as queue_module

        deadline = time.monotonic() + timeout
        while True:
            pending = set(self._processes) - self._ready_indexes
            if not pending:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"workers {sorted(pending)} not ready within {timeout}s"
                )
            try:
                index, _pid = self._ready_queue.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                for index in sorted(pending):
                    process = self._processes.get(index)
                    if process is not None and not process.is_alive():
                        raise RuntimeError(
                            f"worker {index} died during startup "
                            f"(exit code {process.exitcode})"
                        )
                continue
            self._ready_indexes.add(index)

    def alive_workers(self) -> Dict[int, int]:
        """Index → pid of every live worker process."""
        return {
            index: process.pid
            for index, process in self._processes.items()
            if process.is_alive()
        }

    # -- supervision ------------------------------------------------------

    def reap_and_respawn(self) -> int:
        """One supervision pass; returns how many workers were respawned.

        A crashed worker (any unexpected exit) is restarted with a
        capped exponential backoff; a worker that had been serving for
        a while restarts immediately (its backoff resets).  Shared
        durable state — the registered models, the ledger, the job
        journal — lives in the data directory, so a respawned worker
        serves the same models and budgets, not a reset.
        """
        respawned = 0
        for index, process in list(self._processes.items()):
            if process.is_alive():
                continue
            process.join()
            if self._stopping.is_set() or not self.respawn:
                continue
            lifetime = time.monotonic() - self._spawned_at.get(index, 0.0)
            if lifetime >= _STABLE_SECONDS:
                self._backoff[index] = 0.0
            delay = self._backoff.get(index, 0.0)
            _logger.warning(
                "worker died; respawning",
                extra={
                    "worker": index,
                    "exitcode": process.exitcode,
                    "backoff": delay,
                },
            )
            if delay > 0:
                if self._stopping.wait(delay):
                    continue
            self._backoff[index] = min(
                max(delay * 2.0, 0.1), self.max_respawn_delay
            )
            self._spawn(index)
            self.restarts[index] = self.restarts.get(index, 0) + 1
            respawned += 1
        return respawned

    def watch(self, poll: float = 0.2) -> None:
        """Supervise until :meth:`request_stop`: respawn crashed workers."""
        while not self._stopping.is_set():
            self.reap_and_respawn()
            self._stopping.wait(poll)

    # -- shutdown ---------------------------------------------------------

    def request_stop(self) -> None:
        """SIGTERM fan-out: each worker drains in-flight work and exits."""
        self._stopping.set()
        for process in self._processes.values():
            if process.is_alive() and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (ProcessLookupError, PermissionError):
                    pass

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join every worker, then release the port (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.request_stop()
        deadline = time.monotonic() + timeout
        for process in self._processes.values():
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self._processes.values():
            if process.is_alive():  # pragma: no cover - drain overrun
                _logger.warning(
                    "worker did not drain in time; killing",
                    extra={"pid": process.pid},
                )
                process.terminate()
                process.join(2.0)
        if self._holder is not None:
            self._holder.close()
            self._holder = None
        self._ready_queue.close()
        self._ready_queue.join_thread()
