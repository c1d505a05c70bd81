"""Cross-worker metrics aggregation for pre-fork deployments.

A pre-fork fleet (:mod:`repro.service.prefork`) runs one metrics
registry *per process*, but an operator scrapes ``GET /metrics`` through
one connection that the kernel routes to an arbitrary worker.  This
module makes that scrape see the whole fleet:

* :class:`MetricsFlusher` — a daemon thread in every worker that
  periodically snapshots the process's :class:`~repro.telemetry.metrics.
  MetricsRegistry` into ``<data_dir>/metrics/worker-<index>.json``
  (atomic replace, so a scrape never reads a torn file);
* :func:`read_worker_snapshots` — collects every worker's latest file;
* :func:`aggregate_snapshot` — merges the per-worker snapshots into one
  document, tagging every series with a ``worker`` label so per-process
  series stay distinguishable (Prometheus sums across the label where a
  total is wanted); :func:`repro.telemetry.metrics.render_prometheus`
  renders it as text.

The files are snapshots, not streams: a worker that died keeps its last
file only until the supervisor respawns that index — the spawn path
prunes the dead process's file (:func:`prune_worker_snapshot`) before
the replacement starts, so a scrape never mixes a stale snapshot's
counters with the fresh process's restarted ones under the same worker
label.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.telemetry import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.utils import atomic_write_bytes

__all__ = [
    "MetricsFlusher",
    "aggregate_snapshot",
    "prune_worker_snapshot",
    "read_worker_snapshots",
    "worker_snapshot_path",
]

_logger = get_logger("telemetry.aggregate")


def worker_snapshot_path(metrics_dir, worker_index: int) -> Path:
    """Where worker ``worker_index`` publishes its metrics snapshot."""
    return Path(metrics_dir) / f"worker-{int(worker_index)}.json"


def write_snapshot(
    registry: MetricsRegistry, metrics_dir, worker_index: int
) -> Path:
    """Atomically persist ``registry``'s snapshot for this worker."""
    metrics_dir = Path(metrics_dir)
    metrics_dir.mkdir(parents=True, exist_ok=True)
    path = worker_snapshot_path(metrics_dir, worker_index)
    document = {
        "worker": int(worker_index),
        "pid": os.getpid(),
        "written_at": time.time(),
        "metrics": registry.snapshot(),
    }
    atomic_write_bytes(path, json.dumps(document, sort_keys=True).encode("utf-8"))
    return path


def prune_worker_snapshot(metrics_dir, worker_index: int) -> bool:
    """Remove a dead worker's snapshot file; returns whether one existed.

    Called by the pre-fork supervisor immediately before (re)spawning a
    worker index: the outgoing process's last flush must not be
    aggregated alongside — or instead of — the new process's counters.
    Best-effort: a racing unlink or missing file is not an error.
    """
    path = worker_snapshot_path(metrics_dir, worker_index)
    try:
        path.unlink()
        return True
    except OSError:
        return False


def read_worker_snapshots(metrics_dir) -> Dict[int, Dict[str, Any]]:
    """Every worker's latest snapshot document, keyed by worker index.

    Unreadable or torn files are skipped (the writer replaces
    atomically, so these only appear for foreign files).
    """
    metrics_dir = Path(metrics_dir)
    snapshots: Dict[int, Dict[str, Any]] = {}
    if not metrics_dir.exists():
        return snapshots
    for path in sorted(metrics_dir.glob("worker-*.json")):
        try:
            index = int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        try:
            snapshots[index] = json.loads(path.read_text())
        except (OSError, ValueError):
            _logger.warning(
                "skipping unreadable metrics snapshot", extra={"path": str(path)}
            )
    return snapshots


class MetricsFlusher:
    """Background thread publishing this worker's metrics snapshot.

    Flushes every ``interval`` seconds and once more on :meth:`stop`,
    so the file a sibling aggregates is at most one interval stale —
    and final counts survive a graceful drain.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        metrics_dir,
        worker_index: int,
        interval: float = 1.0,
    ):
        self.registry = registry
        self.metrics_dir = Path(metrics_dir)
        self.worker_index = int(worker_index)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsFlusher":
        self.flush()
        self._thread = threading.Thread(
            target=self._run,
            name=f"dpcopula-metrics-flusher-{self.worker_index}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def flush(self) -> None:
        """Write the snapshot now (best-effort; never raises)."""
        try:
            write_snapshot(self.registry, self.metrics_dir, self.worker_index)
        except OSError:
            _logger.exception(
                "metrics snapshot flush failed",
                extra={"worker": self.worker_index},
            )

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.flush()


# -- aggregation -----------------------------------------------------------


def aggregate_snapshot(snapshots: Dict[int, Dict[str, Any]]) -> Dict[str, Any]:
    """One JSON document merging every worker's metrics snapshot.

    Per-metric series keep their labels plus an injected ``worker``
    label, so nothing is summed away — consumers aggregate exactly the
    series they care about.
    """
    merged: Dict[str, Any] = {}
    for index in sorted(snapshots):
        metrics_doc = snapshots[index].get("metrics", {})
        for name, instrument in sorted(metrics_doc.items()):
            slot = merged.setdefault(
                name,
                {
                    "type": instrument.get("type", "untyped"),
                    "help": instrument.get("help", ""),
                    "series": [],
                },
            )
            for series in instrument.get("series", []):
                tagged = dict(series)
                tagged["labels"] = {
                    **series.get("labels", {}),
                    "worker": str(index),
                }
                slot["series"].append(tagged)
    return merged
