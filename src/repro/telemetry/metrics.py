"""Dependency-free metrics: counters, gauges, and bucketed histograms.

A long-running synthesis service needs numbers, not prose: how many fits
ran, how long each stage took, how deep the job queue is, how much ε a
dataset has left.  This module provides the three classic instrument
types behind those questions with zero dependencies beyond the stdlib:

* :class:`Counter` — a monotonically increasing total (``fit_errors_total``);
* :class:`Gauge` — a value that can go up and down (``fit_queue_depth``);
* :class:`Histogram` — bucketed observations with sum and count
  (``fit_seconds``), cumulative-bucket semantics exactly as Prometheus
  expects.

Every instrument lives in a :class:`MetricsRegistry` keyed by name, is
label-aware (one time series per distinct label set), and is safe for
concurrent use from many threads — each instrument guards its series
table with its own lock, so hot-path increments never contend on a
registry-wide lock.

The registry exports two wire formats:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready nested dict;
* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4) of such a document, served by the service's
  ``GET /metrics`` endpoint.  It renders one process's snapshot or a
  pre-fork fleet's merged one
  (:func:`repro.telemetry.aggregate.aggregate_snapshot`) alike.

The module-level :data:`REGISTRY` is the process-wide default every
instrumented module records into; tests construct private registries.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_FANOUT_BUCKETS",
    "render_prometheus",
]

#: Wall-clock buckets (seconds) spanning sub-millisecond sampling calls
#: up to multi-minute fits.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Task-count buckets for fan-out histograms (powers of two up to the
#: parallel layer's per-call item cap).
DEFAULT_FANOUT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared machinery: a named, labeled family of time series."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, Any] = {}

    def clear(self) -> None:
        """Drop every recorded series (instrument stays registered)."""
        with self._lock:
            self._series.clear()


class Counter(_Instrument):
    """A monotonically increasing total, optionally labeled."""

    metric_type = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {value})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def snapshot_series(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._series.items())
        return [{"labels": dict(key), "value": value} for key, value in items]


class Gauge(_Instrument):
    """A point-in-time value that can move in both directions."""

    metric_type = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.inc(-value, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    snapshot_series = Counter.snapshot_series


class Histogram(_Instrument):
    """Bucketed observations with Prometheus cumulative-bucket semantics."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b != b for b in bounds):  # NaN
            raise ValueError(f"histogram {name} buckets must be finite")
        # The implicit +Inf bucket is stored as the last slot.
        self.bounds: Tuple[float, ...] = tuple(bounds)

    def observe(
        self, value: float, exemplar: Optional[str] = None, **labels: Any
    ) -> None:
        value = float(value)
        key = _label_key(labels)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "buckets": [0] * (len(self.bounds) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            series["buckets"][index] += 1
            series["sum"] += value
            series["count"] += 1
            if exemplar is not None:
                # Keep the most recent exemplar per bucket: a trace or
                # request id an operator can join to the exported trace
                # for a representative observation in that latency band.
                series.setdefault("exemplars", {})[index] = {
                    "trace_id": str(exemplar),
                    "value": value,
                }

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return int(series["count"]) if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return float(series["sum"]) if series else 0.0

    def snapshot_series(self) -> List[Dict[str, Any]]:
        with self._lock:
            bounds = self.bounds
            items = [
                (
                    key,
                    list(series["buckets"]),
                    series["sum"],
                    series["count"],
                    {k: dict(v) for k, v in series.get("exemplars", {}).items()},
                )
                for key, series in sorted(self._series.items())
            ]
        out = []
        for key, buckets, total, count, exemplars in items:
            cumulative: Dict[str, int] = {}
            running = 0
            for bound, in_bucket in zip(bounds, buckets):
                running += in_bucket
                cumulative[_format_value(bound)] = running
            cumulative["+Inf"] = running + buckets[-1]
            doc = {
                "labels": dict(key),
                "buckets": cumulative,
                "sum": total,
                "count": count,
            }
            if exemplars:
                # JSON-snapshot only: the 0.0.4 text format predates
                # exemplars and classic parsers would reject them.
                labels_for = [_format_value(b) for b in bounds] + ["+Inf"]
                doc["exemplars"] = {
                    labels_for[index]: payload
                    for index, payload in sorted(exemplars.items())
                    if index < len(labels_for)
                }
            out.append(doc)
        return out


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    Registration is idempotent: asking twice for the same (name, type)
    returns the same instrument object, so any module can declare the
    instruments it records into without coordinating a central list.
    Re-registering a name as a *different* type is a programming error
    and raises immediately.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type}, cannot re-register as "
                        f"{cls.metric_type}"
                    )
                return existing
            instrument = cls(name, help=help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Clear every instrument's recorded series (instruments remain)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready document of every instrument and its series."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {
            name: {
                "type": instrument.metric_type,
                "help": instrument.help,
                "series": instrument.snapshot_series(),
            }
            for name, instrument in instruments
        }


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """The Prometheus text exposition format (0.0.4) of a snapshot document.

    ``snapshot`` has :meth:`MetricsRegistry.snapshot`'s shape.  Series
    are written in the document's order and each histogram's buckets in
    ascending ``le``, ``+Inf`` last, as the format requires: a snapshot
    that went through ``json.dumps(sort_keys=True)`` holds them in
    string order.  Exemplars stay JSON-only: the 0.0.4 format predates
    them.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        instrument = snapshot[name]
        if instrument["help"]:
            escaped = instrument["help"].replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {escaped}")
        lines.append(f"# TYPE {name} {instrument['type']}")
        for series in instrument["series"]:
            key = _label_key(series["labels"])
            labels = _format_labels(key)
            if instrument["type"] == "histogram":
                buckets = sorted(
                    series["buckets"].items(), key=lambda item: float(item[0])
                )
                for bound, cumulative in buckets:
                    le_labels = _format_labels(key, extra=[("le", bound)])
                    lines.append(f"{name}_bucket{le_labels} {cumulative}")
                lines.append(f"{name}_sum{labels} {_format_value(series['sum'])}")
                lines.append(f"{name}_count{labels} {series['count']}")
            else:
                lines.append(f"{name}{labels} {_format_value(series['value'])}")
    return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented module uses.
REGISTRY = MetricsRegistry()
