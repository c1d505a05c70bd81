"""Tests for cross-worker metrics snapshots and the /metrics exposition text."""

import json
import math
import re

import pytest

from repro.telemetry.aggregate import (
    aggregate_snapshot,
    prune_worker_snapshot,
    read_worker_snapshots,
    worker_snapshot_path,
    write_snapshot,
)
from repro.telemetry.metrics import MetricsRegistry, render_prometheus

# One histogram bucket line; ``le`` is always the last label.
_BUCKET_LINE = re.compile(r'^(?P<series>\S+_bucket\{.*)le="(?P<le>[^"]+)"\} \S+$')


def assert_buckets_ascend(text):
    """Each histogram series in ``text`` lists its buckets by ascending ``le``."""
    bounds = {}
    for line in text.splitlines():
        match = _BUCKET_LINE.match(line)
        if match:
            bounds.setdefault(match["series"], []).append(float(match["le"]))
    assert bounds, "no histogram buckets in the exposition text"
    for series, les in bounds.items():
        assert les == sorted(set(les)) and les[-1] == math.inf, (series, les)


def _registry_with_traffic(requests=3.0, route="sample"):
    registry = MetricsRegistry()
    counter = registry.counter("dpcopula_http_requests_total", "Requests")
    counter.inc(requests, route=route)
    return registry


def _fleet_text(metrics_dir):
    return render_prometheus(aggregate_snapshot(read_worker_snapshots(metrics_dir)))


class TestSnapshotFiles:
    def test_write_then_read_round_trip(self, tmp_path):
        registry = _registry_with_traffic(5.0)
        path = write_snapshot(registry, tmp_path, 3)
        assert path == worker_snapshot_path(tmp_path, 3)
        snapshots = read_worker_snapshots(tmp_path)
        assert list(snapshots) == [3]
        doc = snapshots[3]
        assert doc["worker"] == 3
        assert doc["pid"] > 0
        series = doc["metrics"]["dpcopula_http_requests_total"]["series"]
        assert series[0]["value"] == 5.0

    def test_torn_and_foreign_files_are_skipped(self, tmp_path):
        write_snapshot(_registry_with_traffic(), tmp_path, 0)
        (tmp_path / "worker-1.json").write_text("{not json")
        (tmp_path / "worker-x.json").write_text("{}")
        snapshots = read_worker_snapshots(tmp_path)
        assert list(snapshots) == [0]

    def test_read_missing_directory_is_empty(self, tmp_path):
        assert read_worker_snapshots(tmp_path / "missing") == {}

    def test_prune_removes_stale_snapshot(self, tmp_path):
        write_snapshot(_registry_with_traffic(), tmp_path, 2)
        assert prune_worker_snapshot(tmp_path, 2) is True
        assert not worker_snapshot_path(tmp_path, 2).exists()
        # Second prune finds nothing: best-effort, not an error.
        assert prune_worker_snapshot(tmp_path, 2) is False


class TestFleetAggregation:
    def test_worker_label_is_injected_per_series(self, tmp_path):
        write_snapshot(_registry_with_traffic(1.0, route="fit"), tmp_path, 0)
        write_snapshot(_registry_with_traffic(2.0, route="fit"), tmp_path, 1)
        merged = aggregate_snapshot(read_worker_snapshots(tmp_path))
        series = merged["dpcopula_http_requests_total"]["series"]
        assert [s["labels"] for s in series] == [
            {"route": "fit", "worker": "0"},
            {"route": "fit", "worker": "1"},
        ]
        assert sorted(s["value"] for s in series) == [1.0, 2.0]

    def test_render_merges_workers_into_one_exposition(self, tmp_path):
        write_snapshot(_registry_with_traffic(1.0), tmp_path, 0)
        write_snapshot(_registry_with_traffic(4.0), tmp_path, 1)
        text = _fleet_text(tmp_path)
        assert "# TYPE dpcopula_http_requests_total counter" in text
        assert (
            'dpcopula_http_requests_total{route="sample",worker="0"} 1' in text
        )
        assert (
            'dpcopula_http_requests_total{route="sample",worker="1"} 4' in text
        )
        assert text.endswith("\n")

    def test_render_escapes_label_values(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("odd_total", "Odd labels").inc(
            1.0, route='quo"te\\slash\nline'
        )
        write_snapshot(registry, tmp_path, 0)
        text = _fleet_text(tmp_path)
        assert 'route="quo\\"te\\\\slash\\nline"' in text

    def test_render_histograms_with_worker_label(self, tmp_path):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "probe_seconds", "Probe latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        write_snapshot(registry, tmp_path, 4)
        text = _fleet_text(tmp_path)
        assert 'probe_seconds_bucket{worker="4",le="0.1"} 1' in text
        assert 'probe_seconds_bucket{worker="4",le="1"} 2' in text
        assert 'probe_seconds_bucket{worker="4",le="+Inf"} 2' in text
        assert 'probe_seconds_count{worker="4"} 2' in text

    def test_snapshot_document_is_stable_json(self, tmp_path):
        write_snapshot(_registry_with_traffic(), tmp_path, 0)
        raw = worker_snapshot_path(tmp_path, 0).read_text()
        assert raw == json.dumps(json.loads(raw), sort_keys=True)


def _pinned_registry(scale):
    """Labels that need escaping, a gauge, exemplars and a bare counter."""
    registry = MetricsRegistry()
    requests = registry.counter(
        "demo_requests_total", "Requests by route,\nwith a back\\slash"
    )
    requests.inc(1 * scale, route="sample")
    requests.inc(2.5 * scale, route='we"ird\\va\nlue')
    depth = registry.gauge("demo_queue_depth", "Jobs waiting")
    depth.set(3 * scale)
    depth.set(-0.25 * scale, pool="fit")
    latency = registry.histogram(
        "demo_latency_seconds", "Request latency", buckets=(0.01, 0.1, 1, 2.5, 10)
    )
    latency.observe(0.005 * scale, exemplar="trace-a", route="sample")
    latency.observe(0.5 * scale, exemplar="trace-b", route="sample")
    latency.observe(20.0, route="fit")
    registry.counter("demo_unhelped_total").inc()
    return registry


_SINGLE_PROCESS_TEXT = (
    '# HELP demo_latency_seconds Request latency\n'
    '# TYPE demo_latency_seconds histogram\n'
    'demo_latency_seconds_bucket{route="fit",le="0.01"} 0\n'
    'demo_latency_seconds_bucket{route="fit",le="0.1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",le="1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",le="2.5"} 0\n'
    'demo_latency_seconds_bucket{route="fit",le="10"} 0\n'
    'demo_latency_seconds_bucket{route="fit",le="+Inf"} 1\n'
    'demo_latency_seconds_sum{route="fit"} 20\n'
    'demo_latency_seconds_count{route="fit"} 1\n'
    'demo_latency_seconds_bucket{route="sample",le="0.01"} 1\n'
    'demo_latency_seconds_bucket{route="sample",le="0.1"} 1\n'
    'demo_latency_seconds_bucket{route="sample",le="1"} 2\n'
    'demo_latency_seconds_bucket{route="sample",le="2.5"} 2\n'
    'demo_latency_seconds_bucket{route="sample",le="10"} 2\n'
    'demo_latency_seconds_bucket{route="sample",le="+Inf"} 2\n'
    'demo_latency_seconds_sum{route="sample"} 0.505\n'
    'demo_latency_seconds_count{route="sample"} 2\n'
    '# HELP demo_queue_depth Jobs waiting\n'
    '# TYPE demo_queue_depth gauge\n'
    'demo_queue_depth 3\n'
    'demo_queue_depth{pool="fit"} -0.25\n'
    '# HELP demo_requests_total Requests by route,\\nwith a back\\\\slash\n'
    '# TYPE demo_requests_total counter\n'
    'demo_requests_total{route="sample"} 1\n'
    'demo_requests_total{route="we\\"ird\\\\va\\nlue"} 2.5\n'
    '# TYPE demo_unhelped_total counter\n'
    'demo_unhelped_total 1\n'
)

# The snapshot files hold each histogram's buckets in string order
# (sort_keys); the renderer puts them back in ascending le.
_TWO_WORKER_TEXT = (
    '# HELP demo_latency_seconds Request latency\n'
    '# TYPE demo_latency_seconds histogram\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="0.01"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="0.1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="2.5"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="10"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="0",le="+Inf"} 1\n'
    'demo_latency_seconds_sum{route="fit",worker="0"} 20\n'
    'demo_latency_seconds_count{route="fit",worker="0"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="0.01"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="0.1"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="1"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="2.5"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="10"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="0",le="+Inf"} 2\n'
    'demo_latency_seconds_sum{route="sample",worker="0"} 0.505\n'
    'demo_latency_seconds_count{route="sample",worker="0"} 2\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="0.01"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="0.1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="1"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="2.5"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="10"} 0\n'
    'demo_latency_seconds_bucket{route="fit",worker="1",le="+Inf"} 1\n'
    'demo_latency_seconds_sum{route="fit",worker="1"} 20\n'
    'demo_latency_seconds_count{route="fit",worker="1"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="0.01"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="0.1"} 1\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="1"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="2.5"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="10"} 2\n'
    'demo_latency_seconds_bucket{route="sample",worker="1",le="+Inf"} 2\n'
    'demo_latency_seconds_sum{route="sample",worker="1"} 1.01\n'
    'demo_latency_seconds_count{route="sample",worker="1"} 2\n'
    '# HELP demo_queue_depth Jobs waiting\n'
    '# TYPE demo_queue_depth gauge\n'
    'demo_queue_depth{worker="0"} 3\n'
    'demo_queue_depth{pool="fit",worker="0"} -0.25\n'
    'demo_queue_depth{worker="1"} 6\n'
    'demo_queue_depth{pool="fit",worker="1"} -0.5\n'
    '# HELP demo_requests_total Requests by route,\\nwith a back\\\\slash\n'
    '# TYPE demo_requests_total counter\n'
    'demo_requests_total{route="sample",worker="0"} 1\n'
    'demo_requests_total{route="we\\"ird\\\\va\\nlue",worker="0"} 2.5\n'
    'demo_requests_total{route="sample",worker="1"} 2\n'
    'demo_requests_total{route="we\\"ird\\\\va\\nlue",worker="1"} 5\n'
    '# TYPE demo_unhelped_total counter\n'
    'demo_unhelped_total{worker="0"} 1\n'
    'demo_unhelped_total{worker="1"} 1\n'
)


class TestExpositionText:
    """``GET /metrics`` text, byte for byte, for one process and a fleet."""

    def test_single_process(self):
        text = render_prometheus(_pinned_registry(1).snapshot())
        assert text == _SINGLE_PROCESS_TEXT

    def test_two_workers(self, tmp_path):
        write_snapshot(_pinned_registry(1), tmp_path, 0)
        write_snapshot(_pinned_registry(2), tmp_path, 1)
        assert _fleet_text(tmp_path) == _TWO_WORKER_TEXT

    @pytest.mark.parametrize("workers", [1, 2], ids=["one-process", "two-workers"])
    def test_buckets_ascend_in_le(self, tmp_path, workers):
        # The default latency buckets: their string order ("+Inf",
        # "0.001", "0.0025", ..., "10", "120", "2.5", ...) is far from
        # their numeric order.
        registry = MetricsRegistry()
        latency = registry.histogram("demo_seconds", "Latency")
        for value in (0.0004, 0.003, 0.7, 45.0, 500.0):
            latency.observe(value, route="sample")
        if workers == 1:
            text = render_prometheus(registry.snapshot())
        else:
            for index in range(workers):
                write_snapshot(registry, tmp_path, index)
            text = _fleet_text(tmp_path)
        assert_buckets_ascend(text)
