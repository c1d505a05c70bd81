"""Span reduction: self times, joins, and the per-layer metric names."""

import json
from pathlib import Path

import pytest

from reduce import (
    SPANS,
    client_gaps_ms,
    covered_length,
    layer_metrics,
    queue_waits_ms,
    self_times,
    tail,
)

ROOT = Path(__file__).resolve().parents[2]


def span(id, parent, start, end, name="x", key=None, **attrs):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end, "key": key, **attrs}


def test_self_time_subtracts_nested_children_once():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 5.0), span(3, 2, 3.0, 4.0)]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 8.0, 12.0), span(3, 1, -1.0, 1.0)]
    assert self_times(spans)[1] == pytest.approx(7.0)


def test_covered_length_merges_touching_and_skips_empty_intervals():
    assert covered_length([(0, 1), (1, 2), (5, 5), (4, 6)]) == 4


def test_client_gap_joins_on_request_id():
    spans = [
        span(1, None, 0.0, 0.002, name="http.handler", key="w-0-0"),
        span(2, None, 1.0, 1.001, name="http.handler", key="w-1-0"),
        span(3, 1, 0.0, 0.001, name="app.sample", key="w-0-0"),
    ]
    requests = [("w-0-0", 0.045), ("w-1-0", 0.011), ("other-0-0", 0.5)]
    assert client_gaps_ms(spans, requests) == pytest.approx([43.0, 10.0])


def test_queue_wait_joins_submit_to_fit_on_job_id():
    spans = [
        span(1, None, 0.0, 0.5, name="app.submit_fit", key="w-0-0", job_id="job-a"),
        span(2, None, 0.9, 2.0, name="core.fit", key="job-a"),
        span(3, None, 3.0, 3.1, name="app.submit_fit", key="w-0-9", job_id="job-b"),
        span(4, None, 4.0, 5.0, name="core.fit", key="job-c"),
    ]
    assert queue_waits_ms(spans) == pytest.approx([400.0])


def test_tail_is_the_highest_percentile_with_ten_values_beyond():
    assert tail(list(range(1000))) == pytest.approx(989.01)  # p99
    assert tail(list(range(200))) == pytest.approx(189.05)  # p95
    assert tail(list(range(40))) == pytest.approx(29.25)  # p75
    assert tail([1.0, 5.0, 2.0]) == 5.0  # max


def test_layer_metrics_cover_every_per_layer_name_in_benchmark_json():
    spans = [
        span(1, None, 0.0, 0.010, name="http.handler", key="w-0-0"),
        span(2, 1, 0.001, 0.009, name="registry.get_plan", key="w-0-0"),
        span(3, 2, 0.002, 0.008, name="registry.compile_plan", key="w-0-0"),
        span(4, 1, 0.009, 0.0095, name="http.json_dumps", key="w-0-0", bytes=120),
        span(5, None, 1.0, 1.1, name="plan.sample_batch", key="w-0-0", requests=3),
        span(6, None, 2.0, 2.1, name="plan.sample_batch", key="w-0-1", requests=1),
    ]
    metrics = layer_metrics(spans, wall_seconds=10.0, requests=[("w-0-0", 0.050)])
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(metrics) == sorted(declared)
    assert len(declared) == 4 * len(SPANS) + 9
    assert metrics["http.handler.self_p50_ms"] == pytest.approx(1.5)
    assert metrics["http.handler.share"] == pytest.approx(0.00015)
    assert metrics["http.client_gap.p50_ms"] == pytest.approx(40.0)
    assert metrics["registry.plan_hit_ratio"] == 0.0
    assert metrics["coalesce.requests_per_batch"] == 2.0
    assert metrics["coalesce.batched_share"] == 0.75
    assert metrics["mle.dp_correlation.count"] == 0
