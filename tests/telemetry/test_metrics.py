"""Unit tests for the dependency-free metrics registry."""

import json
import threading

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("c_total")
        counter.inc(status="done")
        counter.inc(status="done")
        counter.inc(status="failed")
        assert counter.value(status="done") == 2.0
        assert counter.value(status="failed") == 1.0
        assert counter.value(status="missing") == 0.0

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c_total").inc(-1)

    def test_threaded_increments_are_lossless(self):
        counter = Counter("c_total")

        def hammer():
            for _ in range(1000):
                counter.inc(worker="w")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="w") == 8000.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value() == 3.0

    def test_labeled(self):
        gauge = Gauge("g")
        gauge.set(1.5, dataset="a")
        gauge.set(2.5, dataset="b")
        assert gauge.value(dataset="a") == 1.5
        assert gauge.value(dataset="b") == 2.5


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        histogram = Histogram("h_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        (series,) = histogram.snapshot_series()
        # le-semantics: each bound counts observations <= bound.
        assert series["buckets"] == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(56.05)

    def test_boundary_value_lands_in_its_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        (series,) = histogram.snapshot_series()
        assert series["buckets"]["1"] == 1

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())

    def test_rejects_nan_buckets(self):
        with pytest.raises(ValueError, match="must be finite"):
            Histogram("h", buckets=(1.0, float("nan")))

    def test_threaded_observations_are_lossless(self):
        histogram = Histogram("h", buckets=(10.0,))

        def hammer():
            for i in range(500):
                histogram.observe(float(i % 20))

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count() == 3000


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total")
        second = registry.counter("x_total")
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "finished jobs").inc(status="done")
        registry.gauge("depth").set(3)
        registry.histogram("latency", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        # Round-trips through JSON without custom encoders.
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["jobs_total"]["type"] == "counter"
        assert snapshot["jobs_total"]["series"][0]["labels"] == {"status": "done"}
        assert snapshot["depth"]["series"][0]["value"] == 3.0
        assert snapshot["latency"]["series"][0]["count"] == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "finished jobs").inc(2, status="done")
        registry.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = render_prometheus(registry.snapshot())
        assert "# HELP jobs_total finished jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{status="done"} 2' in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.05" in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(path='a"b\\c\nd')
        line = render_prometheus(registry.snapshot()).splitlines()[-1]
        assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'

    def test_reset_clears_series_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        registry.reset()
        assert registry.counter("c_total") is counter
        assert counter.value() == 0.0

    def test_default_registry_has_pipeline_instruments(self):
        # Importing the instrumented modules registers their metrics.
        import repro.parallel  # noqa: F401
        import repro.service.app  # noqa: F401

        for name in (
            "dpcopula_stage_seconds",
            "dpcopula_parallel_tasks_total",
            "dpcopula_fit_seconds",
            "dpcopula_sample_seconds",
        ):
            assert REGISTRY.get(name) is not None, name


class TestExemplars:
    def test_exemplar_lands_in_matching_bucket(self):
        histogram = Histogram("h_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05, exemplar="trace-fast")
        histogram.observe(0.5, exemplar="trace-mid")
        histogram.observe(5.0, exemplar="trace-slow")
        (series,) = histogram.snapshot_series()
        exemplars = series["exemplars"]
        assert exemplars["0.1"]["trace_id"] == "trace-fast"
        assert exemplars["1"]["trace_id"] == "trace-mid"
        assert exemplars["+Inf"]["trace_id"] == "trace-slow"
        assert exemplars["0.1"]["value"] == 0.05

    def test_last_exemplar_per_bucket_wins(self):
        histogram = Histogram("h_seconds", buckets=(1.0,))
        histogram.observe(0.2, exemplar="first")
        histogram.observe(0.3, exemplar="second")
        (series,) = histogram.snapshot_series()
        assert series["exemplars"]["1"]["trace_id"] == "second"

    def test_observation_without_exemplar_keeps_counts_clean(self):
        histogram = Histogram("h_seconds", buckets=(1.0,))
        histogram.observe(0.2)
        (series,) = histogram.snapshot_series()
        assert "exemplars" not in series
        assert series["count"] == 1

    def test_exemplars_never_reach_text_exposition(self):
        # The 0.0.4 text format predates exemplars; classic parsers
        # would reject a line carrying one.
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", "Latency", buckets=(1.0,)
        )
        histogram.observe(0.2, exemplar="trace-1")
        text = render_prometheus(registry.snapshot())
        assert "trace-1" not in text
        assert "exemplar" not in text
        # ...but they are present in the JSON snapshot.
        snapshot = registry.snapshot()
        series = snapshot["h_seconds"]["series"][0]
        assert series["exemplars"]["1"]["trace_id"] == "trace-1"


class TestBucketMonotonicity:
    def test_cumulative_counts_are_monotone_and_end_at_count(self):
        histogram = Histogram("h_seconds", buckets=(0.01, 0.1, 1.0, 10.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        (series,) = histogram.snapshot_series()
        cumulative = list(series["buckets"].values())
        assert cumulative == sorted(cumulative)
        assert list(series["buckets"])[-1] == "+Inf"
        assert cumulative[-1] == series["count"] == 6
