#!/usr/bin/env python3
"""Per-layer self times from the spans ``traced_serve.py`` records.

A span is one call into a layer: ``{"id", "parent", "name", "start",
"end", "key", ...attrs}`` with times in seconds from one monotonic clock.
A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans, so time spent in the layers below
is charged to them and not counted twice.

``key`` joins spans to the client's requests and jobs: the
``X-Request-Id`` the client sent (``<workload>-<client>-<i>``), or the
fit's ``job_id`` for spans on the fit worker.

As a script it reports tracing overhead from result files::

    python3 benchmarks/e2e/reduce.py overhead UNTRACED_DIR TRACED_DIR

which prints, per workload and end-to-end metric, the traced median
minus the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Every span name ``traced_serve.py`` records, in report order.  Each
#: gets ``.count``, ``.self_p50_ms``, ``.self_tail_ms`` and ``.share``.
SPANS = (
    "http.handler",
    "http.json_dumps",
    "app.sample",
    "app.submit_fit",
    "app.job_status",
    "serializers.dataset_to_rows",
    "registry.record",
    "registry.get_plan",
    "registry.compile_plan",
    "registry.put",
    "engine.sample",
    "coalesce.sample",
    "plan.sample_batch",
    "plan.ndtr",
    "sampling.inverter",
    "datasets.put",
    "datasets.get",
    "accountant.charge",
    "jobs.checkpoint_save",
    "core.fit",
    "margins.fit",
    "kendall.dp_correlation",
    "kendall.tau_matrix",
    "kendall.psd_repair",
    "mle.dp_correlation",
    "io.from_synthesizer",
)

#: Percentiles tried for a tail, highest first.
_TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten values beyond it.

    Tried in the order p99, p95, p90, p75, p50; with fewer than twenty
    values no percentile qualifies and the maximum is returned.
    """
    for q in _TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100.0 >= 10:
            return percentile(values, q)
    return max(values)


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that
    outlives its parent (or overlaps a sibling) is never subtracted
    twice and a self time is never negative.
    """
    children: Dict[int, List[Mapping]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = covered_length(
            (max(child["start"], start), min(child["end"], end))
            for child in children[span["id"]]
        )
        out[span["id"]] = (end - start) - covered
    return out


def client_gaps_ms(
    spans: Sequence[Mapping], requests: Iterable[Tuple[str, float]]
) -> List[float]:
    """Client latency minus the server's handler span, per joined request.

    ``requests`` are ``(request_id, latency_seconds)`` as the client
    measured them; the handler span carries the same id as its key.
    The gap is time outside ``do_POST``/``do_GET``: connection and TCP
    wait, request parsing before dispatch, and the client's own work.
    """
    handlers = {s["key"]: s for s in spans if s["name"] == "http.handler"}
    gaps = []
    for request_id, latency in requests:
        span = handlers.get(request_id)
        if span is not None:
            gaps.append((latency - (span["end"] - span["start"])) * 1e3)
    return gaps


def queue_waits_ms(spans: Sequence[Mapping]) -> List[float]:
    """End of ``app.submit_fit`` -> start of that job's ``core.fit``.

    The submit span names the job it created (``job_id`` attribute);
    the fit runs on the worker with the job id as its key.
    """
    submitted = {
        s["job_id"]: s["end"]
        for s in spans
        if s["name"] == "app.submit_fit" and s.get("job_id")
    }
    return [
        (s["start"] - submitted[s["key"]]) * 1e3
        for s in spans
        if s["name"] == "core.fit" and s["key"] in submitted
    ]


def layer_metrics(
    spans: Sequence[Mapping],
    wall_seconds: float,
    requests: Iterable[Tuple[str, float]],
) -> Dict[str, float]:
    """Every per-layer metric, by the names ``BENCHMARK.json`` lists.

    ``wall_seconds`` is the traced server's lifetime; ``.share`` is a
    layer's total self time over it.  A layer that never ran reports a
    count and times of zero.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Mapping]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    out: Dict[str, float] = {}
    for name in SPANS:
        values = [selfs[s["id"]] * 1e3 for s in by_name[name]]
        out[f"{name}.count"] = len(values)
        out[f"{name}.self_p50_ms"] = statistics.median(values) if values else 0.0
        out[f"{name}.self_tail_ms"] = tail(values) if values else 0.0
        out[f"{name}.share"] = sum(values) / 1e3 / wall_seconds

    gaps = client_gaps_ms(spans, requests)
    out["http.client_gap.p50_ms"] = statistics.median(gaps) if gaps else 0.0
    out["http.client_gap.tail_ms"] = tail(gaps) if gaps else 0.0
    sizes = [s["bytes"] for s in by_name["http.json_dumps"]]
    out["http.response_bytes.p50"] = statistics.median(sizes) if sizes else 0.0

    # A compile under get_plan is a plan-cache miss; compiles under
    # registry.put are the plan being built at release time.
    lookup_ids = {s["id"] for s in by_name["registry.get_plan"]}
    misses = sum(1 for s in by_name["registry.compile_plan"] if s["parent"] in lookup_ids)
    lookups = len(lookup_ids)
    out["registry.plan_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0

    batches = [s["requests"] for s in by_name["plan.sample_batch"]]
    served = sum(batches)
    out["coalesce.requests_per_batch"] = served / len(batches) if batches else 0.0
    out["coalesce.batched_share"] = (
        sum(b for b in batches if b > 1) / served if served else 0.0
    )

    waits = queue_waits_ms(spans)
    out["jobs.queue_wait.p50_ms"] = statistics.median(waits) if waits else 0.0
    out["jobs.queue_wait.tail_ms"] = tail(waits) if waits else 0.0
    fits = len(by_name["core.fit"])
    out["jobs.polls_per_fit"] = len(by_name["app.job_status"]) / fits if fits else 0.0
    return out


def load_spans(path: Path) -> Tuple[Dict, List[Dict]]:
    """``(meta, spans)`` from a ``spans.jsonl`` file (meta is line one)."""
    with Path(path).open() as handle:
        meta = json.loads(handle.readline())
        return meta, [json.loads(line) for line in handle if line.strip()]


def _medians(directory: Path, trace: int) -> Dict[str, Dict[str, float]]:
    """workload -> metric -> median end-to-end value over result files."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result["trace"] != trace:
            continue
        for name, value in result["end_to_end"].items():
            values[result["workload"]][name].append(value)
    return {
        workload: {name: statistics.median(v) for name, v in metrics.items()}
        for workload, metrics in values.items()
    }


def overhead_table(untraced_dir: Path, traced_dir: Path) -> List[str]:
    """Rows of traced-minus-untraced end-to-end medians per workload."""
    untraced = _medians(untraced_dir, trace=0)
    traced = _medians(traced_dir, trace=1)
    rows = [f"{'workload':<14} {'metric':<22} {'untraced':>12} {'traced':>12} {'overhead':>12} {'share':>8}"]
    for workload in sorted(traced):
        for name, value in traced[workload].items():
            base = untraced.get(workload, {}).get(name)
            if base is None:
                continue
            delta = value - base
            rows.append(
                f"{workload:<14} {name:<22} {base:>12.4f} {value:>12.4f} "
                f"{delta:>+12.4f} {delta / base:>+8.1%}"
            )
    return rows


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    overhead = commands.add_parser(
        "overhead", help="traced minus untraced end-to-end medians"
    )
    overhead.add_argument("untraced", type=Path, help="directory of untraced result files")
    overhead.add_argument("traced", type=Path, help="directory of traced result files")
    args = parser.parse_args(argv)
    print("\n".join(overhead_table(args.untraced, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
