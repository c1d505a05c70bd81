"""Benchmark pre-fork scale-out: N SO_REUSEPORT workers on one port.

A single :class:`~http.server.ThreadingHTTPServer` process serves every
request under one GIL, so sample throughput stops scaling no matter how
fast the engine's vectorized passes get.  ``dpcopula serve --workers N``
breaks that cap with pre-fork workers that each bind the same port via
``SO_REUSEPORT`` and sample from the plans their own registries
compiled.  This benchmark measures that trajectory: closed-loop HTTP
clients hammer ``POST /models/<id>/sample`` against fleets of 1, 2 and 4
workers over the *same* model, and every response is checked bit for bit
against a serial ``ReleasedModel.sample`` draw with the same seed — the
scale-out must not cost determinism.

Honest numbers: speedup comes from real CPU parallelism, so the run
records ``cpu_count`` and flags itself ``cpu_limited`` when the fleet is
wider than the machine.  The speedup gate only applies where the cores
exist to back it (single-core CI runners record throughput but skip the
assertion, as CI does).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py            # full
    PYTHONPATH=src python benchmarks/bench_scaleout.py --smoke    # CI-sized

Exit status is non-zero if any response is not bitwise identical to its
serial draw, or (given enough cores) if the widest fleet falls short of
``--min-speedup`` over the single-worker baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from bench_sampling import make_model
from repro.service import ModelRegistry, PreforkServer, ServiceConfig


def _post_sample(port: int, model_id: str, n: int, seed: int):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/models/{model_id}/sample",
        data=json.dumps({"n": n, "seed": seed}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        worker = response.headers.get("X-DPCopula-Worker")
        return json.loads(response.read()), worker


def run_fleet(
    model,
    workers: int,
    requests: int,
    records_per_request: int,
    clients: int,
    serial_by_seed,
):
    """Serve ``requests`` sample calls from a ``workers``-wide fleet.

    Returns (seconds, workers_observed, mismatches): wall-clock for the
    timed closed loop, the set of worker labels that answered, and how
    many responses failed the bitwise gate.
    """
    with tempfile.TemporaryDirectory(prefix="dpc-scaleout-") as tmp:
        config = ServiceConfig(
            data_dir=Path(tmp) / "data",
            epsilon_cap=10.0,
            workers=workers,
        )
        config.ensure_layout()
        model_id = ModelRegistry(config.models_dir).put(
            model, dataset_id="bench", method="kendall"
        ).model_id
        supervisor = PreforkServer(config, port=0, quiet=True)
        supervisor.start(timeout=120)
        try:
            port = supervisor.port
            seeds = sorted(serial_by_seed)
            # Warm every worker's plan cache out of the timed region.
            for _ in range(workers * 4):
                _post_sample(port, model_id, records_per_request, seeds[0])

            counter = {"next": 0}
            counter_lock = threading.Lock()
            workers_observed = set()
            mismatches = [0]

            def client():
                while True:
                    with counter_lock:
                        index = counter["next"]
                        if index >= requests:
                            return
                        counter["next"] = index + 1
                    seed = seeds[index % len(seeds)]
                    body, worker = _post_sample(
                        port, model_id, records_per_request, seed
                    )
                    values = np.asarray(body["records"], dtype=np.int64)
                    with counter_lock:
                        workers_observed.add(worker)
                        if not np.array_equal(values, serial_by_seed[seed]):
                            mismatches[0] += 1

            threads = [threading.Thread(target=client) for _ in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
        finally:
            supervisor.stop()
    return seconds, workers_observed, mismatches[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        help="fleet widths to benchmark (default: 1 2 4; smoke: 1 2)",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--m", type=int, default=8, help="model attributes")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="required speedup of the widest fleet over 1 worker "
        "(default: 2.5, smoke: 1.5); only enforced when the machine "
        "has at least that many cores",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scaleout.json",
    )
    args = parser.parse_args(argv)

    widths = args.workers or ([1, 2] if args.smoke else [1, 2, 4])
    requests = args.requests or (60 if args.smoke else 400)
    records = args.records or (50 if args.smoke else 200)
    clients = args.clients or max(8, 2 * max(widths))
    min_speedup = args.min_speedup or (1.5 if args.smoke else 2.5)
    cpu_count = os.cpu_count() or 1
    cpu_limited = cpu_count < max(widths)

    model = make_model(args.m, n_records=20_000)
    seeds = list(range(8))
    serial_by_seed = {
        seed: model.sample(records, rng=np.random.default_rng(seed)).values
        for seed in seeds
    }

    results = {}
    failures = []
    total_mismatches = 0
    for workers in widths:
        seconds, observed, mismatches = run_fleet(
            model, workers, requests, records, clients, serial_by_seed
        )
        total_mismatches += mismatches
        throughput = requests * records / seconds
        results[f"workers_{workers}"] = {
            "workers": workers,
            "seconds": seconds,
            "samples_per_second": throughput,
            "requests_per_second": requests / seconds,
            "workers_observed": sorted(observed, key=int),
            "bitwise_mismatches": mismatches,
        }
        print(
            f"workers={workers}: {throughput:,.0f} samples/s "
            f"({requests / seconds:,.1f} req/s, served by {sorted(observed)})"
        )

    base = results[f"workers_{widths[0]}"]["samples_per_second"]
    for entry in results.values():
        entry["speedup_vs_1_worker"] = entry["samples_per_second"] / base

    widest = results[f"workers_{max(widths)}"]
    if total_mismatches:
        failures.append(
            f"{total_mismatches} responses were not bitwise identical to "
            "their serial ReleasedModel.sample draws"
        )
    speedup_gate = "skipped (single run)"
    if len(widths) > 1:
        if cpu_count < max(widths):
            speedup_gate = (
                f"skipped ({cpu_count} core(s) cannot back "
                f"{max(widths)} workers)"
            )
        elif widest["speedup_vs_1_worker"] < min_speedup:
            speedup_gate = "failed"
            failures.append(
                f"{max(widths)}-worker speedup "
                f"{widest['speedup_vs_1_worker']:.2f}x is below the "
                f"{min_speedup:.2f}x gate"
            )
        else:
            speedup_gate = f"passed (>= {min_speedup:.2f}x)"

    document = {
        "benchmark": "bench_scaleout",
        "smoke": args.smoke,
        "cpu_count": cpu_count,
        "cpu_limited": cpu_limited,
        "workload": {
            "m": args.m,
            "requests": requests,
            "records_per_request": records,
            "clients": clients,
            "fleet_widths": widths,
        },
        "determinism": {
            "all_responses_bitwise_identical_to_serial": total_mismatches == 0
        },
        "speedup_gate": speedup_gate,
        "results": results,
        "failures": failures,
    }
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
