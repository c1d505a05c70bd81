"""Benchmark the sampling engine on the serve hot path.

The serve-time cost of a sample request splits into *per-model* work
(PSD repair + Cholesky of the DP correlation matrix, normalizing every
noisy margin into CDF lookup tables) and *per-request* work (three
vectorized passes: latent normals, normal CDF, margin inversion).  The
pre-engine serve path redid all of the per-model work on every request;
the engine compiles it once into a :class:`~repro.engine.SamplerPlan`
and coalesces concurrent requests into shared elementwise passes.  This
benchmark times that trajectory at the paper's scalability shape
(default m=16 attributes) for a stream of serve-sized requests —
small draws (default 25 records, e.g. preview/inspection traffic)
where the per-model work the engine eliminates dominates wall-clock:

``serve_baseline``
    The pre-engine request path: ``ReleasedModel.sample`` per request,
    rebuilding margins, repairing/factorizing the correlation matrix
    and reconstructing the inverter every time.  The fixed baseline.
``plan``
    A compiled :class:`SamplerPlan` serving each request serially —
    per-model work hoisted out of the request path.
``engine_coalesced``
    ``SamplerPlan.sample_batch`` over micro-batches, the execution the
    request coalescer performs for concurrent traffic: per-request
    latent draws (bitwise safety) with one shared normal-CDF pass and
    one shared margin-inversion pass.

Besides throughput, the run *verifies* the engine's bitwise contract:
every plan-served request equals the pre-engine path bit for bit (by
construction now that ``ReleasedModel.sample`` draws through a plan of
its own; ``tests/core/test_sampling.py`` holds every entry point to an
independent reference), and every coalesced request equals its serial
draw bit for bit.  Results
land in ``BENCH_sampling.json`` — the perf-trajectory ledger for the
serve hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling.py            # full (m=16)
    PYTHONPATH=src python benchmarks/bench_sampling.py --smoke    # CI-sized, asserts

Exit status is non-zero if determinism breaks or the coalesced engine
path falls short of ``--min-speedup`` over the pre-engine baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.data.dataset import Attribute, Schema
from repro.engine import compile_plan
from repro.io import ReleasedModel


def make_model(m: int, n_records: int, seed: int = 20140324) -> ReleasedModel:
    """A released model with mixed domains and a random PSD correlation."""
    rng = np.random.default_rng(seed)
    domains = [(500, 50, 5)[j % 3] for j in range(m)]
    schema = Schema(
        [Attribute(f"a{j}", domain) for j, domain in enumerate(domains)]
    )
    # Random correlation: normalize a random Gram matrix to unit diagonal.
    basis = rng.standard_normal((m, m))
    gram = basis @ basis.T + m * np.eye(m)
    scale = np.sqrt(np.diag(gram))
    correlation = gram / np.outer(scale, scale)
    # Noisy margins: positive counts with Laplace-like perturbation.
    margin_counts = [
        np.maximum(rng.uniform(0.0, 2.0 * n_records / d, size=d), 0.0)
        for d in domains
    ]
    return ReleasedModel(
        margin_counts=margin_counts,
        correlation=correlation,
        schema=schema,
        n_records=n_records,
        epsilon=1.0,
    )


def timed(fn, repeats: int):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(args) -> dict:
    if args.smoke:
        m, requests, n = args.smoke_m, args.smoke_requests, args.smoke_n
    else:
        m, requests, n = args.m, args.requests, args.n
    batch = args.batch
    model = make_model(m, n_records=100_000)
    plan = compile_plan(model, "bench-model")
    total_records = requests * n
    print(
        f"workload: m={m}, {requests} requests x {n} records "
        f"(coalesced batch={batch})"
    )

    results = {}

    def serve_baseline():
        return [
            model.sample(n, rng=np.random.default_rng(seed)).values
            for seed in range(requests)
        ]

    seconds, baseline_outputs = timed(serve_baseline, args.repeats)
    results["serve_baseline"] = {
        "seconds": seconds,
        "samples_per_second": total_records / seconds,
        "implementation": (
            "pre-engine serve path: ReleasedModel.sample per request "
            "(margins + Cholesky + inverter rebuilt every call)"
        ),
    }
    print(
        f"  serve_baseline    {seconds:8.3f}s "
        f"({results['serve_baseline']['samples_per_second']:12.0f} samples/s)"
    )

    def plan_serial():
        return [
            plan.sample(n, np.random.default_rng(seed)).values
            for seed in range(requests)
        ]

    seconds, plan_outputs = timed(plan_serial, args.repeats)
    results["plan"] = {
        "seconds": seconds,
        "samples_per_second": total_records / seconds,
        "speedup_vs_baseline": results["serve_baseline"]["seconds"] / seconds,
        "implementation": (
            "compiled SamplerPlan per request (cached Cholesky + "
            "inverter tables)"
        ),
    }
    print(
        f"  plan              {seconds:8.3f}s "
        f"({results['plan']['samples_per_second']:12.0f} samples/s, "
        f"{results['plan']['speedup_vs_baseline']:.2f}x)"
    )

    def engine_coalesced():
        outputs = [None] * requests
        for start in range(0, requests, batch):
            stop = min(start + batch, requests)
            drawn = plan.sample_batch(
                [(n, np.random.default_rng(seed)) for seed in range(start, stop)]
            )
            for offset, dataset in enumerate(drawn):
                outputs[start + offset] = dataset.values
        return outputs

    seconds, coalesced_outputs = timed(engine_coalesced, args.repeats)
    results["engine_coalesced"] = {
        "seconds": seconds,
        "samples_per_second": total_records / seconds,
        "speedup_vs_baseline": results["serve_baseline"]["seconds"] / seconds,
        "implementation": (
            "SamplerPlan.sample_batch micro-batches (per-request latent "
            "draws, shared normal-CDF + margin-inversion passes)"
        ),
    }
    print(
        f"  engine_coalesced  {seconds:8.3f}s "
        f"({results['engine_coalesced']['samples_per_second']:12.0f} samples/s, "
        f"{results['engine_coalesced']['speedup_vs_baseline']:.2f}x)"
    )

    determinism = {
        "plan_equals_baseline": all(
            np.array_equal(a, b)
            for a, b in zip(plan_outputs, baseline_outputs)
        ),
        "coalesced_equals_serial": all(
            np.array_equal(a, b)
            for a, b in zip(coalesced_outputs, plan_outputs)
        ),
    }

    return {
        "benchmark": "bench_sampling",
        "workload": {
            "m": m,
            "requests": requests,
            "records_per_request": n,
            "total_records": total_records,
            "coalesced_batch": batch,
        },
        "smoke": bool(args.smoke),
        "results": results,
        "determinism": determinism,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=16, help="attributes (default 16)")
    parser.add_argument(
        "--requests", type=int, default=800, help="sample requests (default 800)"
    )
    parser.add_argument(
        "--n", type=int, default=25, help="records per request (default 25)"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=16,
        help="requests per coalesced micro-batch (default 16)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats; best is kept"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small workload, relaxed speedup floor",
    )
    parser.add_argument("--smoke-m", type=int, default=8)
    parser.add_argument("--smoke-requests", type=int, default=60)
    parser.add_argument("--smoke-n", type=int, default=50)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if engine_coalesced is below this speedup over the "
        "serve baseline (default 5.0, or 2.0 with --smoke)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_sampling.json",
        help="result JSON path (default ./BENCH_sampling.json)",
    )
    args = parser.parse_args(argv)
    if args.min_speedup is None:
        args.min_speedup = 2.0 if args.smoke else 5.0

    document = run(args)

    failures = []
    for check, passed in document["determinism"].items():
        if not passed:
            failures.append(f"determinism violated: {check}")
    speedup = document["results"]["engine_coalesced"]["speedup_vs_baseline"]
    if speedup < args.min_speedup:
        failures.append(
            f"engine_coalesced speedup {speedup:.2f}x is below the "
            f"{args.min_speedup}x floor"
        )

    document["failures"] = failures
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
