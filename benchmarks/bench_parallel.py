"""Benchmark the parallel execution layer on the Kendall-matrix hot path.

The paper's complexity story (§4.2, Figure 11) is dominated by the
``O(m² n̂ log n̂)`` pairwise Kendall stage, so that is the workload this
benchmark times, at the scalability experiment's shape (default m=16
attributes, n=100k records):

``serial``
    The benchmark baseline: the seed repository's serial hot path — a
    Python loop calling :func:`kendall_tau_merge` on raw float columns,
    re-deriving each column's rank structure once per pair.  Kept here
    (re-implemented locally) so the perf trajectory always measures
    against the same fixed reference.
``serial_optimized`` / ``thread`` / ``process``
    Today's :func:`kendall_tau_matrix` — per-column narrow rank codes
    (one ``bincount`` per bounded integer column) plus two exact pair
    kernels (a joint count table when the pair spans ``d_x·d_y ≤ 4n``
    cells, scipy's compiled merge sort otherwise) — run through each
    :class:`~repro.parallel.ExecutionContext` backend.  Table pairs
    always run on the calling thread; only merge pairs fan out over the
    backend.  At the full n=100k every pair takes the table, so the
    three rows time the same serial work; at the smoke's n=20k the
    pairs of two 500-value columns take the merge and the rest the
    table, so the smoke's bitwise check covers both kernels and the
    fan-out.

Besides wall-clock, the run *verifies* the two contracts the layer
makes: every backend's matrix is bitwise identical, and the optimized
kernel equals the legacy implementation bitwise.  Results land in
``BENCH_parallel.json`` — the repo's perf-trajectory ledger for this
hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full (m=16, n=100k)
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke    # CI-sized, asserts

Exit status is non-zero if determinism breaks or (in ``--smoke`` mode)
the parallel backends regress beyond ``--tolerance`` × the serial
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.parallel import ExecutionContext
from repro.stats.kendall import kendall_tau_matrix, kendall_tau_merge


def legacy_kendall_tau_matrix(values: np.ndarray) -> np.ndarray:
    """The seed repository's serial matrix loop: the fixed perf baseline."""
    values = np.asarray(values, dtype=float)
    m = values.shape[1]
    matrix = np.eye(m)
    for j in range(m):
        for k in range(j + 1, m):
            tau = kendall_tau_merge(values[:, j], values[:, k])
            matrix[j, k] = matrix[k, j] = tau
    return matrix


def make_workload(m: int, n: int, seed: int = 20140324) -> np.ndarray:
    """A mixed-domain (continuous-ish, medium, small) integer matrix."""
    rng = np.random.default_rng(seed)
    domains = []
    for j in range(m):
        domains.append((500, 50, 5)[j % 3])
    columns = [rng.integers(0, d, size=n) for d in domains]
    return np.column_stack(columns).astype(float)


def timed(fn, repeats: int):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(args) -> dict:
    m, n = (args.smoke_m, args.smoke_n) if args.smoke else (args.m, args.n)
    values = make_workload(m, n)
    workers = args.workers
    pairs = m * (m - 1) // 2
    print(f"workload: m={m} ({pairs} pairs), n={n}, workers={workers}")

    results = {}
    seconds, baseline_matrix = timed(
        lambda: legacy_kendall_tau_matrix(values), args.repeats
    )
    results["serial"] = {
        "seconds": seconds,
        "implementation": "seed per-pair kendall_tau_merge loop (baseline)",
    }
    print(f"  serial (seed baseline)      {seconds:8.3f}s")

    contexts = {
        "serial_optimized": ExecutionContext("serial"),
        "thread": ExecutionContext("thread", max_workers=workers),
        "process": ExecutionContext("process", max_workers=workers),
    }
    matrices = {}
    for name, context in contexts.items():
        seconds, matrix = timed(
            lambda context=context: kendall_tau_matrix(values, context=context),
            args.repeats,
        )
        matrices[name] = matrix
        results[name] = {
            "seconds": seconds,
            "speedup_vs_serial": results["serial"]["seconds"] / seconds,
            "implementation": (
                f"narrow rank codes; table pairs on the caller, merge "
                f"pairs over the {context.backend} backend"
            ),
        }
        print(
            f"  {name:<27} {seconds:8.3f}s "
            f"({results[name]['speedup_vs_serial']:.2f}x vs serial)"
        )

    determinism = {
        "optimized_equals_baseline": bool(
            np.array_equal(baseline_matrix, matrices["serial_optimized"])
        ),
        "thread_equals_serial": bool(
            np.array_equal(matrices["serial_optimized"], matrices["thread"])
        ),
        "process_equals_serial": bool(
            np.array_equal(matrices["serial_optimized"], matrices["process"])
        ),
    }

    document = {
        "benchmark": "bench_parallel",
        "workload": {"m": m, "n": n, "pairs": pairs, "workers": workers},
        "smoke": bool(args.smoke),
        "results": results,
        "determinism": determinism,
    }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=16, help="attributes (default 16)")
    parser.add_argument(
        "--n", type=int, default=100_000, help="records (default 100000)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="pool workers (default 4)"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="timing repeats; best is kept"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small workload, asserts determinism and tolerance",
    )
    parser.add_argument("--smoke-m", type=int, default=8)
    parser.add_argument("--smoke-n", type=int, default=20_000)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="smoke mode fails if a parallel backend is slower than "
        "tolerance x the serial baseline (default 1.5)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_parallel.json",
        help="result JSON path (default ./BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)

    document = run(args)

    failures = []
    for check, passed in document["determinism"].items():
        if not passed:
            failures.append(f"determinism violated: {check}")
    if args.smoke:
        baseline = document["results"]["serial"]["seconds"]
        for name in ("thread", "process"):
            seconds = document["results"][name]["seconds"]
            if seconds > args.tolerance * baseline:
                failures.append(
                    f"{name} backend regressed: {seconds:.3f}s > "
                    f"{args.tolerance} x serial baseline {baseline:.3f}s"
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
