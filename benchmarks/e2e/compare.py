#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py SET_A SET_B
    python3 benchmarks/e2e/compare.py --pairs PARENT CHANGE

Each set is a directory of untraced result files written by
``run.py --out`` (five or more runs per workload).  The first form
prints one row per workload and end-to-end metric: each set's median
and quartiles (``statistics.quantiles(values, n=4)``), their spreads
(interquartile range over median) and a verdict against the metric's
bound from ``BENCHMARK.json``:

``agree``       the medians differ by at most the bound;
``better``      B's median beats A's by more than the bound;
``worse``       B's median trails A's by more than the bound;
``unresolved``  either set's own spread exceeds the bound, so the sets
                cannot show agreement or a difference.

It exits 1 unless every row agrees.  ``--pairs`` applies the rule a
change must meet to claim a gain: at least ten pairs of runs, matched
by workload and seed and run alternately; the change wins at least
nine tenths of them (ties count for neither); the medians differ,
in the better direction, by more than the parent's interquartile range;
and the change's runs fail no more operations in total than the
parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def agreement(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """Verdict for set ``b`` against set ``a`` (see the module docstring)."""
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    base, other = statistics.median(a), statistics.median(b)
    if abs(other - base) <= bound * base:
        return "agree"
    improved = other < base if better == "lower" else other > base
    return "better" if improved else "worse"


def pair_rule(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> Tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for runs paired in order.

    ``parent_failed`` and ``change_failed`` are the failed operations
    summed over each side's runs.  The verdict is ``gain``, ``no gain``
    or ``too few pairs``.
    """
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return "too few pairs", 0, pairs
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    shift = sign * (statistics.median(change) - statistics.median(parent))
    gained = (
        wins >= WIN_SHARE * pairs and shift > q3 - q1 and change_failed <= parent_failed
    )
    return ("gain" if gained else "no gain"), wins, pairs


def load(directory: Path) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> result document, from untraced result files."""
    results: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if not result["trace"]:
            results[result["workload"]][result["seed"]] = result
    return results


def _values(runs: Dict[int, dict], name: str) -> List[float]:
    """One metric's values, in seed order."""
    return [runs[seed]["end_to_end"][name] for seed in sorted(runs)]


def compare_sets(a_dir: Path, b_dir: Path, metrics: List[dict]) -> Tuple[List[str], bool]:
    """Table rows and whether every row agrees."""
    a, b = load(a_dir), load(b_dir)
    rows = [
        f"{'workload':<13} {'metric':<21} {'runs':>5}  "
        f"{'A median':>11} {'A q1..q3':>23} {'A spr':>6}  "
        f"{'B median':>11} {'B q1..q3':>23} {'B spr':>6}  {'B-A':>7} {'bound':>5}  verdict"
    ]
    all_agree = True
    for workload in sorted(set(a) | set(b)):
        for metric in metrics:
            name = metric["name"]
            va = _values(a.get(workload, {}), name)
            vb = _values(b.get(workload, {}), name)
            if len(va) < 2 or len(vb) < 2:
                rows.append(f"{workload:<13} {name:<21} missing runs")
                all_agree = False
                continue
            verdict = agreement(va, vb, metric["bound"], metric["better"])
            all_agree &= verdict == "agree"
            qa, qb = quartiles(va), quartiles(vb)
            rows.append(
                f"{workload:<13} {name:<21} {len(va):>2}/{len(vb):<2}  "
                f"{qa[1]:>11.4f} {qa[0]:>11.4f}..{qa[2]:<10.4f} {spread(va):>6.1%}  "
                f"{qb[1]:>11.4f} {qb[0]:>11.4f}..{qb[2]:<10.4f} {spread(vb):>6.1%}  "
                f"{(qb[1] - qa[1]) / qa[1]:>+7.1%} {metric['bound']:>5.0%}  {verdict}"
            )
    return rows, all_agree


def compare_pairs(parent_dir: Path, change_dir: Path, metrics: List[dict]) -> List[str]:
    """Pair-rule rows, runs matched by workload and seed."""
    parent, change = load(parent_dir), load(change_dir)
    rows = [
        f"{'workload':<13} {'metric':<21} {'parent':>11} {'change':>11} {'wins':>7}  "
        f"{'failed':>9}  verdict"
    ]
    for workload in sorted(set(parent) & set(change)):
        p = {s: parent[workload][s] for s in set(parent[workload]) & set(change[workload])}
        c = {s: change[workload][s] for s in p}
        failed = [sum(run["failed"] for run in side.values()) for side in (p, c)]
        for metric in metrics:
            pv, cv = _values(p, metric["name"]), _values(c, metric["name"])
            verdict, wins, pairs = pair_rule(pv, cv, metric["better"], *failed)
            medians = (
                f"{statistics.median(pv):>11.4f} {statistics.median(cv):>11.4f}"
                if p
                else f"{'-':>11} {'-':>11}"
            )
            rows.append(
                f"{workload:<13} {metric['name']:<21} {medians} {wins:>3}/{pairs:<3}  "
                f"{failed[0]:>4}/{failed[1]:<4}  {verdict}"
            )
    return rows


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="set A, or the parent with --pairs")
    parser.add_argument("second", type=Path, help="set B, or the change with --pairs")
    parser.add_argument("--pairs", action="store_true", help="apply the gain rule to paired runs")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.pairs:
        print("\n".join(compare_pairs(args.first, args.second, metrics)))
        return 0
    rows, all_agree = compare_sets(args.first, args.second, metrics)
    print("\n".join(rows))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
