#!/usr/bin/env python3
"""End-to-end benchmark of ``dpcopula serve`` over keep-alive HTTP.

Starts the real server as a child process (``python -m repro.cli serve
--port 0 --data-dir <fresh dir> --epsilon-cap 1e9``, every other flag at
its default), drives it from this process with at most two client
threads on two persistent ``http.client`` connections, checks every
response, and prints each end-to-end metric with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any request failed or any correctness check did not hold.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py                          # all workloads
    python3 benchmarks/e2e/run.py --workload sample-small --seed 7 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload mixed --trace 1   # per-layer
    python3 benchmarks/e2e/run.py --smoke                  # 3 s each

The second form is how ``BENCHMARK.json``'s ``command`` is run: one
workload, one seed, ``--seconds`` set to its ``run_seconds`` (also the
default).  With ``--trace 1`` the server runs under ``traced_serve.py`` and the
printed metrics are the per-layer ones from ``reduce.py``.  ``--out
DIR`` also writes one result file per workload, which ``compare.py``
and ``reduce.py overhead`` read.  Metric names, units and bounds are
those of ``BENCHMARK.json`` at the repository root; README.md beside
this file defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from reduce import layer_metrics, load_spans, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

DEFAULT_SEED = 20140324
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The percentile of operation latency reported as ``latency_p10_ms``.
LATENCY_PERCENTILE = 10
WARMUP_SECONDS = 2.0
POLL_SECONDS = 0.02
FIT_EPSILON = 1.0
SEED_POOL = 16
DATASET_ID = "bench"
#: A Kendall fit of this many records takes about 0.4 s, so fit-kendall's
#: timed phase holds some twenty fits to take a low percentile over.
N_RECORDS = 25_000
#: 16 attributes: six of domain 500, five of 50, five of 5.
DOMAINS = (500, 50, 5) * 5 + (500,)
REQUEST_TIMEOUT_SECONDS = 60.0
SERVER_START_SECONDS = 120.0


@dataclass(frozen=True)
class Workload:
    samplers: int  # closed-loop sample clients in the timed phase
    sample_n: int  # records per sample request
    fit_method: Optional[str]  # method of the closed-loop fit client, if any


#: Why each workload exists is in BENCHMARK.json and README.md.  A
#: workload's operation, whose latency it reports, is its sample request,
#: or its fit when it has no sample client.
WORKLOADS = {
    "sample-small": Workload(samplers=2, sample_n=25, fit_method=None),
    "sample-large": Workload(samplers=1, sample_n=10_000, fit_method=None),
    "fit-kendall": Workload(samplers=0, sample_n=25, fit_method="kendall"),
    "mixed": Workload(samplers=1, sample_n=25, fit_method="mle"),
}


@dataclass
class Sample:
    phase: str
    latency: float


@dataclass
class Fit:
    phase: str
    method: str
    seconds: float
    model_id: str


@dataclass
class Run:
    """Everything one workload run measured, shared by its client threads."""

    workload: str
    spec: Workload
    requests: List[Tuple[str, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    fits: List[Fit] = field(default_factory=list)
    # Request seed -> the records ReleasedModel.sample draws for it.
    expected: Dict[int, list] = field(default_factory=dict)
    # Request numbers per client label, continued across set-ups so a
    # request id names one request of the whole run.
    sequence: Dict[str, itertools.count] = field(
        default_factory=lambda: defaultdict(itertools.count)
    )

    def fail(self, message: str, violation: bool = False) -> None:
        """Count one failed operation; a violation also marks it incorrect."""
        self.failures.append(message)
        if violation:
            self.violations.append(message)


class BenchmarkError(RuntimeError):
    """The run cannot produce its metrics (set-up failed, nothing completed)."""


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    upload: bytes  # the POST /datasets body
    request_seeds: Tuple[int, ...]
    fit_seed: int


def make_inputs(seed: int) -> Inputs:
    """The dataset upload, request seed pool and fit seed for ``seed``.

    Records come from a two-factor Gaussian latent model, so attributes
    are correlated, cut into equal-width bins over [-3, 3] so margins
    are bell-shaped.
    """
    states = np.random.SeedSequence(seed).generate_state(SEED_POOL + 1)
    rng = np.random.default_rng(seed)
    m = len(DOMAINS)
    loadings = rng.uniform(0.3, 0.8, (m, 2)) * rng.choice([-1.0, 1.0], (m, 2))
    loadings /= np.sqrt(2.0)
    unique = np.sqrt(1.0 - (loadings**2).sum(axis=1))
    latent = rng.standard_normal((N_RECORDS, 2)) @ loadings.T
    latent += rng.standard_normal((N_RECORDS, m)) * unique
    sizes = np.array(DOMAINS)
    values = np.clip(((latent + 3.0) / 6.0 * sizes).astype(np.int64), 0, sizes - 1)
    header = ",".join(f"x{j}[{size}]" for j, size in enumerate(DOMAINS))
    rows = "\n".join(",".join(map(str, row)) for row in values.tolist())
    csv = f"{header}\n{rows}\n"
    upload = json.dumps({"dataset_id": DATASET_ID, "csv": csv}).encode()
    return Inputs(
        upload=upload,
        request_seeds=tuple(int(s) for s in states[:SEED_POOL]),
        fit_seed=int(states[SEED_POOL]),
    )


# -- server and client --------------------------------------------------------


class Server:
    """The service as a child process with its own data directory."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.data_dir = workdir / "data"
        self.spans_path = workdir / "spans.jsonl"
        self.log_path = workdir / "server.log"
        serve = [
            "serve", "--port", "0", "--data-dir", str(self.data_dir),
            "--epsilon-cap", "1e9",
        ]
        if traced:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       "--spans", str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        # Defaults only: no DPCOPULA_* override from the caller's shell.
        env = {k: v for k, v in os.environ.items() if not k.startswith("DPCOPULA_")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_SECONDS
        while time.monotonic() < deadline:
            found = re.search(r"listening on http://[^\s:]+:(\d+)", self.log())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                raise BenchmarkError(f"server exited at start:\n{self.log()[-3000:]}")
            time.sleep(0.005)
        raise BenchmarkError("server did not report its port")

    def log(self) -> str:
        return self.log_path.read_text(errors="replace")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self, drain: bool = True) -> None:
        """Drain with SIGTERM, or end at once with SIGKILL; then wait."""
        if self.process.poll() is None:
            if drain:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                    return
                except subprocess.TimeoutExpired:
                    pass
            self.process.kill()
            self.process.wait()


class Client:
    """One persistent keep-alive connection; every request is logged."""

    def __init__(self, port: int, label: str, run: Run):
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_SECONDS
        )
        self.label = label
        self.run = run

    def request(self, method: str, path: str, payload=None, body: bytes = None):
        """``(status, body, latency_seconds)``; status 0 on a transport error."""
        request_id = f"{self.label}-{next(self.run.sequence[self.label])}"
        if payload is not None:
            body = json.dumps(payload).encode()
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.connection.close()
            status, raw = 0, repr(exc).encode()
        latency = time.perf_counter() - started
        self.run.requests.append((request_id, latency))
        if not 200 <= status < 300:
            self.run.fail(f"{method} {path} -> {status}: {raw[:200]!r}")
        return status, raw, latency

    def close(self) -> None:
        self.connection.close()


def fit_model(client: Client, run: Run, method: str, seed: int, phase: str) -> Optional[str]:
    """Submit a fit, poll it every POLL_SECONDS until done; its model id.

    The fit's time is the job document's ``finished_at - submitted_at``:
    the client's own poll cycle (the sleep plus one request) would
    quantize it by tens of milliseconds.
    """
    status, raw, _ = client.request(
        "POST", "/fits",
        {"dataset_id": DATASET_ID, "method": method, "epsilon": FIT_EPSILON, "seed": seed},
    )
    if status != 202:
        return None
    job_id = json.loads(raw)["job_id"]
    while True:
        time.sleep(POLL_SECONDS)
        status, raw, _ = client.request("GET", f"/fits/{job_id}")
        if status != 200:
            return None
        job = json.loads(raw)
        # The worker marks a job done just before it stamps finished_at.
        if job["status"] == "done" and job["finished_at"] is not None:
            break
        if job["status"] in ("failed", "cancelled"):
            run.fail(f"fit {job_id} ended {job['status']}: {job.get('error')}")
            return None
    seconds = job["finished_at"] - job["submitted_at"]
    run.fits.append(Fit(phase, method, seconds, job["model_id"]))
    return job["model_id"]


def digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


# -- correctness --------------------------------------------------------------


def load_model(server: Server, model_id: str):
    from repro.io import ReleasedModel

    return ReleasedModel.load(server.data_dir / "models" / f"{model_id}.npz")


def check_samples(server, run, model_id, n, bodies: Dict[int, bytes]) -> Dict[int, bytes]:
    """Compare each seed's response with the released model's own draw.

    The draws are made once per run, from the first set-up's model:
    every set-up's fit must release the same arrays (``check_releases``),
    so every server must answer a seed with the same records.  Returns
    the digest of each verified body; later responses from the same
    server for that seed must match it byte for byte.
    """
    if not run.expected:
        model = load_model(server, model_id)
        for seed in bodies:
            draw = model.sample(n, rng=np.random.default_rng(seed))
            run.expected[seed] = draw.values.tolist()
    digests = {}
    for seed, body in bodies.items():
        document = json.loads(body)
        if document.get("records") != run.expected[seed] or document.get("n_records") != n:
            run.fail(f"sample seed {seed} differs from ReleasedModel.sample", violation=True)
        digests[seed] = digest(body)
    return digests


def check_releases(server, run, fits: List[Fit], reference: Dict[str, tuple]) -> None:
    """Every same-seed fit of a method must release identical arrays.

    ``reference`` maps method -> the first release seen in this run
    (any set-up), so releases are also compared across servers.
    """
    for fit in fits:
        model = load_model(server, fit.model_id)
        arrays = (model.correlation, *model.margin_counts)
        first = reference.setdefault(fit.method, arrays)
        if len(first) != len(arrays) or not all(
            np.array_equal(a, b) for a, b in zip(first, arrays)
        ):
            run.fail(f"{fit.method} fit {fit.model_id} released different arrays", violation=True)


def check_budget(client: Client, run: Run, fits: int) -> None:
    """The dataset's spent ε must equal Σε of the fits that completed."""
    status, raw, _ = client.request("GET", f"/datasets/{DATASET_ID}/budget")
    if status != 200:
        return
    spent = json.loads(raw)["epsilon_spent"]
    if abs(spent - fits * FIT_EPSILON) > 1e-9 * max(1.0, fits):
        run.fail(f"budget spent {spent} != {fits} fits x {FIT_EPSILON}", violation=True)


# -- one workload -------------------------------------------------------------


@dataclass
class Ready:
    server: Server
    client: Client
    model_id: str
    digests: Dict[int, bytes]
    fits: List[Fit]


def set_up(run: Run, inputs: Inputs, traced: bool, releases: Dict[str, tuple]) -> Ready:
    """Spawn, /health, upload, one Kendall fit, read-back.

    The read-back draws one sample per pool seed at the workload's n;
    each is checked against the released model, which yields the
    digests the timed phase compares against.  Only the span from
    spawn to the last read-back response counts as ``setup_s``.
    """
    workdir = Path(tempfile.mkdtemp(prefix=f"{run.workload}-", dir=WORK))
    fits_before = len(run.fits)
    started = time.perf_counter()
    server = Server(workdir, traced)
    client = Client(server.port, f"{run.workload}-0", run)
    try:
        if client.request("GET", "/health")[0] != 200:
            raise BenchmarkError("health check failed")
        if client.request("POST", "/datasets", body=inputs.upload)[0] != 201:
            raise BenchmarkError("dataset upload failed")
        model_id = fit_model(client, run, "kendall", inputs.fit_seed, "setup")
        if model_id is None:
            raise BenchmarkError("set-up fit failed")
        n = run.spec.sample_n
        bodies = {}
        for seed in inputs.request_seeds:
            status, body, _ = client.request(
                "POST", f"/models/{model_id}/sample", {"n": n, "seed": seed}
            )
            if status != 200:
                raise BenchmarkError("set-up sample failed")
            bodies[seed] = body
        run.setup_seconds.append(time.perf_counter() - started)
        digests = check_samples(server, run, model_id, n, bodies)
        fits = run.fits[fits_before:]
        check_releases(server, run, fits, releases)
    except BaseException:
        client.close()
        tear_down(server)
        raise
    return Ready(server, client, model_id, digests, fits)


def tear_down(server: Server, drain: bool = True) -> None:
    server.stop(drain)
    shutil.rmtree(server.workdir, ignore_errors=True)


class Clock:
    """Warm-up, then the timed phase, then stop."""

    def __init__(self, warmup: float, seconds: float):
        self.timed_start = time.perf_counter() + warmup
        self.timed_end = self.timed_start + seconds

    def phase(self) -> Optional[str]:
        now = time.perf_counter()
        if now < self.timed_start:
            return "warmup"
        return "timed" if now < self.timed_end else None


def sampler(client, run, ready: Ready, inputs: Inputs, clock: Clock, offset: int) -> None:
    """Closed loop: one seeded sample request after another."""
    n, seeds = run.spec.sample_n, inputs.request_seeds
    path = f"/models/{ready.model_id}/sample"
    i = offset
    while True:
        phase = clock.phase()
        if phase is None:
            return
        seed = seeds[i % len(seeds)]
        i += 1
        status, body, latency = client.request("POST", path, {"n": n, "seed": seed})
        # Only verified responses are timed; a failed one must not read as fast.
        if status != 200:
            continue
        if digest(body) != ready.digests[seed]:
            run.fail(f"sample seed {seed} body differs from its first response", violation=True)
            continue
        run.samples.append(Sample(phase, latency))


def fitter(client, run, inputs: Inputs, clock: Clock) -> None:
    """Closed loop: one fit after another, each polled to completion."""
    while True:
        phase = clock.phase()
        if phase is None:
            return
        fit_model(client, run, run.spec.fit_method, inputs.fit_seed, phase)


def guarded(run: Run, target, *args) -> threading.Thread:
    def body():
        try:
            target(*args)
        except Exception:
            run.fail(f"client thread crashed:\n{traceback.format_exc()}")

    return threading.Thread(target=body, name=target.__name__)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, setups: int, warmup: float
) -> dict:
    """Run one workload; returns its result document."""
    spec = WORKLOADS[name]
    run = Run(name, spec)
    inputs = make_inputs(seed)
    WORK.mkdir(exist_ok=True)
    releases: Dict[str, tuple] = {}
    for _ in range(setups - 1):
        ready = set_up(run, inputs, traced, releases)
        ready.client.close()
        # Nothing more is read from a set-up-only server: no need to drain.
        tear_down(ready.server, drain=False)
    ready = set_up(run, inputs, traced, releases)
    server, clients = ready.server, [ready.client]
    layers = None
    try:
        if spec.samplers + (spec.fit_method is not None) > 1:
            clients.append(Client(server.port, f"{name}-1", run))
        clock = Clock(warmup, seconds)
        threads = [
            guarded(run, sampler, clients[c], run, ready, inputs, clock, c * SEED_POOL // 2)
            for c in range(spec.samplers)
        ]
        if spec.fit_method is not None:
            threads.append(guarded(run, fitter, clients[-1], run, inputs, clock))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        workload_fits = [f for f in run.fits if f.phase != "setup"]
        check_budget(clients[0], run, len(ready.fits) + len(workload_fits))
        peak_rss_mb = server.peak_rss_mb()
        for client in clients:
            client.close()
        server.stop()
        check_releases(server, run, workload_fits, releases)
        if traced:
            meta, spans = load_spans(server.spans_path)
            # Requests to the earlier set-up servers join no span.
            layers = layer_metrics(spans, meta["wall_seconds"], run.requests)
    finally:
        for client in clients:
            client.close()
        tear_down(server)

    if spec.samplers:
        operation, latencies = "sample", [s.latency for s in run.samples if s.phase == "timed"]
    else:
        operation, latencies = "fit", [f.seconds for f in run.fits if f.phase == "timed"]
    if not latencies:
        raise BenchmarkError("no operation completed in the timed phase")
    end_to_end = {
        "latency_p10_ms": percentile(latencies, LATENCY_PERCENTILE) * 1e3,
        "setup_s": statistics.median(run.setup_seconds),
        "server_peak_rss_mb": peak_rss_mb,
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": not run.violations,
        "attempted": len(run.requests),
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "counts": {
            "operation": operation,
            "operations": len(latencies),
            "setups": len(run.setup_seconds),
        },
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


# -- reporting ----------------------------------------------------------------


def report(result: dict, spec: dict) -> dict:
    """Print the result table; return its last-line JSON document."""
    counts = result["counts"]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['seconds']:g} s timed  trace {result['trace']}"
    )
    notes = {
        "latency_p10_ms": f"{counts['operations']} {counts['operation']}s",
        "setup_s": f"median of {counts['setups']}",
    }
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        note = notes.get(metric["name"], "")
        print(f"  {metric['name']:<36} {value:>14.4f} {metric['unit']:<10} {note}")
    print(f"  {'error_rate':<36} {result['failed']:>7}/{result['attempted']:<6} failed/attempted")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    key = "per_layer" if result["trace"] else "end_to_end"
    if result["trace"]:
        for metric in spec["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"  {metric['name']:<36} {value:>14.4f} {metric['unit']}")
    return {
        metric["name"]: {"value": result[key][metric["name"]], "unit": metric["unit"]}
        for metric in spec[key]
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="3 s timed, one set-up, short warm-up")
    parser.add_argument("--out", type=Path, help="directory for one result file per workload")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit so `finally` stops the server.
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (3.0 if args.smoke else float(spec["run_seconds"]))
    setups, warmup = (1, 0.5) if args.smoke else (SETUPS, WARMUP_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    lines = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), setups, warmup)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
        lines[name] = report(result, spec)
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    if len(names) == 1:
        metrics = lines[names[0]]
    else:
        metrics = {f"{n}.{k}": v for n, line in lines.items() for k, v in line.items()}
    print(json.dumps({**totals, "metrics": metrics}))
    return 0 if totals["correct"] and totals["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
