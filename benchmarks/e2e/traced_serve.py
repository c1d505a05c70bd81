#!/usr/bin/env python3
"""``dpcopula serve`` with timing shims around each layer's calls.

Usage::

    PYTHONPATH=src python3 benchmarks/e2e/traced_serve.py --spans SPANS.jsonl \\
        serve --port 0 --data-dir DIR --epsilon-cap 1e9

Everything after ``--spans FILE`` is passed to ``repro.cli.main``.
Before the server starts, each function :func:`install` names is
replaced, in the module or class its callers look it up in, by a shim
that records one span per call: name, start, end, the enclosing span on
the same thread, and a join key (the request's ``X-Request-Id`` or the
fit's ``job_id`` from ``repro.telemetry.current_context()``).  Spans
stay in memory; when the server exits (SIGTERM drains it) they are
written to the spans file, one JSON object per line after a first meta
line holding the server's wall time.  ``reduce.py`` turns them into
per-layer self times.  No file under ``src/`` is touched.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry import current_context


class Recorder:
    """Collects spans in memory; the parent is the caller's open span."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        function: Callable,
        describe: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``function`` recording a span per call.

        ``describe(args, result)`` may add attributes or override the
        join ``key``; it is skipped when the call raises.
        """
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            context = current_context()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "key": context.get("request_id") or context.get("job_id"),
            }
            stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if describe is not None:
                span.update(describe(args, result))
            return result

        return shim

    def patch(self, owner: Any, attribute: str, name: str, describe=None) -> None:
        """Replace ``owner.attribute`` (a module or class) with a shim."""
        static = inspect.getattr_static(owner, attribute)
        if isinstance(static, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(name, static.__func__, describe)))
        else:
            setattr(owner, attribute, self.wrap(name, static, describe))

    def proxy(self, module: types.ModuleType, attribute: str, name: str, describe=None):
        """A stand-in for ``module`` whose ``attribute`` is shimmed.

        Installed where one caller imported the whole module (``json``
        in the HTTP layer, ``scipy.special`` in the plan), so only that
        caller's calls are timed.
        """
        stand_in = types.SimpleNamespace(**vars(module))
        setattr(stand_in, attribute, self.wrap(name, getattr(module, attribute), describe))
        return stand_in

    def write(self, path: Path, wall_seconds: float) -> None:
        with Path(path).open("w") as handle:
            handle.write(json.dumps({"wall_seconds": wall_seconds}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(recorder: Recorder) -> None:
    """Shim every traced layer (imports the service; starts nothing)."""
    import repro.core.dpcopula as dpcopula
    import repro.core.kendall_matrix as kendall_matrix
    import repro.engine.plan as plan
    import repro.service.app as app
    import repro.service.http as http
    import repro.service.registry as registry
    from repro.core.margins import DPMargins
    from repro.core.sampling import BatchedMarginInverter
    from repro.engine.coalesce import RequestCoalescer
    from repro.engine.engine import SamplingEngine
    from repro.io import ReleasedModel
    from repro.service.accountant import PrivacyAccountant
    from repro.service.datasets import DatasetStore
    from repro.service.jobs import FitCheckpoint

    def request_header(args, _):
        return {"key": args[0].headers.get("X-Request-Id")}

    patch = recorder.patch
    patch(http.SynthesisRequestHandler, "do_POST", "http.handler", request_header)
    patch(http.SynthesisRequestHandler, "do_GET", "http.handler", request_header)
    http.json = recorder.proxy(
        http.json, "dumps", "http.json_dumps", lambda _, text: {"bytes": len(text)}
    )
    patch(app.SynthesisService, "sample", "app.sample")
    patch(
        app.SynthesisService,
        "submit_fit",
        "app.submit_fit",
        lambda _, job: {"job_id": job.get("job_id")},
    )
    patch(
        app.SynthesisService,
        "job_status",
        "app.job_status",
        lambda args, _: {"job_id": args[1]},
    )
    patch(app, "dataset_to_rows", "serializers.dataset_to_rows")
    patch(registry.ModelRegistry, "record", "registry.record")
    patch(registry.ModelRegistry, "get_plan", "registry.get_plan")
    patch(registry.ModelRegistry, "put", "registry.put")
    patch(registry, "compile_plan", "registry.compile_plan")
    patch(SamplingEngine, "sample", "engine.sample")
    patch(RequestCoalescer, "sample", "coalesce.sample")
    patch(
        plan.SamplerPlan,
        "sample_batch",
        "plan.sample_batch",
        lambda args, _: {"requests": len(args[1])},
    )
    plan.sc = recorder.proxy(plan.sc, "ndtr", "plan.ndtr")
    patch(BatchedMarginInverter, "__call__", "sampling.inverter")
    patch(DatasetStore, "put", "datasets.put")
    patch(DatasetStore, "get", "datasets.get")
    patch(PrivacyAccountant, "charge", "accountant.charge")
    patch(FitCheckpoint, "save", "jobs.checkpoint_save")
    patch(dpcopula.DPCopulaSynthesizer, "fit", "core.fit")
    patch(DPMargins, "fit", "margins.fit")
    patch(dpcopula, "dp_kendall_correlation", "kendall.dp_correlation")
    patch(kendall_matrix, "kendall_tau_matrix", "kendall.tau_matrix")
    # The positive-definiteness step: the check always runs, the repair
    # only when the noisy matrix fails it.
    for repair in ("is_positive_definite", "make_positive_definite", "higham_nearest_correlation"):
        patch(kendall_matrix, repair, "kendall.psd_repair")
    patch(dpcopula, "dp_mle_correlation", "mle.dp_correlation")
    patch(ReleasedModel, "from_synthesizer", "io.from_synthesizer")


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans FILE serve [serve options]", file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[1]), argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.write(spans_path, time.perf_counter() - started)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
