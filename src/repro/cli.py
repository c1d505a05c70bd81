"""User-facing synthesis command line.

``python -m repro`` (or the installed ``dpcopula`` script) is the tool a
data curator actually runs: read an integer-coded CSV, synthesize a DP
copy with a chosen method and budget, write the synthetic CSV, and print
the budget ledger plus a utility report.

Examples
--------
Synthesize with the default DPCopula-Kendall at ε = 1 (``fit`` is an
alias of ``synthesize``; ``--profile`` prints a per-stage timing tree)::

    dpcopula synthesize data.csv synthetic.csv --epsilon 1.0
    dpcopula fit data.csv synthetic.csv --profile

Use the hybrid for data with small-domain attributes, persist the model::

    dpcopula synthesize data.csv out.csv --method hybrid --save-model m.npz

Re-sample a previously released model (no new privacy cost)::

    dpcopula resample m.npz more.csv --n 50000

Inspect a dataset's schema::

    dpcopula inspect data.csv
    dpcopula inspect data.csv --json

Run the long-running synthesis service (upload datasets, fit models,
sample over HTTP — see docs/SERVICE.md)::

    dpcopula serve --data-dir ./service-data --port 8639

List, inspect or cancel the service's durable fit jobs (works offline
against the same data directory — see docs/RELIABILITY.md)::

    dpcopula jobs --data-dir ./service-data
    dpcopula jobs --data-dir ./service-data --show 3f2a9b0c11de
    dpcopula jobs --data-dir ./service-data --cancel 3f2a9b0c11de

Watch the fleet: privacy-budget burn-down per dataset and continuous
utility-probe results (live over HTTP, or offline against the data
directory — see docs/OBSERVABILITY.md)::

    dpcopula budget --url http://127.0.0.1:8639
    dpcopula budget --data-dir ./service-data --epsilon-cap 10.0
    dpcopula top --url http://127.0.0.1:8639 --watch 2
    dpcopula top --data-dir ./service-data
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import threading
from typing import List, Optional

from contextlib import nullcontext

from repro.core.dpcopula import DPCopulaKendall, DPCopulaMLE
from repro.core.hybrid import DPCopulaHybrid
from repro.io import ReleasedModel, load_dataset_csv, save_dataset_csv
from repro.parallel import BACKENDS, ExecutionContext
from repro.queries.metrics import utility_report
from repro.service.config import DEFAULT_EPSILON_CAP, ServiceConfig, serve_flags
from repro.telemetry import trace


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``dpcopula`` command."""
    parser = argparse.ArgumentParser(
        prog="dpcopula",
        description="Differentially private data synthesization (DPCopula).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synthesize = commands.add_parser(
        "synthesize",
        aliases=["fit"],
        help="fit DPCopula and write a synthetic CSV",
    )
    synthesize.add_argument("input", help="integer-coded CSV (name[domain] headers)")
    synthesize.add_argument("output", help="synthetic CSV to write")
    synthesize.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget (default 1.0)"
    )
    synthesize.add_argument(
        "--method",
        choices=("kendall", "mle", "hybrid"),
        default="kendall",
        help="estimation method (default kendall)",
    )
    synthesize.add_argument(
        "--k", type=float, default=8.0, help="budget ratio eps1/eps2 (default 8)"
    )
    synthesize.add_argument(
        "--n", type=int, default=None, help="synthetic record count (default: input n)"
    )
    synthesize.add_argument("--seed", type=int, default=None, help="RNG seed")
    synthesize.add_argument(
        "--parallel-backend",
        choices=BACKENDS,
        default="serial",
        help="execution backend for the fit's hot loops (default: serial); "
        "results are identical on every backend for a fixed --seed",
    )
    synthesize.add_argument(
        "--parallel-workers",
        type=int,
        default=None,
        help="worker budget for --parallel-backend (default: available CPUs)",
    )
    synthesize.add_argument(
        "--save-model",
        metavar="PATH",
        default=None,
        help="persist the released model (NPZ) for later re-sampling",
    )
    synthesize.add_argument(
        "--report",
        action="store_true",
        help="print a distributional utility report (original vs synthetic)",
    )
    synthesize.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing tree (margins, correlation, "
        "PSD repair, sampling) after synthesis",
    )

    resample = commands.add_parser(
        "resample", help="sample from a persisted released model"
    )
    resample.add_argument("model", help="NPZ written by synthesize --save-model")
    resample.add_argument("output", help="synthetic CSV to write")
    resample.add_argument("--n", type=int, default=None, help="record count")
    resample.add_argument("--seed", type=int, default=None, help="RNG seed")
    resample.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing tree after sampling",
    )

    inspect = commands.add_parser("inspect", help="print a dataset's schema")
    inspect.add_argument("input", help="integer-coded CSV")
    inspect.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (same document as the service's "
        "dataset-inspect endpoint)",
    )

    evaluate = commands.add_parser(
        "evaluate",
        help="score DPCopula against baselines on a named scenario "
        "(range queries, k-way marginals, ML utility — see "
        "docs/EVALUATION.md)",
    )
    evaluate.add_argument(
        "--scenario",
        default=None,
        help="scenario name (see --list); required unless --list is given",
    )
    evaluate.add_argument(
        "--list",
        action="store_true",
        help="list the scenario catalog and exit",
    )
    evaluate.add_argument(
        "--methods",
        default=None,
        metavar="NAME,NAME,...",
        help="comma-separated method registry names (default: "
        "dpcopula-kendall,privelet,psd,fp,php)",
    )
    evaluate.add_argument(
        "--epsilon", type=float, default=1.0, help="privacy budget (default 1.0)"
    )
    evaluate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="scenario seed: fixes the generated data, splits and "
        "workloads (default 0)",
    )
    evaluate.add_argument(
        "--queries",
        type=int,
        default=60,
        help="anchored range queries in the workload (default 60)",
    )
    evaluate.add_argument(
        "--marginal-k",
        type=int,
        default=3,
        help="evaluate all j-way marginals for j = 1..K (default 3)",
    )
    evaluate.add_argument(
        "--max-marginals",
        type=int,
        default=20,
        help="cap per marginal order, deterministic subsample beyond it "
        "(default 20)",
    )
    evaluate.add_argument(
        "--synthetic-records",
        type=int,
        default=None,
        help="records to materialize from structure-releasing baselines "
        "for the ML workload (default: the training-set size)",
    )
    evaluate.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the full JSON report to PATH",
    )
    evaluate.add_argument(
        "--json", action="store_true", help="print the JSON report to stdout"
    )

    serve = commands.add_parser(
        "serve", help="run the synthesis HTTP service (see docs/SERVICE.md)"
    )
    for flag, setting in serve_flags():
        _add_setting_flag(serve, flag, setting)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8639, help="bind port")
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )

    budget = commands.add_parser(
        "budget",
        help="render per-dataset privacy-budget burn-down timelines "
        "from a service's ledger",
    )
    budget_source = budget.add_mutually_exclusive_group(required=True)
    budget_source.add_argument(
        "--data-dir",
        default=None,
        help="read the ledger offline from a serve data directory",
    )
    budget_source.add_argument(
        "--url",
        default=None,
        help="fetch GET /budget from a running service, e.g. "
        "http://127.0.0.1:8639",
    )
    budget.add_argument(
        "--epsilon-cap",
        type=float,
        default=DEFAULT_EPSILON_CAP,
        help="lifetime cap to render headroom against in offline mode "
        "(the ledger records spends, not the cap; default %(default)s)",
    )
    budget.add_argument(
        "--events",
        type=int,
        default=5,
        help="ledger events to show per dataset (default 5, newest last; "
        "0 hides the timeline)",
    )
    budget.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    top = commands.add_parser(
        "top",
        help="one-screen fleet dashboard: budgets, utility probes, traces "
        "(see docs/OBSERVABILITY.md)",
    )
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument(
        "--data-dir",
        default=None,
        help="read observatory state offline from a serve data directory",
    )
    top_source.add_argument(
        "--url",
        default=None,
        help="fetch GET /debug/observatory from a running service",
    )
    top.add_argument(
        "--epsilon-cap",
        type=float,
        default=DEFAULT_EPSILON_CAP,
        help="lifetime cap to render against in offline mode "
        "(default %(default)s)",
    )
    top.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh every SECONDS until interrupted (default: render once)",
    )
    top.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    jobs = commands.add_parser(
        "jobs",
        help="list, inspect or cancel the service's durable fit jobs "
        "(see docs/RELIABILITY.md)",
    )
    jobs.add_argument(
        "--data-dir",
        required=True,
        help="the serve data directory whose job journal to read",
    )
    jobs.add_argument(
        "--show", metavar="JOB_ID", default=None, help="print one job's full record"
    )
    jobs.add_argument(
        "--cancel",
        metavar="JOB_ID",
        default=None,
        help="request cooperative cancellation (takes effect before the "
        "job starts or at its next stage boundary)",
    )
    jobs.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _add_setting_flag(parser, flag: str, setting) -> None:
    """Add the ``serve`` flag a ``ServiceConfig`` field's metadata declares."""
    meta = setting.metadata
    if isinstance(setting.default, bool):
        action = "store_false" if setting.default else "store_true"
        parser.add_argument(flag, dest=setting.name, action=action, help=meta["help"])
        return
    required = setting.default is dataclasses.MISSING
    default = None if required else setting.default
    notes = [] if default is None else ["default %(default)s"]
    if meta["zero_off"]:
        notes.append("0 turns it off")
    parser.add_argument(
        flag,
        dest=setting.name,
        required=required,
        default=default,
        type=meta["type"],
        choices=meta["choices"],
        metavar=meta["metavar"],
        help=meta["help"] + (f" ({'; '.join(notes)})" if notes else ""),
    )


def _synthesize(args) -> int:
    if args.save_model and args.method == "hybrid":
        print(
            "error: --save-model is unsupported for the hybrid method: its "
            "per-cell models are not captured by the released-model format, "
            "so the saved file could not be resampled faithfully",
            file=sys.stderr,
        )
        return 2
    data = load_dataset_csv(args.input)
    print(f"loaded {data}")
    context = ExecutionContext(
        backend=args.parallel_backend, max_workers=args.parallel_workers
    )
    profiling = (
        trace.trace_root("synthesize", method=args.method)
        if args.profile
        else nullcontext()
    )
    with profiling as root:
        if args.method == "hybrid":
            synthesizer = DPCopulaHybrid(
                args.epsilon, k=args.k, rng=args.seed, context=context
            )
            synthetic = synthesizer.fit_sample(data)
            if args.n is not None and args.n != synthetic.n_records:
                print(
                    "note: --n is ignored by the hybrid method (cell counts are "
                    "themselves DP releases)",
                    file=sys.stderr,
                )
            model = None
        else:
            cls = DPCopulaKendall if args.method == "kendall" else DPCopulaMLE
            synthesizer = cls(args.epsilon, k=args.k, rng=args.seed, context=context)
            synthesizer.fit(data)
            synthetic = synthesizer.sample(args.n)
            model = ReleasedModel.from_synthesizer(synthesizer)

    save_dataset_csv(synthetic, args.output)
    print(f"wrote {synthetic} -> {args.output}")
    print()
    print(synthesizer.budget_.summary())
    if root is not None:
        print()
        print("stage timings (seconds):")
        print(trace.render(root))

    if args.save_model:
        model.save(args.save_model)
        print(f"released model saved to {args.save_model}")

    if args.report:
        print()
        report = utility_report(data, synthetic)
        print(report)
        for j, name in enumerate(data.schema.names):
            print(
                f"  margin {name!r}: TVD={report.margin_tvds[j]:.4f} "
                f"KS={report.margin_kolmogorovs[j]:.4f}"
            )
    return 0


def _resample(args) -> int:
    model = ReleasedModel.load(args.model)
    profiling = (
        trace.trace_root("resample") if args.profile else nullcontext()
    )
    with profiling as root:
        synthetic = model.sample(args.n, rng=args.seed)
    save_dataset_csv(synthetic, args.output)
    print(
        f"sampled {synthetic.n_records} records from the released model "
        f"(epsilon={model.epsilon}) -> {args.output}"
    )
    print("re-sampling a released model is post-processing: no new privacy cost")
    if root is not None:
        print()
        print("stage timings (seconds):")
        print(trace.render(root))
    return 0


def _inspect(args) -> int:
    data = load_dataset_csv(args.input)
    if args.json:
        from repro.service.serializers import dataset_summary

        print(json.dumps(dataset_summary(data), indent=2, sort_keys=True))
        return 0
    print(data)
    print(f"domain space: {data.schema.domain_space():.6g} cells")
    for attribute in data.schema:
        kind = "small-domain" if attribute.is_small_domain else "large-domain"
        print(f"  {attribute.name}: |A| = {attribute.domain_size} ({kind})")
    small = data.schema.small_domain_indices()
    if small:
        print(
            "small-domain attributes present: the hybrid method "
            "(--method hybrid) will partition on them"
        )
    return 0


def _render_evaluation(result) -> None:
    """Human-readable scorecard for one scenario run."""
    print(
        f"scenario {result.scenario!r} (ε={result.epsilon:g}, "
        f"seed={result.seed}, n={result.n_records})"
    )
    header = (
        f"{'METHOD':<18} {'RANGE RE':<10} {'TVD avg':<9} {'TVD worst':<10} "
        f"{'ML Δacc':<9} {'ML Δauc':<9} FIT s"
    )
    print(header)
    for evaluation in result.evaluations:
        if evaluation.ml is not None:
            worst = max(evaluation.ml.scores, key=lambda s: s.accuracy_delta)
            delta_acc = f"{worst.accuracy_delta:+.4f}"
            delta_auc = f"{worst.auc_delta:+.4f}"
        else:
            delta_acc = delta_auc = "-"
        print(
            f"{evaluation.method:<18} "
            f"{evaluation.range_queries.mean_relative_error:<10.4f} "
            f"{evaluation.marginals.avg_tvd:<9.4f} "
            f"{evaluation.marginals.max_tvd:<10.4f} "
            f"{delta_acc:<9} {delta_auc:<9} "
            f"{evaluation.fit_seconds:.2f}"
        )
    for method, reason in sorted(result.skipped.items()):
        print(f"{method:<18} skipped: {reason}")


def _evaluate(args) -> int:
    from repro.experiments.scenarios import list_scenarios, make_scenario, run_scenario

    if args.list:
        for name in list_scenarios():
            scenario = make_scenario(name)
            domain = "x".join(str(s) for s in scenario.domain_sizes)
            print(
                f"{name:<16} {domain:<22} target={scenario.target:<10} "
                f"{scenario.description}"
            )
        return 0
    if args.scenario is None:
        print("error: --scenario is required (or use --list)", file=sys.stderr)
        return 2
    methods = args.methods.split(",") if args.methods else None
    try:
        result = run_scenario(
            args.scenario,
            methods=methods,
            epsilon=args.epsilon,
            seed=args.seed,
            n_queries=args.queries,
            marginal_k=args.marginal_k,
            max_marginals=args.max_marginals,
            synthetic_records=args.synthetic_records,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = result.to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"report written to {args.output}")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        _render_evaluation(result)
    return 0


def _serve(args) -> int:
    from repro.service import SynthesisService, build_server

    try:
        config = ServiceConfig.from_flags(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.multi_worker:
        return _serve_prefork(args, config)
    service = SynthesisService(config)
    server = build_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.server_address[:2]
    print(f"synthesis service listening on http://{host}:{port}")
    print(f"data directory: {args.data_dir} (ε cap {args.epsilon_cap:g}/dataset)")
    print(
        f"fit pool: {args.fit_workers} worker(s), "
        f"{service.context.max_workers} thread(s) per fit"
    )
    print(
        "endpoints: /health /healthz /metrics /budget /debug/observatory "
        "/datasets /fits /models — see docs/SERVICE.md and "
        "docs/OBSERVABILITY.md"
    )

    def _drain(signum, frame):  # pragma: no cover - signal delivery timing
        # Graceful drain: stop accepting, finish in-flight requests and
        # the running fit, leave queued jobs journaled for the next
        # start.  shutdown() must run off the serving thread.
        print("\nSIGTERM: draining (queued jobs stay journaled)", file=sys.stderr)
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _serve_prefork(args, config) -> int:
    """Run the pre-fork fleet: supervisor in this process, N workers."""
    from repro.service.prefork import PreforkServer

    try:
        supervisor = PreforkServer(
            config,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    supervisor.start()
    print(
        f"synthesis service listening on http://{args.host}:{supervisor.port} "
        f"({config.workers} workers)"
    )
    print(f"data directory: {args.data_dir} (ε cap {args.epsilon_cap:g}/dataset)")
    print(f"worker 0 owns fitting ({args.fit_workers} fit worker(s))")
    print(
        "endpoints: /health /healthz /metrics /budget /debug/observatory "
        "/datasets /fits /models — see docs/SERVICE.md and "
        "docs/OBSERVABILITY.md"
    )

    def _stop(signum, frame):  # pragma: no cover - signal delivery timing
        print(
            "\nSIGTERM: draining workers (queued jobs stay journaled)",
            file=sys.stderr,
        )
        supervisor.request_stop()

    try:
        signal.signal(signal.SIGTERM, _stop)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        supervisor.watch()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        supervisor.stop()
    return 0


def _fetch_json(url: str):
    """GET a service endpoint and parse the JSON body."""
    import urllib.request

    with urllib.request.urlopen(url, timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _format_timestamp(value) -> str:
    import datetime

    try:
        moment = datetime.datetime.fromtimestamp(float(value))
    except (TypeError, ValueError, OSError, OverflowError):
        return "-"
    return moment.strftime("%Y-%m-%d %H:%M:%S")


def _utilization_bar(utilization: float, width: int = 24) -> str:
    filled = max(0, min(width, round(float(utilization) * width)))
    return "#" * filled + "." * (width - filled)


def _render_budget(document, events: int = 5) -> None:
    timelines = document.get("datasets", [])
    if not timelines:
        print("no datasets in the ledger")
        return
    print(f"privacy budget (ε cap {document.get('epsilon_cap', 0):g}/dataset)")
    for timeline in timelines:
        print(
            f"\n{timeline['dataset_id']}: "
            f"[{_utilization_bar(timeline['utilization'])}] "
            f"{timeline['epsilon_spent']:g} spent / "
            f"{timeline['epsilon_remaining']:g} remaining"
        )
        if events:
            for event in timeline.get("events", [])[-events:]:
                sign = "-" if event.get("kind") == "refund" else "+"
                print(
                    f"  {_format_timestamp(event.get('timestamp'))}  "
                    f"{sign}ε{event['epsilon']:<10g} "
                    f"spent={event['spent_after']:<10g} "
                    f"{event.get('label', '')}"
                )


def _budget(args) -> int:
    if args.url:
        document = _fetch_json(args.url.rstrip("/") + "/budget")
    else:
        from repro.service.accountant import budget_overview

        document = budget_overview(args.data_dir, args.epsilon_cap)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    _render_budget(document, events=args.events)
    return 0


def _observatory_document(args):
    """The dashboard document: live from the service, or off the files."""
    if args.url:
        return _fetch_json(args.url.rstrip("/") + "/debug/observatory")
    from pathlib import Path

    from repro.service.accountant import budget_overview
    from repro.telemetry.export import list_trace_files
    from repro.telemetry.observatory import load_probe_document

    root = Path(args.data_dir)
    return {
        "served_by": "offline",
        "budget": budget_overview(args.data_dir, args.epsilon_cap),
        "probes": load_probe_document(root / "observatory"),
        "traces": {"enabled": None, "files": list_trace_files(root / "traces")},
        "workers": [],
    }


def _render_top(document) -> None:
    print(f"dpcopula top — served by worker {document.get('served_by')}")

    budget = document.get("budget") or {}
    print(f"\n-- privacy budget (ε cap {budget.get('epsilon_cap', 0):g}) --")
    for timeline in budget.get("datasets", []):
        print(
            f"  {timeline['dataset_id']:<20} "
            f"[{_utilization_bar(timeline['utilization'])}] "
            f"{timeline['epsilon_spent']:g}/{timeline['epsilon_cap']:g} spent"
        )
    if not budget.get("datasets"):
        print("  (no datasets)")

    probes = document.get("probes")
    print("\n-- utility probes --")
    if not probes:
        print("  (no probe results yet)")
    else:
        print(
            f"  cycle at {_format_timestamp(probes.get('written_at'))}, "
            f"{probes.get('models_probed')}/{probes.get('models_total')} "
            f"models, sample={probes.get('sample_size')}"
        )
        header = (
            f"  {'MODEL':<18} {'TVD(max)':<10} {'2WAY(max)':<10} "
            f"{'TAU ERR':<10} MISFIT"
        )
        print(header)
        for model in probes.get("models", []):
            # Probe documents written before the k-way gauge existed
            # lack the field; render a dash rather than failing.
            kway = model.get("kway_tvd_max")
            kway_text = f"{kway:<10.4f}" if kway is not None else f"{'-':<10}"
            print(
                f"  {model['model_id']:<18} "
                f"{model['margin_tvd_max']:<10.4f} {kway_text}"
                f"{model['tau_error']:<10.4f} {model['copula_misfit']:.4f}"
            )

    traces = document.get("traces") or {}
    print("\n-- trace export --")
    files = traces.get("files", [])
    if not files:
        print("  (no trace files)")
    for entry in files:
        print(
            f"  {entry['file']:<24} {entry['bytes']:>10} bytes  "
            f"modified {_format_timestamp(entry['modified_at'])}"
        )

    workers = document.get("workers") or []
    if workers:
        print("\n-- workers --")
        for worker in workers:
            print(f"  worker {worker.get('worker')}  pid {worker.get('pid')}")


def _top(args) -> int:
    import time as _time

    while True:
        document = _observatory_document(args)
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            _render_top(document)
        if args.watch is None:
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0
        print()


def _jobs(args) -> int:
    from pathlib import Path

    from repro.resilience.journal import JobJournal

    jobs_dir = Path(args.data_dir) / "jobs"
    if not jobs_dir.exists():
        print(f"no job journal under {args.data_dir!r}", file=sys.stderr)
        return 1
    journal = JobJournal(jobs_dir)
    if args.cancel or args.show:
        job_id = args.cancel or args.show
        try:
            if args.cancel:
                record = journal.request_cancel(job_id)
            else:
                record = journal.load(job_id)
        except KeyError:
            print(f"no journaled job with id {job_id!r}", file=sys.stderr)
            return 1
        except ValueError as exc:  # a malformed record names its job
            print(exc, file=sys.stderr)
            return 1
        if args.cancel:
            print(f"cancellation requested for {job_id} (state: {record.state})")
        else:
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    records = journal.list()
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print("no journaled jobs")
        return 0
    print(f"{'JOB ID':<14} {'STATE':<10} {'DATASET':<16} {'METHOD':<10} EPSILON")
    for record in records:
        print(
            f"{record.job_id:<14} {record.state:<10} {record.dataset_id:<16} "
            f"{record.method:<10} {record.epsilon:g}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``dpcopula`` command."""
    args = build_parser().parse_args(argv)
    if args.command in ("synthesize", "fit"):
        return _synthesize(args)
    if args.command == "resample":
        return _resample(args)
    if args.command == "evaluate":
        return _evaluate(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "jobs":
        return _jobs(args)
    if args.command == "budget":
        return _budget(args)
    if args.command == "top":
        return _top(args)
    return _inspect(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
