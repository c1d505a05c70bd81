"""Tests for the user-facing ``dpcopula`` command."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.dataset import Attribute, Dataset, Schema
from repro.io import load_dataset_csv, save_dataset_csv


@pytest.fixture
def csv_dataset(tmp_path, rng):
    schema = Schema([Attribute("a", 60), Attribute("b", 80)])
    latent = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=600)
    a = np.clip(((latent[:, 0] + 3) / 6 * 60).astype(int), 0, 59)
    b = np.clip(((latent[:, 1] + 3) / 6 * 80).astype(int), 0, 79)
    dataset = Dataset(np.column_stack([a, b]), schema)
    path = tmp_path / "data.csv"
    save_dataset_csv(dataset, path)
    return path, dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "in.csv", "out.csv"])
        assert args.epsilon == 1.0
        assert args.method == "kendall"
        assert args.k == 8.0

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "in.csv", "out.csv", "--method", "bayes"]
            )

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--data-dir", "svc"])
        assert args.host == "127.0.0.1"
        assert args.port == 8639
        assert args.epsilon_cap == 10.0

    def test_serve_requires_data_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_fit_is_an_alias_of_synthesize(self):
        args = build_parser().parse_args(["fit", "in.csv", "out.csv"])
        assert args.command == "fit"
        assert args.epsilon == 1.0
        assert args.profile is False

    def test_serve_log_level(self):
        args = build_parser().parse_args(
            ["serve", "--data-dir", "svc", "--log-level", "debug"]
        )
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--data-dir", "svc", "--log-level", "loud"]
            )


#: The ServiceConfig ``serve --data-dir svc`` builds with no other flag.
_SERVE_DEFAULTS = {
    "data_dir": "svc",
    "epsilon_cap": 10.0,
    "fit_workers": 1,
    "log_level": None,
    "max_queued_fits": 32,
    "fit_timeout_seconds": None,
    "request_timeout_seconds": 30.0,
    "sample_queue_limit": 256,
    "model_cache_size": 128,
    "workers": 1,
    "worker_index": None,
    "metrics_flush_seconds": 1.0,
    "slow_request_seconds": 1.0,
    "trace_export_enabled": True,
    "trace_export_max_bytes": 4 * 1024 * 1024,
    "trace_export_files": 2,
    "probe_interval_seconds": 0.0,
    "probe_sample_size": 512,
}

# (serve flags, fields that differ from _SERVE_DEFAULTS)
_SERVE_CONFIG_TABLE = {
    "defaults": ([], {}),
    "zero-means-off": (
        [
            "--max-queued-fits", "0", "--fit-timeout", "0",
            "--request-timeout", "0", "--sample-queue-limit", "0",
            "--model-cache-size", "0", "--slow-request-threshold", "0",
        ],
        {
            "max_queued_fits": None,
            "fit_timeout_seconds": None,
            "request_timeout_seconds": None,
            "sample_queue_limit": None,
            "model_cache_size": None,
            "slow_request_seconds": None,
        },
    ),
    "every-flag-non-default": (
        [
            "--epsilon-cap", "2.5", "--fit-workers", "2",
            "--log-level", "warning", "--max-queued-fits", "5",
            "--fit-timeout", "7.5", "--request-timeout", "12",
            "--sample-queue-limit", "9", "--model-cache-size", "4",
            "--workers", "2", "--slow-request-threshold", "0.5",
            "--no-trace-export",
            "--probe-interval", "3", "--probe-sample-size", "64",
        ],
        {
            "epsilon_cap": 2.5,
            "fit_workers": 2,
            "log_level": "warning",
            "max_queued_fits": 5,
            "fit_timeout_seconds": 7.5,
            "request_timeout_seconds": 12.0,
            "sample_queue_limit": 9,
            "model_cache_size": 4,
            "workers": 2,
            "slow_request_seconds": 0.5,
            "trace_export_enabled": False,
            "probe_interval_seconds": 3.0,
            "probe_sample_size": 64,
        },
    ),
    "no-trace-export": (["--no-trace-export"], {"trace_export_enabled": False}),
}


class TestServeConfig:
    """``dpcopula serve``'s flags come from ServiceConfig's fields."""

    def test_parser_offers_the_17_serve_flags(self):
        parser = build_parser()
        commands = next(
            action for action in parser._actions if action.dest == "command"
        )
        offered = {
            flag
            for action in commands.choices["serve"]._actions
            for flag in action.option_strings
        } - {"-h", "--help"}
        assert offered == {
            "--data-dir", "--host", "--port", "--verbose", "--workers",
            "--epsilon-cap", "--fit-workers", "--log-level",
            "--max-queued-fits", "--fit-timeout", "--request-timeout",
            "--sample-queue-limit", "--model-cache-size",
            "--slow-request-threshold",
            "--no-trace-export", "--probe-interval", "--probe-sample-size",
        }

    @pytest.mark.parametrize("row", list(_SERVE_CONFIG_TABLE))
    def test_serve_builds_the_pinned_config(self, row):
        from dataclasses import asdict

        from repro.service import ServiceConfig

        flags, changed = _SERVE_CONFIG_TABLE[row]
        args = build_parser().parse_args(["serve", "--data-dir", "svc", *flags])
        config = ServiceConfig.from_flags(args)
        assert asdict(config) == {**_SERVE_DEFAULTS, **changed}

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon-cap", "0"),
            ("--fit-workers", "0"),
            ("--max-queued-fits", "-1"),
            ("--sample-queue-limit", "-3"),
            ("--workers", "0"),
            ("--model-cache-size", "-1"),
            ("--probe-sample-size", "0"),
            ("--request-timeout", "-1"),
        ],
    )
    def test_out_of_range_value_exits_2_before_the_data_dir_exists(
        self, flag, value, tmp_path, monkeypatch, capsys
    ):
        import repro.service

        def no_server(*args, **kwargs):
            raise AssertionError(f"serve {flag} {value} started a server")

        monkeypatch.setattr(repro.service, "build_server", no_server)
        data_dir = tmp_path / "svc"
        code = main(["serve", "--data-dir", str(data_dir), "--port", "0", flag, value])
        assert code == 2
        assert f"error: {flag}" in capsys.readouterr().err
        assert not data_dir.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--parallel-backend", "thread"),
            ("--parallel-workers", "2"),
            ("--coalesce-window", "0.002"),
            ("--max-coalesced-records", "1000"),
        ],
    )
    def test_retired_parallel_flag_exits_2_before_the_data_dir_exists(
        self, flag, value, tmp_path, monkeypatch, capsys
    ):
        """Retired flags are refused: the service picks a fit's
        parallelism itself, and the coalescer neither waits for peers
        nor takes a batch budget."""
        import repro.service

        def no_server(*args, **kwargs):
            raise AssertionError(f"serve {flag} {value} started a server")

        monkeypatch.setattr(repro.service, "build_server", no_server)
        data_dir = tmp_path / "svc"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--data-dir", str(data_dir), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not data_dir.exists()

    def test_fleet_without_reuse_port_exits_2_before_the_data_dir_exists(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every fleet worker binds the port with SO_REUSEPORT; where the
        platform lacks it, ``--workers`` above 1 is refused."""
        import repro.service.prefork

        monkeypatch.setattr(repro.service.prefork, "SUPPORTS_REUSE_PORT", False)
        data_dir = tmp_path / "svc"
        code = main(
            ["serve", "--data-dir", str(data_dir), "--port", "0", "--workers", "2"]
        )
        assert code == 2
        assert "error: --workers 2 needs SO_REUSEPORT" in capsys.readouterr().err
        assert not data_dir.exists()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_serve_banner_reports_the_code_picked_fit_threads(
        self, cpus, tmp_path, monkeypatch, capsys
    ):
        import os

        import repro.cli
        import repro.service

        class _Server:
            server_address = ("127.0.0.1", 8639)

            def serve_forever(self):
                pass

            def server_close(self):
                pass

        monkeypatch.setattr(repro.service, "build_server", lambda *a, **kw: _Server())
        monkeypatch.setattr(repro.cli.signal, "signal", lambda *args: None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert main(["serve", "--data-dir", str(tmp_path / "svc")]) == 0
        banner = f"fit pool: 1 worker(s), {len(cpus)} thread(s) per fit"
        assert banner in capsys.readouterr().out

    def test_library_config_checks_ranges_by_field_name(self, tmp_path):
        from repro.service import ServiceConfig

        # In code 0.0 is a threshold (every request is slow), not "off".
        config = ServiceConfig(data_dir=tmp_path, slow_request_seconds=0.0)
        assert config.slow_request_seconds == 0.0
        with pytest.raises(ValueError, match="slow_request_seconds must be >= 0"):
            ServiceConfig(data_dir=tmp_path, slow_request_seconds=-1.0)


class TestObservatoryCommands:
    def test_budget_counts_an_unterminated_last_ledger_line(
        self, tmp_path, capsys
    ):
        # The append that wrote the 2.0 entry died before its newline;
        # the running service's accountant counts the entry.
        (tmp_path / "ledger.jsonl").write_text(
            '{"dataset": "adult", "epsilon": 1.0, "key": "fit:j1"}\n'
            '{"dataset": "adult", "epsilon": 2.0, "key": "fit:j2"}'
        )
        assert main(["budget", "--data-dir", str(tmp_path), "--json"]) == 0
        (timeline,) = json.loads(capsys.readouterr().out)["datasets"]
        assert timeline["epsilon_spent"] == 3.0

    def test_top_renders_probe_results_offline(
        self, tmp_path, small_dataset, capsys
    ):
        from repro.core.dpcopula import DPCopulaKendall
        from repro.io import ReleasedModel
        from repro.service.registry import ModelRegistry
        from repro.telemetry.observatory import UtilityProbe

        model = ReleasedModel.from_synthesizer(
            DPCopulaKendall(epsilon=1.0, rng=0).fit(small_dataset)
        )
        registry = ModelRegistry(tmp_path / "models")
        registry.put(model, dataset_id="d", method="kendall", model_id="m1")
        UtilityProbe(registry, tmp_path / "observatory", sample_size=64).run_once()

        assert main(["top", "--data-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("-- utility probes --") + 2
        assert lines[header].split() == [
            "MODEL", "TVD(max)", "2WAY(max)", "TAU", "ERR", "MISFIT"
        ]
        assert lines[header + 1].split()[0] == "m1"


class TestJobsCommand:
    @pytest.fixture
    def data_dir(self, tmp_path):
        """A journal with one queued record whose seed was nulled on disk."""
        from repro.resilience.journal import JobJournal, JobRecord

        journal = JobJournal(tmp_path / "jobs")
        journal.create(
            JobRecord(job_id="bad", dataset_id="d", method="kendall",
                      epsilon=1.0, k=8.0, seed=1)
        )
        path = journal.directory / "bad.json"
        payload = json.loads(path.read_text())
        payload["seed"] = None
        path.write_text(json.dumps(payload))
        return tmp_path

    @pytest.mark.parametrize("action", ["--show", "--cancel"])
    def test_malformed_record_prints_one_line_and_exits_1(
        self, data_dir, action, capsys
    ):
        assert main(["jobs", "--data-dir", str(data_dir), action, "bad"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("malformed record for job 'bad'")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("action", ["--show", "--cancel"])
    def test_unknown_job_exits_1(self, data_dir, action, capsys):
        assert main(["jobs", "--data-dir", str(data_dir), action, "nope"]) == 1
        assert capsys.readouterr().err == "no journaled job with id 'nope'\n"


class TestSynthesize:
    def test_end_to_end(self, csv_dataset, tmp_path, capsys):
        input_path, original = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        code = main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--epsilon",
                "1.0",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        synthetic = load_dataset_csv(output_path)
        assert synthetic.schema == original.schema
        assert synthetic.n_records == original.n_records
        out = capsys.readouterr().out
        assert "PrivacyBudget" in out

    def test_profile_prints_a_stage_tree(self, csv_dataset, tmp_path, capsys):
        input_path, original = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        code = main(
            [
                "fit",
                str(input_path),
                str(output_path),
                "--seed",
                "0",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage timings (seconds):" in out
        for stage in ("synthesize", "fit", "margins", "correlation", "sampling"):
            assert stage in out, f"missing stage {stage!r} in profile tree"
        # The profiled run is bitwise identical to an unprofiled one.
        profiled = load_dataset_csv(output_path)
        plain_path = tmp_path / "plain.csv"
        assert main(["synthesize", str(input_path), str(plain_path), "--seed", "0"]) == 0
        np.testing.assert_array_equal(
            profiled.values, load_dataset_csv(plain_path).values
        )

    def test_profile_survives_the_process_backend(
        self, csv_dataset, tmp_path, capsys
    ):
        input_path, _ = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        code = main(
            [
                "fit",
                str(input_path),
                str(output_path),
                "--seed",
                "0",
                "--profile",
                "--parallel-backend",
                "process",
                "--parallel-workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parallel.map_tasks" in out
        assert "parallel.chunk" in out

    def test_resample_profile(self, csv_dataset, tmp_path, capsys):
        input_path, _ = csv_dataset
        model_path = tmp_path / "model.npz"
        assert (
            main(
                [
                    "synthesize",
                    str(input_path),
                    str(tmp_path / "s.csv"),
                    "--seed",
                    "0",
                    "--save-model",
                    str(model_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "resample",
                str(model_path),
                str(tmp_path / "r.csv"),
                "--n",
                "50",
                "--seed",
                "1",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage timings (seconds):" in out
        assert "resample" in out
        assert "sampling" in out

    def test_n_override(self, csv_dataset, tmp_path):
        input_path, _ = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--n",
                "123",
                "--seed",
                "0",
            ]
        )
        assert load_dataset_csv(output_path).n_records == 123

    def test_save_model_and_resample(self, csv_dataset, tmp_path):
        input_path, _ = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        model_path = tmp_path / "model.npz"
        main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--seed",
                "0",
                "--save-model",
                str(model_path),
            ]
        )
        assert model_path.exists()
        more_path = tmp_path / "more.csv"
        code = main(
            ["resample", str(model_path), str(more_path), "--n", "50", "--seed", "1"]
        )
        assert code == 0
        assert load_dataset_csv(more_path).n_records == 50

    def test_report_flag(self, csv_dataset, tmp_path, capsys):
        input_path, _ = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--seed",
                "0",
                "--report",
            ]
        )
        out = capsys.readouterr().out
        assert "UtilityReport" in out
        assert "TVD" in out

    def test_mle_method(self, csv_dataset, tmp_path):
        input_path, original = csv_dataset
        output_path = tmp_path / "synthetic.csv"
        code = main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--method",
                "mle",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert load_dataset_csv(output_path).schema == original.schema


class TestHybridViaCLI:
    def test_hybrid_save_model_is_an_error(
        self, tmp_path, mixed_schema_dataset, capsys
    ):
        """--save-model with --method hybrid must fail fast, not warn."""
        input_path = tmp_path / "mixed.csv"
        save_dataset_csv(mixed_schema_dataset, input_path)
        output_path = tmp_path / "synthetic.csv"
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--method",
                "hybrid",
                "--save-model",
                str(model_path),
            ]
        )
        assert code != 0
        assert "unsupported for the hybrid method" in capsys.readouterr().err
        # Failing fast: no synthetic output, no model file.
        assert not model_path.exists()
        assert not output_path.exists()

    def test_hybrid_on_mixed_schema(self, tmp_path, mixed_schema_dataset):
        input_path = tmp_path / "mixed.csv"
        save_dataset_csv(mixed_schema_dataset, input_path)
        output_path = tmp_path / "synthetic.csv"
        code = main(
            [
                "synthesize",
                str(input_path),
                str(output_path),
                "--method",
                "hybrid",
                "--epsilon",
                "2.0",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        synthetic = load_dataset_csv(output_path)
        assert synthetic.schema == mixed_schema_dataset.schema


class TestInspect:
    def test_prints_schema(self, csv_dataset, capsys):
        input_path, _ = csv_dataset
        assert main(["inspect", str(input_path)]) == 0
        out = capsys.readouterr().out
        assert "a: |A| = 60" in out
        assert "large-domain" in out

    def test_flags_small_domains(self, tmp_path, mixed_schema_dataset, capsys):
        input_path = tmp_path / "mixed.csv"
        save_dataset_csv(mixed_schema_dataset, input_path)
        main(["inspect", str(input_path)])
        out = capsys.readouterr().out
        assert "small-domain attributes present" in out

    def test_json_output(self, csv_dataset, capsys):
        import json

        input_path, original = csv_dataset
        assert main(["inspect", str(input_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] == original.n_records
        assert summary["attributes"] == [
            {"name": "a", "domain_size": 60, "kind": "large-domain"},
            {"name": "b", "domain_size": 80, "kind": "large-domain"},
        ]
        assert summary["hybrid_recommended"] is False

    def test_json_matches_service_serializer(self, csv_dataset, capsys):
        """The CLI and the service share one inspect document."""
        import json

        from repro.service.serializers import dataset_summary

        input_path, original = csv_dataset
        main(["inspect", str(input_path), "--json"])
        printed = json.loads(capsys.readouterr().out)
        assert printed == dataset_summary(original)


class TestEvaluate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["evaluate", "--scenario", "smoke-mixed"])
        assert args.epsilon == 1.0
        assert args.marginal_k == 3
        assert args.queries == 60
        assert args.list is False

    def test_list_prints_catalog(self, capsys):
        assert main(["evaluate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke-mixed" in out
        assert "acs-income" in out
        assert "target=" in out

    def test_scenario_required_without_list(self, capsys):
        assert main(["evaluate"]) == 2
        assert "--scenario is required" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["evaluate", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_smoke_run_writes_report(self, tmp_path, capsys):
        import json as json_module

        output = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--scenario",
                "smoke-mixed",
                "--methods",
                "dpcopula-kendall,identity",
                "--queries",
                "10",
                "--marginal-k",
                "2",
                "--max-marginals",
                "4",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Rendered table names both competitors.
        assert "dpcopula-kendall" in out and "identity" in out
        document = json_module.loads(output.read_text())
        assert document["scenario"] == "smoke-mixed"
        assert [m["method"] for m in document["methods"]] == [
            "dpcopula-kendall",
            "identity",
        ]

    def test_json_flag_prints_document(self, capsys):
        code = main(
            [
                "evaluate",
                "--scenario",
                "smoke-mixed",
                "--methods",
                "dpcopula-kendall",
                "--queries",
                "5",
                "--marginal-k",
                "1",
                "--max-marginals",
                "2",
                "--json",
            ]
        )
        assert code == 0
        import json as json_module

        document = json_module.loads(capsys.readouterr().out)
        assert document["epsilon"] == 1.0
