"""The public API surface: everything advertised must import and resolve."""

import importlib
import re
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.conditional",
    "repro.core.convergence",
    "repro.core.copula",
    "repro.core.dpcopula",
    "repro.core.hybrid",
    "repro.core.kendall_matrix",
    "repro.core.margins",
    "repro.core.mle",
    "repro.core.sampling",
    "repro.core.selection",
    "repro.core.streaming",
    "repro.data",
    "repro.data.census",
    "repro.data.dataset",
    "repro.data.synthetic",
    "repro.dp",
    "repro.dp.budget",
    "repro.dp.mechanisms",
    "repro.dp.sensitivity",
    "repro.dp.validation",
    "repro.experiments",
    "repro.experiments.cli",
    "repro.experiments.config",
    "repro.experiments.figures",
    "repro.experiments.plotting",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.tables",
    "repro.histograms",
    "repro.histograms.base",
    "repro.histograms.dpcube",
    "repro.histograms.efpa",
    "repro.histograms.fp",
    "repro.histograms.grid",
    "repro.histograms.hierarchical",
    "repro.histograms.identity",
    "repro.histograms.php",
    "repro.histograms.postprocess",
    "repro.histograms.privelet",
    "repro.histograms.psd",
    "repro.histograms.structurefirst",
    "repro.io",
    "repro.queries",
    "repro.queries.evaluation",
    "repro.queries.metrics",
    "repro.queries.range_query",
    "repro.service",
    "repro.service.accountant",
    "repro.service.app",
    "repro.service.config",
    "repro.service.datasets",
    "repro.service.errors",
    "repro.service.http",
    "repro.service.jobs",
    "repro.service.registry",
    "repro.service.serializers",
    "repro.stats",
    "repro.telemetry",
    "repro.telemetry.logs",
    "repro.telemetry.metrics",
    "repro.telemetry.tracing",
    "repro.stats.copula_math",
    "repro.stats.correlation",
    "repro.stats.distributions",
    "repro.stats.ecdf",
    "repro.stats.goodness_of_fit",
    "repro.stats.kendall",
    "repro.stats.psd_repair",
    "repro.utils",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "module_name",
    [m for m in PUBLIC_MODULES if "." in m or m == "repro"],
)
def test_all_exports_resolve(module_name):
    """Every name in a module's __all__ must actually exist."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_names():
    for name in [
        "DPCopulaKendall",
        "DPCopulaMLE",
        "DPCopulaHybrid",
        "EvolvingDPCopula",
        "GaussianCopulaModel",
        "TCopulaModel",
        "PrivacyBudget",
        "Dataset",
        "Schema",
        "ReleasedModel",
        "utility_report",
        "random_workload",
        "evaluate_workload",
    ]:
        assert hasattr(repro, name)


def test_every_public_function_has_docstring():
    """Documentation invariant: public callables carry doc comments."""
    import inspect

    undocumented = []
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_package_reads_only_the_log_and_fault_environment_variables():
    """Settings are serve flags and ServiceConfig fields.  The only
    ``DPCOPULA_*`` variables the package names are the log level and the
    fault-injection harness's two."""
    named = {
        name
        for path in Path(repro.__file__).parent.rglob("*.py")
        for name in re.findall(r"DPCOPULA_\w+", path.read_text(encoding="utf-8"))
    }
    assert named <= {"DPCOPULA_LOG", "DPCOPULA_FAULTS", "DPCOPULA_FAULTS_LATCH"}
