"""The documentation must stay navigable, runnable and CLI-accurate.

Runs the ``tools/check_docs.py`` checks over the real docs (they must
be clean) and over deliberately broken fixtures (each check must catch
its failure mode).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepositoryDocs:
    def test_docs_are_clean(self):
        assert check_docs.run_all() == []

    def test_every_doc_page_is_indexed(self):
        # The reachability check is not vacuous: the index exists and
        # links every page directly.
        index = (REPO_ROOT / "docs" / "README.md").read_text()
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            if page.name != "README.md":
                assert f"({page.name})" in index, page.name

    def test_docs_contain_runnable_examples(self):
        # The doctest check must have something to chew on.
        blocks = [
            block
            for path in check_docs.doc_files()
            for block in check_docs.extract_code_blocks(path, "pycon")
        ]
        assert len(blocks) >= 3

    def test_docs_mention_every_resilience_metric(self):
        observability = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for metric in [
            "dpcopula_jobs_state",
            "dpcopula_jobs_recovered_total",
            "dpcopula_fit_queue_refusals_total",
            "dpcopula_http_throttled_total",
            "dpcopula_epsilon_refunded_total",
            "dpcopula_retries_total",
            "dpcopula_deadline_exceeded_total",
            "dpcopula_faults_injected_total",
        ]:
            assert metric in observability, metric


@pytest.fixture
def doc_tree(tmp_path, monkeypatch):
    """A miniature repo-with-docs the checks are repointed at."""
    docs = tmp_path / "docs"
    docs.mkdir()
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOCS_DIR", docs)
    (tmp_path / "README.md").write_text("# Root\n\n[docs](docs/README.md)\n")
    (docs / "README.md").write_text("# Index\n\n[Guide](GUIDE.md)\n")
    (docs / "GUIDE.md").write_text("# Guide\n\nAll good.\n")
    return tmp_path


class TestBrokenDocsAreCaught:
    def test_broken_relative_link(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text("[gone](MISSING.md)\n")
        errors = check_docs.run_all()
        assert any("broken link -> MISSING.md" in e for e in errors)

    def test_links_inside_code_blocks_are_ignored(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "```\n[not a link](MISSING.md)\n```\n"
        )
        assert check_docs.run_all() == []

    def test_orphan_page(self, doc_tree):
        (doc_tree / "docs" / "ORPHAN.md").write_text("# Nobody links here\n")
        errors = check_docs.run_all()
        assert any("ORPHAN.md: not reachable" in e for e in errors)

    def test_failing_doctest(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "```pycon\n>>> 1 + 1\n3\n```\n"
        )
        errors = check_docs.run_all()
        assert any("doctest failure" in e for e in errors)

    def test_unknown_cli_flag(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "```bash\ndpcopula serve --no-such-flag\n```\n"
        )
        errors = check_docs.run_all()
        assert any("no flag --no-such-flag" in e for e in errors)

    def test_unknown_cli_command(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "```bash\ndpcopula frobnicate data.csv\n```\n"
        )
        errors = check_docs.run_all()
        assert any("unknown dpcopula command 'frobnicate'" in e for e in errors)

    def test_unknown_flag_in_prose(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "Tune it with `--no-such-flag`.\n"
        )
        errors = check_docs.run_all()
        assert any("GUIDE.md:1: no parser" in e for e in errors)
        assert any("flag --no-such-flag" in e for e in errors)

    def test_known_prose_flags_pass(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "Run `dpcopula serve --workers N`, or "
            "`python -m repro.experiments --claims`; `--json` everywhere.\n"
        )
        assert check_docs.run_all() == []

    def test_known_flags_pass(self, doc_tree):
        (doc_tree / "docs" / "GUIDE.md").write_text(
            "```bash\n"
            "dpcopula jobs --data-dir ./svc --json\n"
            "python -m repro serve --data-dir ./svc --max-queued-fits 8\n"
            "```\n"
        )
        assert check_docs.run_all() == []
