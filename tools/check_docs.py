#!/usr/bin/env python
"""Documentation checks, run in CI (`python tools/check_docs.py`).

Five checks over ``README.md`` and ``docs/*.md``:

1. **Links** — every relative markdown link resolves to an existing
   file or directory in the repository.
2. **Reachability** — every page under ``docs/`` is reachable by
   following links from the ``docs/README.md`` index (no orphan docs).
3. **Doctests** — every fenced ```` ```pycon ```` example runs and
   produces the shown output (the same contract as docstring examples).
4. **CLI flags** — every ``--flag`` a ``dpcopula <command>`` line in a
   ```` ```bash ```` block mentions actually exists on that
   subcommand's argument parser, so the docs cannot drift from the CLI.
5. **Prose flags** — every ``--flag`` inside a backticked span of prose
   exists on a parser the docs name: a ``dpcopula`` subcommand's,
   ``python -m repro.experiments``'s, or one a benchmark script declares
   with ``add_argument``.  A deleted flag cannot linger in a sentence.

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import doctest
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\S*)\s*$")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def doc_files() -> List[Path]:
    return [REPO_ROOT / "README.md", *sorted(DOCS_DIR.glob("*.md"))]


def _iter_prose_lines(path: Path) -> Iterable[Tuple[int, str]]:
    """(lineno, line) for lines outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def extract_code_blocks(path: Path, language: str) -> List[Tuple[int, str]]:
    """(first-content-lineno, text) of every ```<language> block."""
    blocks: List[Tuple[int, str]] = []
    current: List[str] = []
    start = 0
    in_block = False
    in_other_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        fence = FENCE_RE.match(line.strip())
        if fence:
            if in_block:
                blocks.append((start, "\n".join(current)))
                current, in_block = [], False
            elif in_other_fence:
                in_other_fence = False
            elif fence.group(1) == language:
                in_block, start = True, lineno + 1
            else:
                in_other_fence = True
            continue
        if in_block:
            current.append(line)
    return blocks


def relative_links(path: Path) -> List[Tuple[int, str]]:
    """(lineno, target) for every relative link outside code blocks."""
    links = []
    for lineno, line in _iter_prose_lines(path):
        for target in LINK_RE.findall(line):
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            links.append((lineno, target.split("#")[0]))
    return links


def check_links(files: List[Path]) -> List[str]:
    errors = []
    for path in files:
        for lineno, target in relative_links(path):
            if not target:
                continue
            if not (path.parent / target).exists():
                rel = path.relative_to(REPO_ROOT)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def check_reachability() -> List[str]:
    """Every docs/*.md must be reachable from the docs/README.md index."""
    index = DOCS_DIR / "README.md"
    if not index.exists():
        return ["docs/README.md: missing documentation index"]
    seen: Set[Path] = set()
    frontier = [index]
    while frontier:
        page = frontier.pop()
        if page in seen or page.suffix != ".md" or not page.exists():
            continue
        seen.add(page)
        for _, target in relative_links(page):
            if target:
                frontier.append((page.parent / target).resolve())
    return [
        f"docs/{orphan.name}: not reachable from docs/README.md"
        for orphan in sorted(DOCS_DIR.glob("*.md"))
        if orphan.resolve() not in seen
    ]


def check_doctests(files: List[Path]) -> List[str]:
    parser = doctest.DocTestParser()
    errors = []
    for path in files:
        rel = path.relative_to(REPO_ROOT)
        for lineno, text in extract_code_blocks(path, "pycon"):
            test = parser.get_doctest(
                text, {}, name=str(rel), filename=str(path), lineno=lineno - 1
            )
            if not test.examples:
                continue
            transcript: List[str] = []
            runner = doctest.DocTestRunner(verbose=False)
            runner.run(test, out=transcript.append)
            if runner.failures:
                errors.append(
                    f"{rel}:{lineno}: doctest failure\n"
                    + "".join(transcript).rstrip()
                )
    return errors


def _cli_option_index() -> Dict[str, Set[str]]:
    """Subcommand name -> the option strings its parser accepts."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    index: Dict[str, Set[str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                index[name] = {
                    option
                    for sub_action in subparser._actions
                    for option in sub_action.option_strings
                }
    return index


def check_cli_flags(files: List[Path]) -> List[str]:
    index = _cli_option_index()
    errors = []
    for path in files:
        rel = path.relative_to(REPO_ROOT)
        for start, text in extract_code_blocks(path, "bash"):
            for offset, line in enumerate(text.splitlines()):
                tokens = line.split("#")[0].split()
                if "dpcopula" in tokens:
                    tokens = tokens[tokens.index("dpcopula") + 1 :]
                elif tokens[:3] == ["python", "-m", "repro"]:
                    tokens = tokens[3:]
                else:
                    continue
                if not tokens:
                    continue
                command, flags = tokens[0], tokens[1:]
                lineno = start + offset
                if command not in index:
                    errors.append(
                        f"{rel}:{lineno}: unknown dpcopula command "
                        f"{command!r} (commands: {sorted(index)})"
                    )
                    continue
                for flag in flags:
                    if not flag.startswith("--"):
                        continue
                    name = flag.split("=")[0]
                    if name not in index[command]:
                        errors.append(
                            f"{rel}:{lineno}: dpcopula {command} has no "
                            f"flag {name}"
                        )
    return errors


def _benchmark_flags() -> Set[str]:
    """Every ``--flag`` a benchmark script passes to ``add_argument``."""
    flags: Set[str] = set()
    for script in sorted((REPO_ROOT / "benchmarks").rglob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                flags.update(
                    arg.value
                    for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                )
    return flags


def check_prose_flags(files: List[Path]) -> List[str]:
    from repro.experiments.cli import build_parser as experiments_parser

    known = set().union(*_cli_option_index().values(), _benchmark_flags())
    known.update(
        option
        for action in experiments_parser()._actions
        for option in action.option_strings
    )
    errors = []
    for path in files:
        rel = path.relative_to(REPO_ROOT)
        for lineno, line in _iter_prose_lines(path):
            for span in CODE_SPAN_RE.findall(line):
                for flag in FLAG_RE.findall(span):
                    if flag not in known:
                        errors.append(
                            f"{rel}:{lineno}: no parser the docs name has "
                            f"flag {flag}"
                        )
    return errors


def run_all() -> List[str]:
    files = doc_files()
    return [
        *check_links(files),
        *check_reachability(),
        *check_doctests(files),
        *check_cli_flags(files),
        *check_prose_flags(files),
    ]


def main() -> int:
    errors = run_all()
    for error in errors:
        print(error)
    count = len(doc_files())
    if errors:
        print(f"check_docs: {len(errors)} problem(s) across {count} files")
        return 1
    print(
        f"check_docs: {count} files OK "
        "(links, reachability, doctests, CLI flags, prose flags)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
