#!/usr/bin/env python3
"""Docs link checker: keep the prose honest.

Walks the repo's markdown (README.md, DESIGN.md, EXPERIMENTS.md,
CHANGES.md, docs/*.md) and verifies that

1. every **relative markdown link** ``[text](target)`` points at a file
   that exists (``http(s)://``, ``mailto:`` and pure ``#anchor`` links
   are skipped; a trailing ``#anchor`` is stripped before checking);
2. every **backtick code reference** that looks like a repo path --
   a token starting with ``src/``, ``docs/``, ``tests/``,
   ``benchmarks/``, ``examples/`` or ``scripts/``, or a root-level
   ``*.md`` -- resolves, and when it carries a ``:LINE`` suffix the
   file actually has that many lines.  ``::`` pytest selectors are
   checked by their file part; glob-ish tokens (``*`` or ``{``) and
   dotted module paths are ignored;
3. every **registered diagnostic code** (``repro.errors``'s unified
   namespace, populated by importing the code-registering packages)
   appears in ``docs/DIAGNOSTICS.md``, and every code row of the
   catalogue's tables is registered -- the catalogue can neither fall
   behind the code nor keep a deleted code;
4. every **``src/repro`` package** (a directory with ``__init__.py``)
   has a ``repro.<name>`` row in README.md's architecture inventory;
5. every **``REPRO_*`` environment variable** the prose names is read
   somewhere under ``src/`` (appears there as a string literal), so a
   removed switch cannot live on in the docs.  CHANGES.md is history
   and is exempt;
6. every **span name** passed literally to ``obs.span(...)`` or
   ``obs.start_span(...)`` under ``src/`` has a row in the span
   catalogue of ``docs/OBSERVABILITY.md``.

Exit status: 0 when everything resolves, 1 otherwise (one line per
broken reference).  Wired into ``make check-docs`` / ``make check``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    p
    for p in [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        REPO / "CHANGES.md",
        *(REPO / "docs").glob("*.md"),
    ]
    if p.exists()
)

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`]+)`")
# Repo-path-shaped tokens only: a recognized directory prefix or a
# root-level markdown file.  Everything else in backticks (CLI flags,
# module dotted paths, content models) is out of scope by design.
PATH_TOKEN = re.compile(
    r"^(?:(?:src|docs|tests|benchmarks|examples|scripts)/[\w./\-]+"
    r"|[\w\-]+\.md)"
    r"(?::(\d+))?$"
)
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
SPAN_CATALOGUE = "## Span catalogue"
SPAN_ROW = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)
CODE_ROW = re.compile(r"^\| ([A-Z]+[0-9]{3}) \|", re.MULTILINE)


def iter_md_links(text: str):
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield match, target


def check_file(path: Path) -> list[str]:
    problems = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)

    def lineno(pos: int) -> int:
        return text.count("\n", 0, pos) + 1

    for match, target in iter_md_links(text):
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{rel}:{lineno(match.start())}: broken link ({target})"
            )

    for match in CODE_SPAN.finditer(text):
        token = match.group(1).split("::", 1)[0].strip()
        if "*" in token or "{" in token or " " in token:
            continue
        path_match = PATH_TOKEN.match(token)
        if not path_match:
            continue
        file_part, _, line_part = token.partition(":")
        resolved = REPO / file_part
        if file_part.endswith("/"):
            if not resolved.is_dir():
                problems.append(
                    f"{rel}:{lineno(match.start())}: "
                    f"code ref to missing directory ({token})"
                )
            continue
        if not resolved.is_file():
            problems.append(
                f"{rel}:{lineno(match.start())}: "
                f"code ref to missing file ({token})"
            )
        elif line_part:
            n_lines = resolved.read_text(encoding="utf-8").count("\n") + 1
            if int(line_part) > n_lines:
                problems.append(
                    f"{rel}:{lineno(match.start())}: code ref past end of "
                    f"file ({token}; {file_part} has {n_lines} lines)"
                )
    return problems


def check_diagnostic_catalogue() -> list[str]:
    """Registered diagnostic codes and DIAGNOSTICS.md's rows must agree."""
    sys.path.insert(0, str(REPO / "src"))
    # Importing these packages runs every register_diagnostic_code /
    # register_rule call, filling the unified namespace.
    import repro.errors  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.mediator  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.errors import DIAGNOSTIC_CODES

    catalogue = (REPO / "docs" / "DIAGNOSTICS.md").read_text(
        encoding="utf-8"
    )
    problems = [
        f"docs/DIAGNOSTICS.md: registered code {code} ({summary}) "
        "is not in the catalogue"
        for code, summary in sorted(DIAGNOSTIC_CODES.items())
        if code not in catalogue
    ]
    for match in CODE_ROW.finditer(catalogue):
        if match.group(1) not in DIAGNOSTIC_CODES:
            line = catalogue.count("\n", 0, match.start()) + 1
            problems.append(
                f"docs/DIAGNOSTICS.md:{line}: catalogued code "
                f"{match.group(1)} is not registered"
            )
    return problems


def check_readme_inventory() -> list[str]:
    """Every src/repro package needs a README architecture-inventory row."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    problems = []
    for package in sorted((REPO / "src" / "repro").iterdir()):
        if not (package / "__init__.py").is_file():
            continue
        if f"repro.{package.name}" not in readme:
            problems.append(
                f"README.md: package src/repro/{package.name} has no "
                f"repro.{package.name} row in the architecture inventory"
            )
    return problems


def check_environment_variables(docs: list[Path]) -> list[str]:
    """Every ``REPRO_*`` variable a doc names must be read in ``src/``."""
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((REPO / "src").rglob("*.py"))
    )
    problems = []
    for doc in docs:
        if doc.name == "CHANGES.md":
            continue
        text = doc.read_text(encoding="utf-8")
        for match in ENV_VAR.finditer(text):
            name = match.group(0)
            if f'"{name}"' not in source and f"'{name}'" not in source:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: environment variable"
                    f" {name} is not read anywhere under src/"
                )
    return problems


def check_span_catalogue() -> list[str]:
    """Every span name ``src/`` opens must be in the span catalogue."""
    doc = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = doc.partition(SPAN_CATALOGUE)[2].partition("\n## ")[0]
    catalogued = set(SPAN_ROW.findall(section))
    problems = []
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = sorted(
            (node.lineno, name)
            for node in ast.walk(tree)
            if (name := _span_name(node)) is not None
        )
        problems.extend(
            f"{path.relative_to(REPO)}:{line}: span {name} "
            "is not in the docs/OBSERVABILITY.md span catalogue"
            for line, name in spans
            if name not in catalogued
        )
    return problems


def _span_name(node: ast.AST) -> str | None:
    """The literal name of an ``obs.span(...)``/``obs.start_span(...)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("span", "start_span")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "obs"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return None
    return node.args[0].value


def main() -> int:
    problems = []
    for doc in DOC_FILES:
        problems.extend(check_file(doc))
    problems.extend(check_diagnostic_catalogue())
    problems.extend(check_readme_inventory())
    problems.extend(check_environment_variables(DOC_FILES))
    problems.extend(check_span_catalogue())
    for problem in problems:
        print(problem)
    checked = ", ".join(str(p.relative_to(REPO)) for p in DOC_FILES)
    if problems:
        print(f"\n{len(problems)} broken reference(s) across: {checked}")
        return 1
    print(f"docs links OK ({len(DOC_FILES)} files: {checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
