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
   ``*.md`` or ``*.json`` -- resolves, and when it carries a ``:LINE``
   suffix the file actually has that many lines.  ``::`` pytest
   selectors are checked by their file part; glob-ish tokens (``*`` or
   ``{``) and dotted module paths are ignored.  CHANGES.md is history:
   there a path that no longer exists passes when git history has it;
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
   catalogue of ``docs/OBSERVABILITY.md``;
7. every **stats-registry name** (``repro.obs.registry``'s registered
   caches and sections, populated by importing the packages that
   register them) has a row in the stats catalogue of
   ``docs/OBSERVABILITY.md``, and every row there is registered;
8. every **``make <target>``** named in backticks is a target of the
   Makefile, so a deleted recipe cannot live on in the docs.
   CHANGES.md is history and is exempt;
9. every backticked **dotted ``repro.…`` reference** (optionally
   written as a call, ``repro.obs.kernel_stats()``) resolves by
   importing its longest module prefix and looking the rest up as
   attributes, so a deleted public name cannot live on in the docs.
   CHANGES.md is history and is exempt.

Exit status: 0 when everything resolves, 1 otherwise (one line per
broken reference).  Wired into ``make check-docs`` / ``make check``.
"""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
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
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
# Repo-path-shaped tokens only: a recognized directory prefix or a
# root-level markdown file.  Everything else in backticks (CLI flags,
# module dotted paths, content models) is out of scope by design.
PATH_TOKEN = re.compile(
    r"^(?:(?:src|docs|tests|benchmarks|examples|scripts)/[\w./\-]+"
    r"|[\w\-]+\.(?:md|json))"
    r"(?::(\d+))?$"
)
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
MAKE_CALL = re.compile(r"(?:^|\s)make ([\w][\w\-]*)")
DOTTED_REF = re.compile(r"^(repro(?:\.\w+)+)(?:\(.*\))?$")
MAKE_RULE = re.compile(r"^([\w\-][\w\- ]*):(?!=)", re.MULTILINE)
SPAN_CATALOGUE = "## Span catalogue"
STATS_CATALOGUE = "## Stats catalogue"
NAME_ROW = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)
CODE_ROW = re.compile(r"^\| ([A-Z]+[0-9]{3}) \|", re.MULTILINE)


def code_spans(text: str):
    """Inline code spans, with fenced blocks blanked first: a fence's
    backticks would otherwise pair with the prose after it."""
    prose = FENCE.sub(lambda block: "\n" * block.group(0).count("\n"), text)
    return CODE_SPAN.finditer(prose)


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

    for match in code_spans(text):
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
            if rel.name == "CHANGES.md" and _in_history(file_part):
                continue
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


def _in_history(path: str) -> bool:
    """Did any commit ever touch ``path``?"""
    result = subprocess.run(
        ["git", "log", "-1", "--format=%H", "--", path],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    return bool(result.stdout.strip())


def check_make_targets(docs: list[Path]) -> list[str]:
    """Every backticked ``make <target>`` must be a Makefile target."""
    makefile = (REPO / "Makefile").read_text(encoding="utf-8")
    targets = {
        target
        for match in MAKE_RULE.finditer(makefile)
        for target in match.group(1).split()
    }
    problems = []
    for doc in docs:
        if doc.name == "CHANGES.md":
            continue
        text = doc.read_text(encoding="utf-8")
        for span in code_spans(text):
            for call in MAKE_CALL.finditer(span.group(1)):
                if call.group(1) not in targets:
                    line = text.count("\n", 0, span.start()) + 1
                    problems.append(
                        f"{doc.relative_to(REPO)}:{line}: make target "
                        f"{call.group(1)} is not in the Makefile"
                    )
    return problems


def check_dotted_references(docs: list[Path]) -> list[str]:
    """Every backticked dotted ``repro.…`` name must resolve."""
    sys.path.insert(0, str(REPO / "src"))
    problems = []
    for doc in docs:
        if doc.name == "CHANGES.md":
            continue
        text = doc.read_text(encoding="utf-8")
        for span in code_spans(text):
            match = DOTTED_REF.match(span.group(1))
            if match and not _resolves(match.group(1)):
                line = text.count("\n", 0, span.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: {match.group(1)} "
                    "does not resolve"
                )
    return problems


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look up
    the remaining parts as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


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
    catalogued = set(NAME_ROW.findall(section))
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


def check_stats_catalogue() -> list[str]:
    """Registered caches/sections and the stats catalogue must agree."""
    sys.path.insert(0, str(REPO / "src"))
    # Importing these packages runs every register_cache /
    # register_stats_section call, filling the registry.
    import repro.mediator  # noqa: F401
    import repro.store  # noqa: F401
    from repro.obs import registry

    registered = {*registry.registered_caches(), *registry.registered_sections()}
    doc = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    head, _, rest = doc.partition(STATS_CATALOGUE)
    start = len(head) + len(STATS_CATALOGUE)
    section = rest.partition("\n## ")[0]
    rows = {match.group(1): match for match in NAME_ROW.finditer(section)}
    problems = [
        f"docs/OBSERVABILITY.md: registered stats name {name} "
        "is not in the stats catalogue"
        for name in sorted(registered - set(rows))
    ]
    for name, match in rows.items():
        if name not in registered:
            line = doc.count("\n", 0, start + match.start()) + 1
            problems.append(
                f"docs/OBSERVABILITY.md:{line}: catalogued stats name "
                f"{name} is not registered"
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
    problems.extend(check_stats_catalogue())
    problems.extend(check_make_targets(DOC_FILES))
    problems.extend(check_dotted_references(DOC_FILES))
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
