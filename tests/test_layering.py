"""Package layering, read statically from the import statements in ``src/repro``.

The stats registry lives in :mod:`repro.obs.registry`; the regex
kernel, the engine, the store and the mediator report through it.  So
nothing may reach the registry through :mod:`repro.regex.kernel` (a
re-export kept only for the benchmark harness), and ``repro.obs``
itself must not depend on any layer that reports into it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

KERNEL_SEAM = "repro.regex.kernel"
OBS_MUST_NOT_IMPORT = (
    "repro.regex",
    "repro.mediator",
    "repro.store",
    "repro.serve",
    "repro.xmas",
)


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: Path) -> set[str]:
    """Every absolute module name an ``import`` in ``path`` may load.

    ``from package import name`` yields both ``package`` and
    ``package.name``, since ``name`` may be a submodule.
    """
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                if node.module:
                    base = base + node.module.split(".")
                parent = ".".join(base)
            else:
                parent = node.module or ""
            found.add(parent)
            found.update(f"{parent}.{alias.name}" for alias in node.names)
    return found


def imports_any(path: Path, targets) -> list[str]:
    return sorted(
        name
        for name in imported_modules(path)
        for target in targets
        if name == target or name.startswith(target + ".")
    )


def modules():
    return sorted((SRC / "repro").rglob("*.py"))


def test_resolves_relative_imports():
    engine = imported_modules(SRC / "repro" / "xmas" / "engine.py")
    assert {"repro.obs", "repro.xmlmodel.index"} <= engine
    tracing = imported_modules(SRC / "repro" / "obs" / "tracing.py")
    assert "repro.obs.metrics" in tracing


def test_only_the_seam_imports_the_regex_kernel():
    seam = SRC / "repro" / "regex" / "kernel.py"
    offenders = {
        module_name(path): hits
        for path in modules()
        if path != seam and (hits := imports_any(path, [KERNEL_SEAM]))
    }
    assert offenders == {}


def test_obs_depends_on_no_reporting_layer():
    offenders = {
        module_name(path): hits
        for path in modules()
        if module_name(path).startswith("repro.obs")
        and (hits := imports_any(path, OBS_MUST_NOT_IMPORT))
    }
    assert offenders == {}
