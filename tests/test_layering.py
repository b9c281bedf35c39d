"""Package layering, read statically from the import statements in ``src/repro``.

The stats registry lives in :mod:`repro.obs.registry`; the regex
kernel, the engine, the store and the mediator report through it.  So
nothing may reach the registry through :mod:`repro.regex.kernel` (a
re-export kept only for the benchmark harness), and ``repro.obs``
itself must not depend on any layer that reports into it.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

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


def called_names(path: Path) -> set[str]:
    """The names ``path`` calls, as ``name(...)`` or ``obj.name(...)``."""
    return {
        getattr(node.func, "attr", None) or getattr(node.func, "id", "")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    }


def test_one_transport_layer_per_source():
    # The mediator's one SourceTransport per logical source is the only
    # layer that times, retries or breaks a source call: no other
    # module builds one, and the fan-out cannot reach for one.
    builders = sorted(
        module_name(path)
        for path in modules()
        if "SourceTransport" in called_names(path)
    )
    assert builders == ["repro.mediator.mediator"]
    parallel = SRC / "repro" / "mediator" / "parallel.py"
    assert not any(
        name.endswith(".SourceTransport")
        for name in imported_modules(parallel)
    )


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench's tracer replaces each TARGETS entry in the namespace
    # its caller looks the name up in; a renamed or no longer imported
    # name would only show as a failed benchmark run.
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module, attribute_path, _ in tracer.TARGETS:
        owner, attribute = tracer._resolve(module, attribute_path)
        if attribute not in vars(owner):
            missing.append(f"{module}:{attribute_path}")
    assert missing == []


#: the module-level side tables ``src/repro`` keeps, by module: the
#: per-document index cache and the fan-out's per-thread nesting state
SIDE_TABLES = {
    ("repro.xmlmodel.index", "_INDEX_CACHE"),
    ("repro.mediator.parallel", "_FANOUT_STATE"),
}
SIDE_TABLE_FACTORIES = {"WeakKeyDictionary", "local"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_level_assignments(tree: ast.Module):
    """``(target names, value)`` of each assignment outside any
    function or class body."""
    pending: list[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, SCOPES):
            continue
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            yield names, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            name = getattr(node.target, "id", "")
            yield [name], node.value
        else:
            pending.extend(ast.iter_child_nodes(node))


def test_no_module_level_side_tables():
    # Data about a call belongs in the call's return value: a module
    # level weak-key table or thread-local is a side channel every
    # caller in the process shares.
    found = set()
    for path in modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for names, value in module_level_assignments(tree):
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            called = getattr(func, "attr", None) or getattr(func, "id", "")
            if called in SIDE_TABLE_FACTORIES:
                found.update((module_name(path), name) for name in names)
    assert found == SIDE_TABLES


#: every module-level table ``src/repro`` starts empty and fills as the
#: process runs, with the reason it is process-wide; a new one needs a
#: deliberate entry here
PROCESS_TABLES = {
    ("repro.errors", "DIAGNOSTIC_CODES"): "diagnostic code catalogue",
    ("repro.lint.registry", "_REGISTRY"): "lint rule catalogue",
    ("repro.obs.registry", "_CACHES"): "stats registry: caches",
    ("repro.obs.registry", "_SECTIONS"): "stats registry: sections",
    ("repro.obs.registry", "_INTERN_SIZES"): "stats registry: intern sizes",
    ("repro.obs.registry", "EVENTS"): "stats registry: decision counters",
    ("repro.obs.registry", "INTERN_HITS"): "stats registry: intern hits",
    ("repro.obs.registry", "INTERN_MISSES"): "stats registry: intern misses",
    ("repro.regex.language", "_SIGNATURES"): "one object per signature",
    ("repro.regex.language", "_EQUIV_PARENT"): "proven-equivalence union-find",
    ("repro.mediator.matview", "_LIVE_CACHES"): "weak: live caches, for stats",
    ("repro.mediator.sharding", "_LIVE_SHARDED"): "weak: live sources, for stats",
    ("repro.store.store", "_LIVE_STORES"): "weak: live stores, for stats",
    ("repro.xmlmodel.index", "_INDEX_CACHE"): "weak: an index per document",
    ("repro.xmlmodel.element", "_journal"): "the bounded mutation journal",
}
CONTAINER_FACTORIES = {
    "dict",
    "set",
    "list",
    "OrderedDict",
    "defaultdict",
    "Counter",
    "deque",
    "WeakSet",
    "WeakKeyDictionary",
    "WeakValueDictionary",
}


def starts_empty(value: ast.AST) -> bool:
    """Is ``value`` an empty container literal or factory call?"""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    called = getattr(func, "attr", None) or getattr(func, "id", "")
    # ``defaultdict(list)`` and ``deque(maxlen=N)`` start empty too
    positional = value.args[1:] if called == "defaultdict" else value.args
    return called in CONTAINER_FACTORIES and not positional


def test_every_process_wide_table_is_accounted_for():
    # A query's plan, an answer's provenance and the like belong to the
    # object they describe; a module-level table keyed by such objects
    # grows with every distinct one the process sees.
    found = {
        (module_name(path), name)
        for path in modules()
        for names, value in module_level_assignments(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if starts_empty(value)
        for name in names
    }
    assert found == set(PROCESS_TABLES)
