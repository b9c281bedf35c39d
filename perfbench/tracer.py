"""Timing wrappers around the mediator's layer entry points.

The program is measured only from outside: a :class:`Tracer` replaces
each entry point named in :data:`TARGETS` with a wrapper that records a
span, in the namespace its caller looks the name up in (a module global
for functions imported by name, the class for methods), and
:meth:`Tracer.uninstall` puts every original object back.

A span is ``[name, start, end, parent, request, tag]``: ``parent`` is the
index of the enclosing span (``-1`` for none) and ``request`` the id of
the request it belongs to.  Spans stay in memory until the benchmark
writes them out.  Parents are tracked per thread; a leg that a
``ParallelTransport`` runs on a pool thread takes its request and parent
from the ``transport.fan_out`` span that dispatched it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; a bare name is a module global.
TARGETS = (
    # xmlmodel: parser, index, serializer
    ("repro.xmlmodel", "parse_document", "xmlmodel.parse"),
    ("repro.xmlmodel", "document_index", "xmlmodel.index"),
    ("repro.serve.server", "serialize_document", "xmlmodel.serialize"),
    # mediator: registration, pre-flight, answering
    ("repro.mediator.mediator", "Mediator.warm", "mediator.warm"),
    ("repro.mediator.mediator", "Mediator.register_view", "mediator.register_view"),
    ("repro.mediator.mediator", "Mediator.register_union_view", "mediator.register_union_view"),
    ("repro.mediator.mediator", "Mediator.preflight", "lint.preflight"),
    ("repro.mediator.mediator", "Mediator.query_view", "mediator.query_view"),
    ("repro.mediator.mediator", "Mediator.materialize_union", "mediator.materialize_union"),
    ("repro.mediator.mediator", "simplify_query", "mediator.simplify"),
    ("repro.mediator.composition", "compose_query", "mediator.compose"),
    ("repro.mediator.mediator", "compile_query", "engine.compile"),
    ("repro.mediator.sharding", "compile_query", "engine.compile"),
    ("repro.xmas.engine", "compile_query", "engine.compile"),
    # sources, transport, sharding
    ("repro.mediator.source", "Source.query", "engine.evaluate"),
    ("repro.mediator.source", "Source.from_store", "store.from_store"),
    ("repro.mediator.transport", "SourceTransport.call", "transport.call"),
    ("repro.mediator.parallel", "ParallelTransport.fan_out", "transport.fan_out"),
    # no span of its own: runs a pool leg inside its fan-out's request
    ("repro.mediator.parallel", "ParallelTransport._run_leg", None),
    ("repro.mediator.sharding", "ShardedSource.__init__", "shard.build"),
    ("repro.mediator.sharding", "ShardedSource.prune", "shard.prune"),
    ("repro.mediator.sharding", "fragment_can_match", "shard.prune"),
    ("repro.mediator.sharding", "ShardedSource.query", "shard.gather"),
    # matview and the view-DTD checks of its delta splices
    ("repro.mediator.matview", "MatViewCache.probe", "matview.probe"),
    ("repro.mediator.matview", "MatViewCache.store", "matview.store"),
    ("repro.mediator.mediator", "validate_document", "dtd.validate"),
    ("repro.dtd", "validate_element", "dtd.validate"),
    # store
    ("repro.store.store", "DocumentStore.__init__", "store.open"),
    ("repro.store.store", "DocumentStore.structure", "store.structure"),
    ("repro.store.store", "DocumentStore.labels_for", "store.structure"),
    ("repro.store.store", "DocumentStore.page_rows", "store.page_rows"),
    # serve
    ("repro.serve.protocol", "decode", "serve.decode"),
    ("repro.serve.protocol", "encode", "serve.encode"),
    ("repro.serve.server", "AdmissionController.acquire", "serve.admission"),
)

#: result -> tag, for spans whose outcome decides their bucket
_TAGS = {
    "matview.probe": lambda result: result.status,
    "shard.prune": lambda result: (
        ("match" if result else "pruned") if isinstance(result, bool) else None
    ),
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a target: a module or a class."""
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Records spans from wrappers it installs and removes again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._spans_lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        #: id(ParallelTransport) -> (request, fan_out span) of its latest
        #: fan-out; the benchmark sends one request at a time, so this
        #: entry is never another request's
        self._fanouts: dict[int, tuple[object, int]] = {}

    # -- request scope --------------------------------------------------

    def begin_request(self, request) -> None:
        """Spans this thread records from now on belong to ``request``."""
        self._local.request = request

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        request = getattr(self._local, "request", None)
        with self._spans_lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, request, None])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """A span around the benchmark's own code (recorded if installed)."""
        if not self._installed:
            yield
            return
        index = self._open(name)
        self.spans[index][5] = tag
        try:
            yield
        finally:
            self._close(index)

    def wrapper(self, name: str | None, original):
        """A function recording one span named ``name`` per call."""
        if name is None:
            return self._leg(original)
        tag = _TAGS.get(name)
        fans_out = name == "transport.fan_out"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            if fans_out:
                self._fanouts[id(args[0])] = (getattr(self._local, "request", None), index)
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    self.spans[index][5] = tag(result)
                return result
            finally:
                self._close(index)

        return traced

    def _leg(self, original):
        """``ParallelTransport._run_leg`` inside its fan-out's span.

        Inline legs run on the caller's thread and pass straight
        through; a pool thread has no open span, so it adopts the
        request and parent its transport's fan-out left.
        """

        @functools.wraps(original)
        def leg(parallel, *args, **kwargs):
            stack = self._stack()
            context = None if stack else self._fanouts.get(id(parallel))
            if context is None:
                return original(parallel, *args, **kwargs)
            self._local.request, parent = context
            stack.append(parent)
            try:
                return original(parallel, *args, **kwargs)
            finally:
                stack.pop()
                self._local.request = None

        return leg

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, path, name in TARGETS:
            owner, attribute = _resolve(module, path)
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrapper(name, original.__func__))
            else:
                replacement = self.wrapper(name, original)
            setattr(owner, attribute, replacement)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that did not restore."""
        broken = []
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
            if vars(owner)[attribute] is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
        return broken

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as spans:
        return [json.loads(line) for line in spans]


# -- analysis ---------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children that overlap (pool legs of one fan-out) cover their union,
    so a parent's self time never goes below 0.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    own = [end - start for _, start, end, _, _, _ in spans]
    for parent, intervals in children.items():
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(intervals):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        own[parent] -= covered
    return own


def ancestors_named(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
