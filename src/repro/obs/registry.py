"""The process-wide cache and stats registry.

Every layer that keeps process-wide state -- the regex kernel's
hash-consed nodes and memoized automata, the engine's plan and
document-index caches, the store's page cache, matview and sharding
counters -- registers it here once, so that

* :func:`clear_caches` cannot silently miss one (the benchmark
  ``fresh_caches`` fixture depends on this), and
* :func:`kernel_stats` reports every cache and section in one place
  (surfaced by the CLI ``--stats`` flag and in benchmark
  ``extra_info``).

The registry names no layer: each owner passes its own clear hook and
heading.  It imports only :mod:`repro.obs.metrics` (whose ``REGISTRY``
it resets and snapshots directly), so every layer may import it
without cycles.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict

from .metrics import REGISTRY

#: hash-consing counters, keyed by AST class name.  A *hit* means the
#: constructor returned an already-interned node; a *miss* means a new
#: node was built (and its derived facts computed once).
INTERN_HITS: Counter[str] = Counter()
INTERN_MISSES: Counter[str] = Counter()

#: free-form event counters for the decision procedures (equivalence
#: fast paths, signature comparisons, union-find resolutions, ...).
EVENTS: Counter[str] = Counter()

_ClearFn = Callable[[], None]
_InfoFn = Callable[[], Dict[str, Any]]

_CACHES: Dict[str, tuple[_ClearFn, _InfoFn]] = {}

#: live-size probes for the interning tables, keyed by class name.
_INTERN_SIZES: Dict[str, Callable[[], int]] = {}

#: extra top-level ``kernel_stats()`` sections: (info, clear, title).
_SECTIONS: Dict[str, tuple[_InfoFn, _ClearFn, str]] = {}


def register_cache(name: str, clear: _ClearFn, info: _InfoFn) -> None:
    """Register a cache by name.

    ``clear`` drops the cache's contents; ``info`` returns its stats
    dict.  Registering the same name twice replaces the entry, so
    module reloads stay harmless.
    """
    _CACHES[name] = (clear, info)


def register_lru(name: str, fn: Any) -> Any:
    """Register a ``functools.lru_cache``-wrapped function and return it."""
    register_cache(
        name,
        fn.cache_clear,
        lambda: dict(fn.cache_info()._asdict()),
    )
    return fn


def register_intern_table(class_name: str, size: Callable[[], int]) -> None:
    """Register a live-size probe for one AST class's intern table."""
    _INTERN_SIZES[class_name] = size


def register_stats_section(
    name: str, info: _InfoFn, clear: _ClearFn, title: str
) -> None:
    """Add a named top-level section to ``kernel_stats()``.

    ``info`` returns the section's flat ``{counter: int}`` dict,
    ``clear`` resets it with :func:`clear_caches`, and
    :func:`render_stats` prints it under ``title`` while any counter
    is nonzero.  Re-registering a name replaces it.
    """
    _SECTIONS[name] = (info, clear, title)


def registered_caches() -> tuple[str, ...]:
    """Names of every registered cache (for registry tests)."""
    return tuple(sorted(_CACHES))


def registered_sections() -> tuple[str, ...]:
    """Names of every registered stats section (for registry tests)."""
    return tuple(sorted(_SECTIONS))


def clear_caches() -> None:
    """Clear every registered cache and section and reset all counters.

    The interning tables themselves are *not* dropped: the canonical
    node store is process-wide by design -- dropping it would only
    break pointer-sharing between nodes built before and after the
    reset, while keeping it preserves every derived fact.  Memoization
    caches keyed on nodes (automata, signatures, the union-find) *are*
    dropped, so cleared state is observable where it matters.
    """
    for clear, _ in _CACHES.values():
        clear()
    for _, clear, _ in _SECTIONS.values():
        clear()
    INTERN_HITS.clear()
    INTERN_MISSES.clear()
    EVENTS.clear()
    REGISTRY.reset()


def kernel_stats() -> Dict[str, Any]:
    """A snapshot of every registered counter and cache.

    Layout::

        {
          "interning": {"Sym": {"hits": ..., "misses": ..., "live": ...}, ...},
          "caches":    {"language.dfa": {"hits": ..., "misses": ..., ...}, ...},
          "events":    {"equiv.signature_hit": ..., ...},
          "obs":       {"counters": ..., "gauges": ..., "histograms": ...},
          <section>:   {<counter>: ..., ...},   # one per registered section
        }
    """
    interning: Dict[str, Dict[str, int]] = {}
    for class_name in sorted(set(INTERN_HITS) | set(INTERN_MISSES) | set(_INTERN_SIZES)):
        probe = _INTERN_SIZES.get(class_name)
        interning[class_name] = {
            "hits": INTERN_HITS.get(class_name, 0),
            "misses": INTERN_MISSES.get(class_name, 0),
            "live": probe() if probe is not None else 0,
        }
    stats: Dict[str, Any] = {
        "interning": interning,
        "caches": {name: info() for name, (_, info) in sorted(_CACHES.items())},
        "events": dict(sorted(EVENTS.items())),
        "obs": REGISTRY.snapshot(),
    }
    for name, (info, _, _) in sorted(_SECTIONS.items()):
        stats[name] = info()
    return stats


def render_stats() -> str:
    """Human-readable stats (the CLI ``--stats`` output)."""
    stats = kernel_stats()
    lines = ["kernel stats:"]
    lines.append("  interned nodes (live/hits/misses):")
    for class_name, row in stats["interning"].items():
        lines.append(
            f"    {class_name:8s} {row['live']:6d} {row['hits']:8d} {row['misses']:8d}"
        )
    lines.append("  caches (hits/misses/size):")
    for name, row in stats["caches"].items():
        lines.append(
            "    {:28s} {:8d} {:8d} {:6d}".format(
                name,
                int(row.get("hits", 0)),
                int(row.get("misses", 0)),
                int(row.get("currsize", row.get("size", 0))),
            )
        )
    if stats["events"]:
        lines.append("  events:")
        for name, count in stats["events"].items():
            lines.append(f"    {name:28s} {count:8d}")
    for section, (_, _, title) in sorted(_SECTIONS.items()):
        counters = stats[section]
        if any(counters.values()):
            lines.append(f"  {title}:")
            for name, value in counters.items():
                lines.append(f"    {name:28s} {value:8d}")
    obs = stats["obs"]
    if any(obs.values()):
        lines.append("  obs metrics:")
        for name, value in obs.get("counters", {}).items():
            lines.append(f"    {name:36s} {value:10d}")
        for name, value in obs.get("gauges", {}).items():
            lines.append(f"    {name:36s} {value:10g}")
        for name, row in obs.get("histograms", {}).items():
            lines.append(
                f"    {name:36s} n={row['count']}"
                f" mean={row['mean'] * 1e3:.3f}ms"
                f" max={row['max'] * 1e3:.3f}ms"
            )
    return "\n".join(lines)
