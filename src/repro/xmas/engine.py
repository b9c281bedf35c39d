"""Pick-element query evaluation: the mediator's serving hot path.

Pick-element semantics (Section 2.1) only need the set of elements
bound to the pick variable, not every complete binding environment
that the backtracking matcher (:mod:`repro.xmas.evaluator`)
enumerates.  This module compiles a :class:`~repro.xmas.ast.Query`
once -- at mediator view registration -- into a :class:`CompiledPlan`
and evaluates it by **pick-projection** over a
:class:`~repro.xmlmodel.index.DocumentIndex`:

1. *Compilation* numbers the condition nodes in preorder, precomputes
   each node's name-test letter set, locates the root-to-pick chain,
   and statically analyses which variables and ID inequalities can
   actually affect pick membership.

2. *Bottom-up satisfaction pass*: for each condition node, the set of
   document positions where its subtree matches is computed over the
   node's **label candidates** (the index's ``by_label`` lists, not a
   tree descent).  Sibling conditions must bind injectively to
   distinct children; that existence question is solved as bipartite
   matching (Hopcroft--Karp), not exponential backtracking.  Recursive
   steps close over chains by a reverse-document-order sweep of the
   candidate list -- an interval scan, never a re-descent.

3. *Top-down pick projection*: walking only the root-to-pick chain,
   the positions where the pick node participates in some complete
   match are extracted; off-path subtrees contribute existence facts
   only.  The picked set comes out sorted by position, i.e. in
   document order.

Pick-projection is sound whenever the variables cannot constrain the
search beyond the injective-sibling rule: every variable bound at one
node, and no inequality relating two nodes on a common root-to-leaf
condition path (inequalities across *separated* nodes are free: the
injective child assignment places them in disjoint subtrees).  The
engine reads that analysis from :attr:`CompiledPlan.projectable`; plans
that fail it are answered by the matcher's full enumeration, which
``tests/xmas/test_engine_differential.py`` also uses as the oracle for
pick-projection.

Every answer carries its provenance on itself: ``pick_counts`` on the
answer :class:`~repro.xmlmodel.element.Document` holds how many picks
each input document contributed, in input order (fallback picks
included).  Since the answer is those picks concatenated, the counts
locate each document's slice of it; the materialized-view cache
(:mod:`repro.mediator.matview`) splices per-document deltas by them.

The plan cache registers with the :mod:`repro.obs.registry`,
so ``clear_caches()`` / ``kernel_stats()`` / CLI ``--stats`` cover it
alongside the language kernel's caches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .. import obs
from ..obs import registry
from ..xmlmodel import Document, Element, fresh_id
from ..xmlmodel.index import DocumentIndex, document_index
from .ast import Condition, Query
from .evaluator import legacy_picked_elements

# ---------------------------------------------------------------------------
# plan representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanNode:
    """One compiled condition node.

    ``names`` is the precomputed letter set of the name test (``None``
    for a wildcard); ``children`` / ``parent`` / ``end`` encode the
    condition tree in preorder numbering (the subtree of node ``i`` is
    exactly the index range ``[i, end)``).
    """

    index: int
    names: frozenset[str] | None
    variable: str | None
    pcdata: str | None
    recursive: bool
    children: tuple[int, ...]
    parent: int
    end: int

    def accepts(self, name: str) -> bool:
        return self.names is None or name in self.names


@dataclass(frozen=True)
class CompiledPlan:
    """A query compiled for repeated evaluation.

    ``pick_path`` is the chain of plan-node indices from the root to
    the (unique) pick node; ``projectable`` says whether the
    pick-projection strategy applies, with ``fallback_reason``
    explaining a ``False`` (surfaced by ``describe`` and the engine
    tests).
    """

    query: Query
    nodes: tuple[PlanNode, ...]
    pick_path: tuple[int, ...]
    projectable: bool
    fallback_reason: str | None

    def describe(self) -> str:
        lines = [
            f"plan for view {self.query.view_name!r}:"
            f" {len(self.nodes)} condition nodes",
            f"  strategy: {'pick-projection' if self.projectable else 'enumeration'}",
        ]
        if self.fallback_reason:
            lines.append(f"  fallback: {self.fallback_reason}")
        lines.append(
            "  pick path: "
            + " -> ".join(
                "*" if self.nodes[i].names is None else "|".join(sorted(self.nodes[i].names))
                for i in self.pick_path
            )
        )
        return "\n".join(lines)


def _compile(query: Query) -> CompiledPlan:
    nodes: list[PlanNode] = []
    parents: list[int] = []
    conditions: list[Condition] = []

    def walk(condition: Condition, parent: int) -> None:
        index = len(conditions)
        conditions.append(condition)
        parents.append(parent)
        for child in condition.children:
            walk(child, index)

    walk(query.root, -1)
    child_indices: list[list[int]] = [[] for _ in conditions]
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_indices[parent].append(index)
    ends = [0] * len(conditions)
    for index in range(len(conditions) - 1, -1, -1):
        kids = child_indices[index]
        ends[index] = ends[kids[-1]] if kids else index + 1
    for index, condition in enumerate(conditions):
        nodes.append(
            PlanNode(
                index=index,
                names=(
                    None
                    if condition.test.names is None
                    else frozenset(condition.test.names)
                ),
                variable=condition.variable,
                pcdata=condition.pcdata,
                recursive=condition.recursive,
                children=tuple(child_indices[index]),
                parent=parents[index],
                end=ends[index],
            )
        )

    variable_nodes: dict[str, list[int]] = {}
    for index, condition in enumerate(conditions):
        if condition.variable is not None:
            variable_nodes.setdefault(condition.variable, []).append(index)

    pick_nodes = variable_nodes.get(query.pick_variable, [])
    projectable = True
    reason: str | None = None
    if len(pick_nodes) != 1:
        projectable = False
        reason = f"pick variable bound at {len(pick_nodes)} nodes"
    else:
        repeated = sorted(
            name for name, where in variable_nodes.items() if len(where) > 1
        )
        if repeated:
            projectable = False
            reason = f"repeated variables {repeated} constrain bindings"
        else:
            for pair in query.inequalities:
                first, second = tuple(pair)
                a = variable_nodes[first][0]
                b = variable_nodes[second][0]
                related = (a <= b < ends[a]) or (b <= a < ends[b])
                if related:
                    projectable = False
                    reason = (
                        f"inequality {first} != {second} relates nodes on one"
                        " condition path"
                    )
                    break

    path: list[int] = []
    if pick_nodes:
        cursor = pick_nodes[0]
        while cursor >= 0:
            path.append(cursor)
            cursor = parents[cursor]
        path.reverse()
    return CompiledPlan(
        query=query,
        nodes=tuple(nodes),
        pick_path=tuple(path),
        projectable=projectable,
        fallback_reason=reason,
    )


_PLAN_CACHE: dict[Query, CompiledPlan] = {}
# Parallel fan-out legs compile/probe plans concurrently; the lock
# keeps the hit/miss counters exact and the cache single-writer (a
# plan is compiled at most once per query object even under races).
_PLAN_LOCK = threading.Lock()
_plan_hits = 0
_plan_misses = 0


def _clear_plan_cache() -> None:
    global _plan_hits, _plan_misses
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _plan_hits = 0
        _plan_misses = 0


registry.register_cache(
    "engine.plans",
    _clear_plan_cache,
    lambda: {
        "hits": _plan_hits,
        "misses": _plan_misses,
        "size": len(_PLAN_CACHE),
    },
)


def compile_query(query: Query) -> CompiledPlan:
    """Compile a query (cached: repeat compilations are a dict probe)."""
    global _plan_hits, _plan_misses
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(query)
        if plan is not None:
            _plan_hits += 1
            return plan
        _plan_misses += 1
    # Compile outside the lock (compilation can be slow; plans for one
    # query are identical, so a racing duplicate compile is harmless —
    # last writer wins and both callers hold equivalent plans).
    with obs.span("engine.compile") as sp:
        sp.set_attribute("view", query.view_name)
        plan = _compile(query)
        sp.set_attribute("nodes", len(plan.nodes))
        sp.set_attribute(
            "strategy",
            "pick-projection" if plan.projectable else "enumeration",
        )
    with _PLAN_LOCK:
        _PLAN_CACHE[query] = plan
    return plan


# ---------------------------------------------------------------------------
# Hopcroft--Karp bipartite matching (sibling-condition assignment)
# ---------------------------------------------------------------------------


def hopcroft_karp(adjacency: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size.

    ``adjacency[i]`` lists the right-side vertices the ``i``-th left
    vertex may match.  Left vertices are sibling conditions, right
    vertices child elements; a full match (size ``len(adjacency)``)
    means the conditions bind injectively to distinct children.
    """
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    INFINITY = n_left + n_right + 1

    while True:
        # BFS phase: layer the free left vertices.
        layer = [INFINITY] * n_left
        queue = [u for u in range(n_left) if match_left[u] == -1]
        for u in queue:
            layer[u] = 0
        free_reached = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    free_reached = True
                elif layer[w] == INFINITY:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if not free_reached:
            return sum(1 for v in match_left if v != -1)

        # DFS phase: augment along layered paths.
        def augment(u: int) -> bool:
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1 or (layer[w] == layer[u] + 1 and augment(w)):
                    match_left[u] = v
                    match_right[v] = u
                    return True
            layer[u] = INFINITY
            return False

        for u in range(n_left):
            if match_left[u] == -1:
                augment(u)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class _PlanRun:
    """One evaluation of a compiled plan against one indexed document."""

    def __init__(self, plan: CompiledPlan, index: DocumentIndex) -> None:
        self.plan = plan
        self.index = index
        #: per node: positions where the node *matches here* (for a
        #: recursive node, positions that can end its chain)
        self.here: list = [frozenset()] * len(plan.nodes)
        #: per node: positions where the node matches when assigned to
        #: that position (for a recursive node, where a chain may start)
        self.sat: list = [frozenset()] * len(plan.nodes)

    # -- bottom-up satisfaction pass ------------------------------------

    def _candidates(self, node: PlanNode) -> list[int]:
        index = self.index
        if node.names is None:
            return list(range(len(index)))
        if len(node.names) == 1:
            (name,) = node.names
            return index.labelled(name)
        merged: list[int] = []
        for name in node.names:
            merged.extend(index.labelled(name))
        merged.sort()
        return merged

    def _leaf_positions(self, node: PlanNode):
        """Satisfaction set of a childless name test, shared read-only.

        Single names reuse the index's cached label set; a wildcard is
        a ``range`` (constant-time membership, no materialized set).
        """
        index = self.index
        if node.names is None:
            return range(len(index))
        if len(node.names) == 1:
            (name,) = node.names
            return index.labelled_set(name)
        combined: set[int] = set()
        for name in node.names:
            combined |= index.labelled_set(name)
        return combined

    def _children_match(self, node: PlanNode, pos: int) -> bool:
        """Can ``node``'s child conditions bind injectively at ``pos``?"""
        child_positions = self.index.children[pos]
        conditions = node.children
        if len(conditions) == 1:
            satisfied = self.sat[conditions[0]]
            return any(
                child_pos in satisfied for child_pos in child_positions
            )
        if len(conditions) > len(child_positions):
            return False
        if len(conditions) == 2:
            # Hall's condition for two sets: a perfect matching exists
            # unless both conditions are confined to the same one child.
            first = self.sat[conditions[0]]
            second = self.sat[conditions[1]]
            hits_first = [c for c in child_positions if c in first]
            if not hits_first:
                return False
            hits_second = [c for c in child_positions if c in second]
            if not hits_second:
                return False
            return (
                len(hits_first) > 1
                or len(hits_second) > 1
                or hits_first[0] != hits_second[0]
            )
        adjacency: list[list[int]] = []
        for condition_index in conditions:
            satisfied = self.sat[condition_index]
            edges = [
                slot
                for slot, child_pos in enumerate(child_positions)
                if child_pos in satisfied
            ]
            if not edges:
                return False
            adjacency.append(edges)
        return hopcroft_karp(adjacency, len(child_positions)) == len(conditions)

    def _compute(self, node: PlanNode) -> None:
        index = self.index
        if node.pcdata is not None:
            text = node.pcdata
            pcdata_at = index.pcdata_at
            here = {
                pos
                for pos in self._candidates(node)
                if pcdata_at(pos) == text
            }
        elif not node.children:
            here = self._leaf_positions(node)
        else:
            # Semi-join seeding: only the parents of positions that
            # satisfy the rarest child condition can possibly match, so
            # the scan is proportional to that satisfied set -- not to
            # how frequent this node's label is in the document.
            parent = index.parent
            name_at = index.name_at
            names = node.names
            seed = min((self.sat[c] for c in node.children), key=len)
            possible: set[int] = set()
            for child_pos in seed:
                p = parent[child_pos]
                if p >= 0 and (names is None or name_at(p) in names):
                    possible.add(p)
            here = {
                pos for pos in possible if self._children_match(node, pos)
            }
        self.here[node.index] = here
        if not node.recursive:
            self.sat[node.index] = here
            return
        # Chain closure: a chain may start at a candidate if it matches
        # here or some accepted child continues the chain.  Candidates
        # come sorted in preorder, so the reverse sweep sees every
        # descendant before its ancestor -- an interval scan, no descent.
        satisfied: set[int] = set()
        children = index.children
        for pos in reversed(self._candidates(node)):
            if pos in here or any(
                child in satisfied for child in children[pos]
            ):
                satisfied.add(pos)
        self.sat[node.index] = satisfied

    # -- top-down pick projection ---------------------------------------

    def _chain_ends(self, node: PlanNode, starts: set[int]) -> set[int]:
        """Match-here positions reachable from chain starts.

        Iterative DFS along accepted, still-satisfiable children; every
        position is visited once across all starts.
        """
        here = self.here[node.index]
        satisfied = self.sat[node.index]
        children = self.index.children
        ends: set[int] = set()
        stack = list(starts)
        seen = set(starts)
        while stack:
            pos = stack.pop()
            if pos in here:
                ends.add(pos)
            for child in children[pos]:
                if child not in seen and child in satisfied:
                    seen.add(child)
                    stack.append(child)
        return ends

    def _forced_match(
        self, parent: PlanNode, pos: int, forced_condition: int, forced_child: int
    ) -> bool:
        """Does some injective assignment at ``pos`` send the on-path
        condition to the chosen child?"""
        child_positions = self.index.children[pos]
        remaining = [c for c in parent.children if c != forced_condition]
        slots = [p for p in child_positions if p != forced_child]
        if len(remaining) > len(slots):
            return False
        adjacency: list[list[int]] = []
        for condition_index in remaining:
            satisfied = self.sat[condition_index]
            edges = [
                slot
                for slot, child_pos in enumerate(slots)
                if child_pos in satisfied
            ]
            if not edges:
                return False
            adjacency.append(edges)
        return hopcroft_karp(adjacency, len(slots)) == len(remaining)

    def picked_positions(self) -> list[int]:
        plan = self.plan
        nodes = plan.nodes
        # Leaves first: they are cheap (shared label sets) and every
        # condition is existential, so one empty leaf empties the whole
        # answer before any sibling matching runs.
        for node in reversed(nodes):
            if not node.children:
                self._compute(node)
                if not self.sat[node.index]:
                    return []
        for node in reversed(nodes):
            if node.children:
                self._compute(node)
                if not self.sat[node.index]:
                    return []
        if 0 not in self.sat[0]:
            return []
        root = nodes[0]
        occupancy = (
            self._chain_ends(root, {0}) if root.recursive else {0}
        )
        for parent_index, child_index in zip(plan.pick_path, plan.pick_path[1:]):
            parent = nodes[parent_index]
            child = nodes[child_index]
            child_sat = self.sat[child_index]
            starts: set[int] = set()
            single = len(parent.children) == 1
            for pos in occupancy:
                for child_pos in self.index.children[pos]:
                    if child_pos not in child_sat or child_pos in starts:
                        continue
                    if single or self._forced_match(
                        parent, pos, child_index, child_pos
                    ):
                        starts.add(child_pos)
            if not starts:
                return []
            occupancy = (
                self._chain_ends(child, starts) if child.recursive else starts
            )
        return sorted(occupancy)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _picks(
    query: Query, plan: CompiledPlan, document: Document
) -> list[Element]:
    """One document's picks, in document order.

    Non-projectable plans (see :class:`CompiledPlan`) fall back to the
    matcher's full enumeration.
    """
    if not plan.projectable:
        registry.EVENTS["engine.fallback"] += 1
        return legacy_picked_elements(query, document)
    registry.EVENTS["engine.projected"] += 1
    index = document_index(document)
    positions = _PlanRun(plan, index).picked_positions()
    return [index.element_at(pos) for pos in positions]


def picked_elements(query: Query, document: Document) -> list[Element]:
    """Elements bound to the pick variable, document order, no repeats."""
    return _picks(query, compile_query(query), document)


def evaluate(query: Query, document: Document) -> Document:
    """Run the query: the view document with the picked elements.

    The picked elements are deep-copied with fresh IDs so the result
    is itself a well-formed document (unique IDs).
    """
    return evaluate_many(query, [document])


def evaluate_many(query: Query, documents: list[Document]) -> Document:
    """Run the query over several documents of the same source.

    Pick-element queries apply to one source; a source may hold many
    documents, whose picks are concatenated in document order.  The
    query is compiled once and the plan reused across every document.
    The answer's ``pick_counts`` records how many picks each document
    contributed.
    """
    with obs.span("engine.evaluate") as sp:
        plan = compile_query(query)
        counts: list[int] = []
        picks: list[Element] = []
        for document in documents:
            found = _picks(query, plan, document)
            counts.append(len(found))
            picks.extend(found)
        sp.set_attribute("view", query.view_name)
        sp.set_attribute(
            "strategy",
            "pick-projection" if plan.projectable else "enumeration",
        )
        sp.set_attribute("docs", len(documents))
        sp.set_attribute("picks", len(picks))
        root = Element(
            query.view_name,
            [element.deep_copy(fresh_ids=True) for element in picks],
            fresh_id(),
        )
        answer = Document(root)
        answer.pick_counts = tuple(counts)
        return answer
