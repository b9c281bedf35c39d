"""The DTD-based query simplifier (Section 1's second benefit).

Before a query touches any source, the mediator classifies it against
the target DTD (the tightening side effect of Section 4.2):

* UNSATISFIABLE -- answer with the empty view immediately; no source
  access, no evaluation.  This is the headline saving.
* VALID / SATISFIABLE -- additionally *prune* the condition tree:
  a subtree whose constraints every candidate element is guaranteed to
  satisfy can be replaced by a bare existence test (cheaper to
  evaluate), provided it binds no variable the query still needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..dtd import Dtd
from ..xmas import Condition, Query
from ..inference.classify import (
    Classification,
    InferenceMode,
    anchored_classification,
)
from ..inference.tighten import TightenResult, tighten


@dataclass
class SimplifierDecision:
    """What the simplifier concluded about a query."""

    classification: Classification
    query: Query
    #: number of condition nodes removed by valid-subtree pruning
    pruned_nodes: int = 0

    @property
    def answer_is_empty(self) -> bool:
        """The mediator may answer without evaluating anything."""
        return self.classification is Classification.UNSATISFIABLE


def _needed_variables(query: Query) -> frozenset[str]:
    """Variables the query result or constraints depend on."""
    needed = {query.pick_variable}
    for pair in query.inequalities:
        needed.update(pair)
    return frozenset(needed)


def _prune(
    node: Condition,
    result: TightenResult,
    needed: frozenset[str],
    pick_variable: str,
    counter: list[int],
) -> Condition:
    """Replace valid subtrees by bare existence tests."""
    typing = result.typings.get(id(node))
    keeps_variable = node.variable is not None and node.variable in needed
    is_pick_ancestor = pick_variable in {
        n.variable for n in node.iter_nodes() if n.variable
    }
    if (
        typing is not None
        and typing.classification.is_valid
        and not keeps_variable
        and not is_pick_ancestor
        and node.children
    ):
        # Narrow the name test to the feasible names: a name that was
        # infeasible must keep being rejected after the subtree is gone.
        from ..xmas import NameTest

        counter[0] += sum(1 for _ in node.iter_nodes()) - 1
        return replace(
            node,
            test=NameTest(tuple(sorted(typing.keys))),
            children=(),
            pcdata=None,
        )
    return replace(
        node,
        children=tuple(
            _prune(child, result, needed, pick_variable, counter)
            for child in node.children
        ),
    )


def simplify_query(
    query: Query,
    dtd: Dtd,
    mode: InferenceMode = InferenceMode.EXACT,
) -> SimplifierDecision:
    """Classify and prune a query against a DTD.

    One uncollapsed Tighten run decides the query's classification
    (:func:`~repro.inference.classify.anchored_classification`; per-node
    classifications do not depend on specialization collapse).  The
    pruned query is equivalent to the original over every document
    valid under ``dtd``: only subtrees proven to hold for *every*
    candidate element are reduced to existence tests, and subtrees
    binding variables the query still needs are kept intact.
    """
    result = tighten(dtd, query, mode, collapse=False, strict=False)
    classification = anchored_classification(result, dtd)
    if classification is Classification.UNSATISFIABLE:
        return SimplifierDecision(classification, query)
    counter = [0]
    pruned_root = _prune(
        query.root,
        result,
        _needed_variables(query),
        query.pick_variable,
        counter,
    )
    pruned_query = replace(query, root=pruned_root)
    return SimplifierDecision(classification, pruned_query, counter[0])
