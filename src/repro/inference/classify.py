"""Condition classification against a DTD (Section 4.2 side effect).

The tightening algorithm decides, for a tree condition and a source
DTD, whether the condition is

* ``VALID``        -- satisfied by *every* document satisfying the DTD,
* ``SATISFIABLE``  -- satisfied by some but (possibly) not all, or
* ``UNSATISFIABLE``-- satisfied by no valid document (the view is
  provably empty, so the mediator can answer without touching the
  source -- the query-simplifier benefit of Section 1).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..dtd import Dtd
    from .tighten import TightenResult


class Classification(enum.Enum):
    """Trichotomy of a condition with respect to a DTD."""

    VALID = "valid"
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"

    def __and__(self, other: "Classification") -> "Classification":
        """Combine conjunctively: the weaker of the two guarantees."""
        order = [
            Classification.VALID,
            Classification.SATISFIABLE,
            Classification.UNSATISFIABLE,
        ]
        return order[max(order.index(self), order.index(other))]

    @property
    def is_valid(self) -> bool:
        return self is Classification.VALID

    @property
    def is_satisfiable(self) -> bool:
        return self is not Classification.UNSATISFIABLE


def anchored_classification(result: "TightenResult", dtd: "Dtd") -> Classification:
    """The verdict on a whole query: Tighten's, anchored at the root.

    The condition tree is anchored at the document root, so a root test
    that cannot match the document type is unsatisfiable even when its
    names exist elsewhere in the DTD.  The query simplifier and the
    lint rules both decide with this one function.
    """
    if dtd.root is not None and dtd.root not in result.root.keys:
        return Classification.UNSATISFIABLE
    return result.classification


class InferenceMode(enum.Enum):
    """How conservatively validity is decided (DESIGN.md §3).

    ``EXACT`` uses language-equivalence checks (a refinement that did
    not change the language proves the condition holds on every
    instance).  ``PAPER`` reproduces the paper's cheaper structural
    rule -- any disjunct elimination or star refinement downgrades to
    SATISFIABLE -- which is what makes Example 4.4 produce
    ``(title, author*)*`` where the exact mode proves the tighter
    ``(title, author*)+``.
    """

    EXACT = "exact"
    PAPER = "paper"
