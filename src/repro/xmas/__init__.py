"""XMAS pick-element queries (Section 2.1): AST, parser, evaluator.

The class of queries the paper's view-DTD inference handles: a single
pick variable, one tree condition over one source, name disjunctions,
PCDATA equality conditions, and ID inequalities as the only negation.
"""

from .analysis import (
    PickPath,
    check_inference_applicable,
    condition_size,
    has_recursive_steps,
    pick_path,
    resolve_against_dtd,
)
from .ast import (
    WILDCARD,
    Condition,
    NameTest,
    Query,
    cond,
    expand_wildcards,
    name_test,
    query,
)
from .construct import (
    ConstructQuery,
    Slot,
    Template,
    Text,
    evaluate_construct,
    evaluate_construct_many,
    parse_construct_query,
)
from .engine import (
    CompiledPlan,
    PlanNode,
    compile_query,
    evaluate,
    evaluate_many,
    picked_elements,
)
from .evaluator import bindings, legacy_picked_elements
from .parser import parse_query

__all__ = [
    "WILDCARD",
    "CompiledPlan",
    "Condition",
    "ConstructQuery",
    "NameTest",
    "PickPath",
    "PlanNode",
    "Query",
    "Slot",
    "Template",
    "Text",
    "bindings",
    "check_inference_applicable",
    "compile_query",
    "cond",
    "condition_size",
    "evaluate",
    "evaluate_construct",
    "evaluate_construct_many",
    "evaluate_many",
    "expand_wildcards",
    "has_recursive_steps",
    "legacy_picked_elements",
    "name_test",
    "parse_construct_query",
    "parse_query",
    "pick_path",
    "picked_elements",
    "query",
    "resolve_against_dtd",
]
