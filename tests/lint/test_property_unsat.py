"""Property: lint's verdicts are trustworthy.

A query flagged ``MIX101`` (unsatisfiable) by the lint subsystem must
return the empty result over *every* document valid w.r.t. the source
DTD -- the guarantee the mediator relies on when it answers without
touching any source, and the mediator decides on the simplifier's
verdict, which must be lint's.
"""

import random

from hypothesis import given, settings

from repro.dtd import dtd, generate_document, validate_document
from repro.lint import lint_query
from repro.mediator import simplify_query
from repro.xmas import evaluate, parse_query
from tests.strategies import pick_query_strategy


def source():
    return dtd(
        {
            "r": "a*, b?",
            "a": "c, d*",
            "b": "#PCDATA",
            "c": "#PCDATA",
            "d": "b?",
        },
        root="r",
    )


#: deliberately wrong nestings alongside right ones, so the generated
#: queries span all three Tighten classifications
CHILDREN = {
    "r": ["a", "b", "c", "d"],
    "a": ["a", "b", "c", "d"],
    "b": ["c", "d"],
    "c": ["a", "b"],
    "d": ["b", "c"],
}


@given(pick_query_strategy(CHILDREN, "r"))
@settings(max_examples=120, deadline=None)
def test_mix101_flagged_queries_answer_empty(q):
    source_dtd = source()
    report = lint_query(q, source_dtd)
    if "MIX101" not in report.codes():
        return
    rng = random.Random(0xBEEF)
    for _ in range(6):
        doc = generate_document(source_dtd, rng, star_mean=1.4)
        assert validate_document(doc, source_dtd).ok
        view = evaluate(q, doc)
        assert view.root.content in ([], ""), (
            f"lint said unsatisfiable, evaluation found matches: {q}"
        )


@given(pick_query_strategy(CHILDREN, "r"))
@settings(max_examples=120, deadline=None)
def test_clean_reports_never_carry_errors_without_mix101(q):
    report = lint_query(q, source())
    assert report.has_errors == ("MIX101" in report.codes())
    assert report.exit_code == (1 if report.has_errors else 0)


@given(pick_query_strategy(CHILDREN, "r"))
@settings(max_examples=120, deadline=None)
def test_mix101_is_the_simplifiers_empty_verdict(q):
    # the mediator answers empty on the simplifier's verdict alone, so
    # lint's dead-path error must agree with it on every query
    source_dtd = source()
    assert ("MIX101" in lint_query(q, source_dtd).codes()) == (
        simplify_query(q, source_dtd).answer_is_empty
    )


def test_generator_reaches_the_unsatisfiable_branch():
    """Guard: the strategy's bad nestings do produce MIX101 findings."""
    q = parse_query("SELECT P WHERE P:<r><b><c/></b></r>")
    assert "MIX101" in lint_query(q, source()).codes()
