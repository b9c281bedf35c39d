"""Tests for the mediator's EXPLAIN facility."""

import random

import pytest

from repro.dtd import generate_document
from repro.errors import MediatorError
from repro.inference import Classification
from repro.mediator import Mediator, Source
from repro.workloads import paper
from repro.xmas import parse_query


@pytest.fixture
def mediator():
    rng = random.Random(3)
    d1 = paper.d1()
    med = Mediator("mix")
    med.add_source(
        Source("dept", d1, [generate_document(d1, rng, star_mean=1.6)])
    )
    med.register_view(paper.q3(), "dept")
    return med


class TestExplain:
    def test_empty_answer_plan(self, mediator):
        q = parse_query(
            "confs = SELECT X WHERE <publist> X:<publication><conference/>"
            "</publication> </>"
        )
        plan = mediator.explain(q, "publist")
        assert plan.strategy == "empty-answer"
        assert plan.classification is Classification.UNSATISFIABLE
        assert plan.composed_query is None

    def test_compose_plan(self, mediator):
        q = parse_query(
            "titles = SELECT T WHERE <publist> <publication> T:<title/> "
            "</> </>"
        )
        plan = mediator.explain(q, "publist")
        assert plan.strategy == "compose"
        assert plan.composed_query is not None
        assert plan.composed_query.root.test.names == ("department",)
        assert "composed source query" in plan.describe()

    def test_materialize_plan(self, mediator):
        # Two root children are not composable.
        q = parse_query(
            "v = SELECT X WHERE <publist> <publication><title/></publication>"
            " X:<publication/> </>"
        )
        plan = mediator.explain(q, "publist")
        assert plan.strategy == "materialize"
        assert plan.composed_query is None

    def test_explain_touches_no_source(self, mediator):
        # Drain the source to prove explain never queries it.
        mediator.sources["dept"].documents.clear()
        q = parse_query(
            "titles = SELECT T WHERE <publist> <publication> T:<title/> "
            "</> </>"
        )
        plan = mediator.explain(q, "publist")  # no MediatorError
        assert plan.strategy in ("compose", "materialize")

    def test_describe_renders(self, mediator):
        q = parse_query(
            "titles = SELECT T WHERE <publist> <publication> T:<title/> "
            "</> </>"
        )
        text = mediator.explain(q, "publist").describe()
        assert "classification" in text
        assert "strategy" in text


#: one query for each plan ``auto`` picks with the simplifier on
PLANNED = [
    "confs = SELECT X WHERE <publist> X:<publication><conference/>"
    "</publication> </>",
    "titles = SELECT T WHERE <publist> <publication> T:<title/> </> </>",
    "v = SELECT X WHERE <publist> <publication><title/></publication>"
    " X:<publication/> </>",
]


def executed_strategy(mediator, query, use_simplifier, strategy):
    """The plan ``query_view`` ran, read off its counters and the source."""
    source = mediator.sources["dept"]
    composed = mediator.stats.composed
    served = source.queries_served
    mediator.query_view(
        query, "publist", use_simplifier=use_simplifier, strategy=strategy
    )
    if mediator.stats.composed > composed:
        return "compose"
    if source.queries_served == served:
        return "empty-answer"
    return "materialize"


class TestExplainMatchesExecution:
    @pytest.mark.parametrize(
        "text", PLANNED, ids=["empty", "composable", "uncomposable"]
    )
    @pytest.mark.parametrize("use_simplifier", [True, False])
    @pytest.mark.parametrize("strategy", ["auto", "compose", "materialize"])
    def test_explain_reports_the_plan_query_view_runs(
        self, mediator, text, use_simplifier, strategy
    ):
        q = parse_query(text)
        try:
            plan = mediator.explain(
                q, "publist", use_simplifier=use_simplifier, strategy=strategy
            )
        except MediatorError:
            with pytest.raises(MediatorError):
                mediator.query_view(
                    q, "publist",
                    use_simplifier=use_simplifier, strategy=strategy,
                )
            return
        assert plan.strategy == executed_strategy(
            mediator, q, use_simplifier, strategy
        )

    def test_materialize_strategy_is_reported(self, mediator):
        q = parse_query(PLANNED[1])
        assert mediator.explain(q, "publist").strategy == "compose"
        plan = mediator.explain(q, "publist", strategy="materialize")
        assert plan.strategy == "materialize"
        assert plan.composed_query is None
