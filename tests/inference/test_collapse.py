"""Tests for specialization collapsing (footnote 8 made systematic)."""

from repro.dtd import sdtd
from repro.inference import collapse_equivalent, compute_equivalence, tighten
from repro.regex import is_equivalent, parse_regex
from repro.workloads.paper import d1, d9, q2, q7


class TestCollapseEquivalent:
    def test_identical_specializations_merge(self):
        s = sdtd(
            {
                "v": "a^1, a^2",
                "a^1": "b",
                "a^2": "b",
                "a": "b*",
                "b": "#PCDATA",
            },
            root="v",
        )
        collapsed, mapping = collapse_equivalent(s)
        assert mapping[("a", 1)] == mapping[("a", 2)]
        # The view type still demands two 'a' children (two positions).
        tag = mapping[("a", 1)][1]
        assert is_equivalent(
            collapsed.types[("v", 0)],
            parse_regex(f"a^{tag}, a^{tag}"),
        )

    def test_base_equivalent_specialization_becomes_base(self):
        s = sdtd(
            {
                "v": "a^1*",
                "a^1": "b*",
                "a": "b*",
                "b": "#PCDATA",
            },
            root="v",
        )
        collapsed, mapping = collapse_equivalent(s)
        assert mapping[("a", 1)] == ("a", 0)
        assert collapsed.types[("v", 0)] == parse_regex("a*")

    def test_recursively_different_types_kept_apart(self):
        # a^1 and a^2 have the same shape but reference different
        # child specializations with different languages.
        s = sdtd(
            {
                "v": "a^1, a^2",
                "a^1": "b^1",
                "a^2": "b^2",
                "b^1": "c",
                "b^2": "c, c",
                "b": "c*",
                "c": "#PCDATA",
            },
            root="v",
        )
        _, mapping = collapse_equivalent(s)
        assert mapping[("a", 1)] != mapping[("a", 2)]

    def test_recursively_equivalent_types_merge(self):
        s = sdtd(
            {
                "v": "a^1, a^2",
                "a^1": "b^1",
                "a^2": "b^2",
                "b^1": "c, c*",
                "b^2": "c+",
                "c": "#PCDATA",
            },
            root="v",
        )
        _, mapping = collapse_equivalent(s)
        assert mapping[("a", 1)] == mapping[("a", 2)]
        assert mapping[("b", 1)] == mapping[("b", 2)]

    def test_pcdata_and_content_never_merge(self):
        s = sdtd(
            {
                "v": "a^1, a^2",
                "a^1": "#PCDATA",
                "a^2": "b",
                "b": "#PCDATA",
            },
            root="v",
        )
        _, mapping = collapse_equivalent(s)
        assert mapping[("a", 1)] != mapping[("a", 2)]


class TestEndToEndCollapsing:
    def test_q2_publication_conditions_collapse(self):
        # The two publication conditions (Pub1, Pub2) carry identical
        # constraints: exactly one publication specialization remains
        # (the paper's footnote 8).
        result = tighten(d1(), q2())
        pub_specs = [
            key
            for key in result.sdtd.types
            if key[0] == "publication" and key[1] != 0
        ]
        assert len(pub_specs) == 1

    def test_q7_journal_leaves_collapse_to_base(self):
        # The two journal leaf conditions are unconstrained, so they
        # collapse into the base journal key -- but the professor type
        # still demands two journal positions.
        result = tighten(d9(), q7())
        journal_keys = [key for key in result.sdtd.types if key[0] == "journal"]
        assert journal_keys == [("journal", 0)]

    def test_equivalence_map_is_stable(self):
        result = tighten(d1(), q2(), collapse=False)
        first = compute_equivalence(result.sdtd)
        second = compute_equivalence(result.sdtd)
        assert first == second


class TestCollapseAtScale:
    GROUPS = 8
    PER_GROUP = 8

    def ladder(self):
        """``GROUPS * PER_GROUP`` specializations of ``a``: group ``g``
        means "at least ``g`` b-children" in three rotating spellings,
        so tags are equivalent within a group and never across groups
        (footnote 8's many equivalent tags, at scale)."""
        tags = range(1, self.GROUPS * self.PER_GROUP + 1)
        decls = {
            "v": ", ".join(f"a^{tag}" for tag in tags),
            "a": "b*",
            "b": "#PCDATA",
        }
        for tag in tags:
            group, i = divmod(tag - 1, self.PER_GROUP)
            decls[f"a^{tag}"] = "b, " * group + (
                "b+", "b, b*", "b, (b, b*)?"
            )[i % 3]
        return sdtd(decls, root="v")

    def test_one_class_per_group(self):
        s = self.ladder()
        classes = set(compute_equivalence(s).values())
        # one class per group plus the distinct base `a` (b*)
        assert len({rep for rep in classes if rep[0] == "a"}) == self.GROUPS + 1
        collapsed, mapping = collapse_equivalent(s)
        a_keys = [key for key in collapsed.types if key[0] == "a"]
        assert len(a_keys) == self.GROUPS + 1
        assert len(mapping) == self.GROUPS * self.PER_GROUP + 3
