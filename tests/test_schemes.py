"""Scheme trees: construction, linearity levels, stratifications, JSON."""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combinatorics_reference as ref
from helpers import TREE_BRANCHES, parser_trees, random_tree, replay_provenance, surgery_sites
from wittlinear import (
    Affine,
    ClosedGlue,
    ClosureOrder,
    Empty,
    FinitePosetRealization,
    InternalConsistencyError,
    InvalidStratificationError,
    OpenGlue,
    Product,
    ProjTimesTorus,
    RuleApplication,
    SchemeError,
    Stratified,
    TorusCell,
    TwistLabel,
    VennReport,
    VennStratum,
    as_torus_cell,
    j_linear_level_with_rules,
    levels_with_rules,
    range_level_with_rules,
    scheme_from_json,
    scheme_to_json,
    split_order,
    stratification_to_tree,
    torus_cell_as_glue_tree,
    parse_expr,
    pretty,
    venn_stratification,
)
from wittlinear import schemes
from wittlinear.schemes import NODE_KINDS, SchemeExpr, _check_venn, _venn_masks, kind_of

GM_TREE = OpenGlue(Affine(1), Affine(0))


class TestConstruction:
    def test_dimensions(self):
        assert Empty().dim == -1
        assert Affine(3).dim == 3
        assert TorusCell(2, 3).dim == 5
        assert ProjTimesTorus(2, 1).dim == 3
        assert GM_TREE.dim == 1
        assert ClosedGlue(Affine(0), GM_TREE).dim == 1
        assert Product(Affine(2), TorusCell(0, 1)).dim == 3
        assert Stratified((Affine(0), Affine(1)), ClosureOrder.chain(2)).dim == 1

    def test_emptiness(self):
        assert Empty().is_empty
        assert not Affine(0).is_empty
        assert Product(Affine(1), Empty()).is_empty
        assert Product(Affine(1), Empty()).dim == -1
        assert OpenGlue(Affine(1), Affine(1 - 1)).is_empty is False

    def test_leaf_validation(self):
        with pytest.raises(SchemeError):
            Affine(-1)
        with pytest.raises(SchemeError):
            TorusCell(0, -1)
        with pytest.raises(SchemeError):
            ProjTimesTorus(-1, 0)

    def test_open_glue_needs_smaller_closed_piece(self):
        with pytest.raises(SchemeError):
            OpenGlue(Affine(1), Affine(1))
        with pytest.raises(SchemeError):
            OpenGlue(Affine(1), Affine(2))
        assert OpenGlue(Affine(1), Empty()).dim == 1

    def test_open_glue_of_everything_is_empty(self):
        # removing a closed piece of the same dimension is ruled out,
        # so only the empty ambient case degenerates
        assert OpenGlue(Empty(), Empty()).is_empty

    def test_stratified_validation(self):
        with pytest.raises(SchemeError):
            Stratified((), ClosureOrder.discrete(0))
        with pytest.raises(SchemeError):
            Stratified((Empty(),), ClosureOrder.discrete(1))
        with pytest.raises(InvalidStratificationError):
            Stratified((Affine(0), Affine(1)), ClosureOrder.discrete(3))

    def test_default_twist_is_trivial(self):
        assert ProjTimesTorus(2, 1).twist == TwistLabel.trivial()
        assert ProjTimesTorus(2, 1, TwistLabel.o(3)).twist.o_degree() == 3


class TestSmoothness:
    def test_leaves_are_smooth(self):
        for x in (Empty(), Affine(2), TorusCell(1, 2), ProjTimesTorus(2, 1)):
            assert x.smooth

    def test_open_piece_of_smooth_is_smooth(self):
        assert GM_TREE.smooth
        assert not OpenGlue(ClosedGlue(Affine(0), Affine(1)), Empty()).smooth

    def test_open_piece_over_a_non_smooth_closed_piece_is_smooth(self):
        # an open subscheme of a smooth scheme is smooth, whatever it omits
        closed = ClosedGlue(Affine(0), Affine(1))
        assert not closed.smooth
        assert OpenGlue(Affine(3), closed).smooth
        assert parse_expr("open(A^3, closed(A^0, A^1))").smooth

    def test_glued_and_stratified_default_to_not_smooth(self):
        assert not ClosedGlue(Affine(0), Affine(1)).smooth
        assert not Stratified((Affine(0),), ClosureOrder.discrete(1)).smooth

    def test_product_of_smooth_is_smooth(self):
        assert Product(Affine(1), TorusCell(0, 1)).smooth
        assert not Product(Affine(1), ClosedGlue(Affine(0), Affine(1))).smooth

    def test_assume_smooth_overrides(self):
        x = ClosedGlue(Affine(0), Affine(1))
        assert x.assume_smooth().smooth
        assert not x.smooth  # original is unchanged


class TestJLinearLevels:
    def test_leaf_levels(self):
        assert Empty().j_linear_level() == 0
        assert Affine(7).j_linear_level() == 0
        assert TorusCell(0, 2).j_linear_level() == 2
        assert TorusCell(3, 1).j_linear_level() == 1
        assert ProjTimesTorus(2, 1).j_linear_level() == 3

    def test_product_adds(self):
        x = Product(TorusCell(0, 2), TorusCell(3, 1))
        assert x.j_linear_level() == 3

    def test_glue_costs_one(self):
        assert GM_TREE.j_linear_level() == 1
        assert ClosedGlue(Affine(0), GM_TREE).j_linear_level() == 2
        assert OpenGlue(Affine(2), TorusCell(0, 1)).j_linear_level() == 2

    def test_stratified_costs_splits_plus_worst_stratum(self):
        x = Stratified((Affine(0), Affine(1)), ClosureOrder.chain(2))
        assert x.j_linear_level() == 2
        y = Stratified((TorusCell(0, 2), Affine(0), Affine(1)),
                       ClosureOrder.chain(3))
        assert y.j_linear_level() == 1 + 2 + 2


class TestRangeLevels:
    def test_leaf_levels(self):
        assert Empty().range_level() == 0
        assert Affine(7).range_level() == 0
        assert TorusCell(0, 3).range_level() == 3
        assert TorusCell(2, 3).range_level() == 3
        assert ProjTimesTorus(2, 1).range_level() == 1
        assert ProjTimesTorus(3, 0).range_level() == 0

    def test_open_glue_shifts_by_one(self):
        assert GM_TREE.range_level() == 1
        assert OpenGlue(Affine(2), GM_TREE).range_level() == 2

    def test_closed_glue_keeps_the_max(self):
        assert ClosedGlue(Affine(0), TorusCell(0, 3)).range_level() == 3
        assert ClosedGlue(TorusCell(0, 2), Affine(1)).range_level() == 2

    def test_product_adds(self):
        assert Product(TorusCell(0, 2), TorusCell(3, 1)).range_level() == 3

    def test_stratified_keeps_the_max(self):
        x = Stratified((Affine(0), Affine(1)), ClosureOrder.chain(2))
        assert x.range_level() == 0
        y = Stratified((TorusCell(0, 2), Affine(1)), ClosureOrder.chain(2))
        assert y.range_level() == 2

    def test_range_never_exceeds_j_linear(self):
        rng = random.Random(2024)
        for _ in range(300):
            t = random_tree(rng, rng.randint(0, 5))
            assert t.range_level() <= t.j_linear_level()

    def test_torus_glue_tree_has_the_same_range_level(self):
        for n in range(0, 3):
            for d in range(0, 5):
                tree = torus_cell_as_glue_tree(n, d)
                assert tree.range_level() == TorusCell(n, d).range_level() == d

    def test_monotone_under_subtree_surgery(self):
        rng = random.Random(99)
        checked = 0
        while checked < 200:
            t = random_tree(rng, rng.randint(1, 5))
            sites = surgery_sites(t)
            sub, rebuild = sites[rng.randrange(len(sites))]
            replacement = rng.choice([Empty(), Affine(0), Affine(1)])
            if replacement.range_level() > sub.range_level():
                continue
            try:
                rebuilt = rebuild(replacement)
            except SchemeError:
                continue
            assert rebuilt.range_level() <= t.range_level()
            if replacement.j_linear_level() <= sub.j_linear_level():
                assert rebuilt.j_linear_level() <= t.j_linear_level()
            checked += 1


class TestProvenance:
    def test_rule_names_for_a_small_tree(self):
        x = ClosedGlue(Affine(0), GM_TREE)
        level, rules = range_level_with_rules(x)
        assert level == 1
        assert [r.rule for r in rules] == [
            "leaf-affine", "leaf-affine", "leaf-affine",
            "open-glue-shift", "closed-glue-five-lemma",
        ]

    def test_replay_on_random_trees(self):
        rng = random.Random(5)
        for _ in range(200):
            t = random_tree(rng, rng.randint(0, 5))
            level, rules = j_linear_level_with_rules(t)
            replay_provenance(rules, level)
            assert level == t.j_linear_level()
            level, rules = range_level_with_rules(t)
            replay_provenance(rules, level)
            assert level == t.range_level()


class TestClosureOrder:
    def test_chain_and_discrete(self):
        chain = ClosureOrder.chain(3)
        assert chain.leq(0, 2)
        assert not chain.leq(2, 0)
        assert chain.strict_pairs() == [(0, 1), (0, 2), (1, 2)]
        assert chain.cover_pairs() == [(0, 1), (1, 2)]
        disc = ClosureOrder.discrete(3)
        assert disc.strict_pairs() == []

    def test_from_pairs_takes_transitive_closure(self):
        order = ClosureOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert order.leq(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(InvalidStratificationError):
            ClosureOrder.from_pairs(2, [(0, 1), (1, 0)])

    def test_direct_constructor_validates(self):
        with pytest.raises(InvalidStratificationError):
            ClosureOrder(2, frozenset())  # irreflexive
        with pytest.raises(InvalidStratificationError):
            ClosureOrder(2, frozenset({(0, 0), (1, 1), (0, 3)}))
        with pytest.raises(InvalidStratificationError):
            # non-transitive: (0,1),(1,2) without (0,2)
            ClosureOrder(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))

    def test_minimal_among(self):
        order = ClosureOrder.from_pairs(3, [(2, 0)])
        assert order.minimal_among([0, 1, 2]) == [1, 2]
        assert split_order(order) == (1, 2, 0)


class TestStratificationTrees:
    def test_single_stratum_is_itself(self):
        x = TorusCell(0, 2)
        assert stratification_to_tree([x], ClosureOrder.discrete(1)) == x

    def test_two_strata_chain(self):
        got = stratification_to_tree([Affine(0), Affine(1)], ClosureOrder.chain(2))
        assert got == ClosedGlue(Affine(0), Affine(1))

    def test_chain_depth(self):
        for k in range(1, 6):
            strata = [Affine(i) for i in range(k)]
            tree = stratification_to_tree(strata, ClosureOrder.chain(k))
            depth = 0
            node = tree
            leaves = []
            while isinstance(node, ClosedGlue):
                depth += 1
                leaves.append(node.closed)
                node = node.open_part
            leaves.append(node)
            assert depth == k - 1
            assert leaves == strata

    def test_split_order_examples(self):
        assert split_order(ClosureOrder.chain(4)) == (0, 1, 2, 3)
        assert split_order(ClosureOrder.discrete(3)) == (0, 1, 2)


class TestTorusRecognition:
    def test_recognizes_products_of_cells(self):
        assert as_torus_cell(Affine(2)) == (2, 0)
        assert as_torus_cell(TorusCell(1, 2)) == (1, 2)
        assert as_torus_cell(Product(Affine(1), TorusCell(0, 2))) == (1, 2)
        assert as_torus_cell(
            Product(Product(Affine(1), TorusCell(1, 1)), TorusCell(0, 1))
        ) == (2, 2)

    def test_does_not_chase_glue_trees(self):
        assert as_torus_cell(GM_TREE) is None
        assert as_torus_cell(Product(Affine(1), GM_TREE)) is None

    @staticmethod
    def spine_walk(t):
        """The cell of t by walking its product spine, stopping at the
        first factor that is not an Affine or TorusCell leaf."""
        n = d = 0
        stack = [t]
        while stack:
            node = stack.pop()
            if isinstance(node, Product):
                stack.extend(node.children())
            elif isinstance(node, TorusCell):
                n, d = n + node.n, d + node.d
            elif isinstance(node, Affine):
                n += node.n
            else:
                return None
        return (n, d)

    @settings(max_examples=200, deadline=None)
    @given(parser_trees)
    def test_stored_cell_matches_a_spine_walk(self, t):
        assert as_torus_cell(t) == self.spine_walk(t)

    def test_a_product_of_100000_factors_is_read_without_a_walk(self, monkeypatch):
        tree = TorusCell(0, 1)
        for _ in range(100000 - 1):
            tree = Product(tree, TorusCell(0, 1))

        def refuse(self):
            raise AssertionError("children() called")

        monkeypatch.setattr(Product, "children", refuse)
        assert as_torus_cell(tree) == (0, 100000)

    def test_an_unregistered_node_has_no_cell(self):
        # the folds refuse such a node (TestNodeKinds), but its cell was
        # stored at construction
        @dataclass(frozen=True)
        class Point(SchemeExpr):
            def __post_init__(self):
                self._set_shape(None, 0, True)

        assert as_torus_cell(Point()) is None
        assert as_torus_cell(Product(Affine(1), Point())) is None


@pytest.mark.filterwarnings("ignore::wittlinear.UnknownTwistWarning")
class TestTreeEquality:
    """Equality and hashing read each node's data, class and child count
    in post-order; a change anywhere in a tree shows."""

    LEAVES = (Empty(), Affine(0), Affine(1), TorusCell(0, 1), ProjTimesTorus(1, 0))

    @settings(max_examples=60, deadline=None)
    @given(parser_trees)
    def test_an_equal_copy_at_any_site_gives_an_equal_tree(self, t):
        for sub, rebuild in surgery_sites(t):
            copy = parse_expr(pretty(sub))
            assert copy is not sub
            rebuilt = rebuild(copy)
            assert rebuilt == t and not rebuilt != t
            assert hash(rebuilt) == hash(t)

    @settings(max_examples=60, deadline=None)
    @given(parser_trees)
    def test_a_different_leaf_at_any_site_gives_an_unequal_tree(self, t):
        for sub, rebuild in surgery_sites(t):
            # the printed form round-trips, so a different text is a different tree
            for leaf in (x for x in self.LEAVES if pretty(x) != pretty(sub)):
                try:
                    rebuilt = rebuild(leaf)
                except SchemeError:
                    continue
                assert rebuilt != t and not rebuilt == t

    def test_same_label_different_shape(self):
        nested, flat = parse_expr("A^1 * (P^1 * Gm)"), parse_expr("A^1 * P^1 * Gm")
        assert nested.label() == flat.label() == "A^1*P^1*Gm"
        assert nested != flat

    def test_same_children_different_inner_kind(self):
        # the three binary kinds hold the same data, smooth_flag only
        inner = [kind(Affine(1), Affine(0)) for kind in (OpenGlue, ClosedGlue, Product)]
        trees = [Product(Affine(0), x) for x in inner]
        assert [a == b for a in trees for b in trees] == [a is b for a in trees for b in trees]


class TestFinitePosetRealization:
    @staticmethod
    def line_with_point() -> FinitePosetRealization:
        return FinitePosetRealization(
            frozenset({"p", "u1", "u2"}),
            (frozenset({"p"}), frozenset({"u1", "u2"})),
            (frozenset({0}), frozenset({0, 1})),
        )

    def test_valid_example(self):
        r = self.line_with_point()
        assert r.size == 2
        assert r.closure_points(1) == frozenset({"p", "u1", "u2"})
        assert r.closure_order().leq(0, 1)

    def test_replay_split(self):
        assert self.line_with_point().replay_split() == (0, 1)

    def test_validation_errors(self):
        with pytest.raises(InvalidStratificationError):
            FinitePosetRealization(frozenset({"a"}), (), ())
        with pytest.raises(InvalidStratificationError):  # not covering
            FinitePosetRealization(
                frozenset({"a", "b"}), (frozenset({"a"}),), (frozenset({0}),))
        with pytest.raises(InvalidStratificationError):  # overlap
            FinitePosetRealization(
                frozenset({"a", "b"}),
                (frozenset({"a", "b"}), frozenset({"b"})),
                (frozenset({0}), frozenset({1})))
        with pytest.raises(InvalidStratificationError):  # empty piece
            FinitePosetRealization(
                frozenset({"a"}), (frozenset({"a"}), frozenset()),
                (frozenset({0}), frozenset({1})))
        with pytest.raises(InvalidStratificationError):  # self not in closure
            FinitePosetRealization(
                frozenset({"a"}), (frozenset({"a"}),), (frozenset(),))
        with pytest.raises(InvalidStratificationError):  # index out of range
            FinitePosetRealization(
                frozenset({"a"}), (frozenset({"a"}),), (frozenset({0, 5}),))
        with pytest.raises(InvalidStratificationError):  # closure 2-cycle
            FinitePosetRealization(
                frozenset({"a", "b"}),
                (frozenset({"a"}), frozenset({"b"})),
                (frozenset({0, 1}), frozenset({0, 1})))

    def test_non_transitive_closure_refused(self):
        # a lies in the closure of b and b in that of c, but a is missing
        # from the closure of c
        closure = (frozenset({0}), frozenset({0, 1}), frozenset({1, 2}))
        with pytest.raises(InvalidStratificationError, match="transitive"):
            FinitePosetRealization(
                frozenset("abc"), tuple(frozenset(p) for p in "abc"), closure)
        transitive = closure[:2] + (frozenset({0, 1, 2}),)
        r = FinitePosetRealization(
            frozenset("abc"), tuple(frozenset(p) for p in "abc"), transitive)
        assert r.replay_split() == (0, 1, 2)

    def test_json_round_trip(self):
        r = self.line_with_point()
        data = r.to_json()
        assert data["schema_version"] == 1
        assert FinitePosetRealization.from_json(data) == r

    def test_json_schema_version_guard(self):
        data = self.line_with_point().to_json()
        data["schema_version"] = 99
        with pytest.raises(InvalidStratificationError):
            FinitePosetRealization.from_json(data)


GENERIC3 = [
    {"p123", "p12", "p13", "p1"},
    {"p123", "p12", "p23", "p2"},
    {"p123", "p13", "p23", "p3"},
]


class TestVenn:
    def test_three_generic_sets_have_seven_strata(self):
        report = venn_stratification(GENERIC3)
        assert report.partition_ok and report.boundary_ok
        assert len(report.strata) == 7
        assert len(report.nonempty) == 7
        by_members = {tuple(sorted(s.members)): s.points for s in report.strata}
        assert by_members[(0, 1, 2)] == frozenset({"p123"})
        assert by_members[(0, 1)] == frozenset({"p12"})
        assert by_members[(2,)] == frozenset({"p3"})

    def test_strata_are_ordered_deepest_first(self):
        report = venn_stratification(GENERIC3)
        sizes = [len(s.members) for s in report.strata]
        assert sizes == sorted(sizes, reverse=True)

    def test_single_set(self):
        report = venn_stratification([{"a", "b"}])
        assert len(report.strata) == 1
        assert report.strata[0].points == frozenset({"a", "b"})

    def test_empty_strata_are_kept_but_filtered(self):
        report = venn_stratification([{"a"}, {"b"}])
        assert len(report.strata) == 3
        assert len(report.nonempty) == 2

    def test_realization_and_replay(self):
        report = venn_stratification(GENERIC3)
        realization = report.to_realization()
        assert realization.size == 7
        order = realization.replay_split()
        assert len(order) == 7
        # the triple intersection splits off first: it is the only
        # stratum contained in every other stratum's closure
        assert realization.pieces[order[0]] == frozenset({"p123"})

    def test_random_sets(self):
        rng = random.Random(12)
        points = ["q%d" % i for i in range(20)]
        sets = [frozenset(p for p in points if rng.random() < 0.5)
                for _ in range(4)]
        sets = [s for s in sets if s] or [frozenset(points[:1])]
        report = venn_stratification(sets)
        assert report.partition_ok and report.boundary_ok
        realization = report.to_realization()
        assert set().union(*(s.points for s in report.nonempty)) == \
            set(realization.ground)
        realization.replay_split()

    def test_input_errors(self):
        with pytest.raises(SchemeError):
            venn_stratification([])
        with pytest.raises(SchemeError):
            venn_stratification([{"a", "z"}], ground={"a"})


@st.composite
def relations(draw):
    """A size and a relation on range(size): raw pairs or a transitive
    closure, then up to two pairs toggled, some of them out of range."""
    size = draw(st.integers(0, 6))
    index = st.integers(0, max(size - 1, 0))
    rel = draw(st.sets(st.tuples(index, index), max_size=10))
    if size and draw(st.booleans()):
        rel = set(ref.transitive_closure(size, rel))
    near = st.integers(-1, size)
    for pair in draw(st.lists(st.tuples(near, near), max_size=2)):
        rel ^= {pair}
    return size, frozenset(rel)


class TestBitsetCombinatorics:
    """The bitset venn and closure orders against pointwise references."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 29)), min_size=1, max_size=6))
    def test_venn_matches_pointwise_reference(self, sets):
        report = venn_stratification(sets)
        assert [(s.members, s.points) for s in report.strata] == ref.venn_strata(sets)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 15), min_size=1 << n, max_size=1 << n),
        st.lists(st.integers(0, 15), min_size=1 << n, max_size=1 << n))))
    def test_venn_check_matches_pointwise_reference(self, tables):
        # arbitrary tables, so that each claim fails in every way it can
        inter, strata = tables
        failures = ref.venn_check_failures(inter, strata)
        if not failures:
            _check_venn(inter, strata)
            return
        with pytest.raises(InternalConsistencyError) as caught:
            _check_venn(inter, strata)
        assert str(caught.value) == "venn decomposition checks failed: " + "; ".join(failures)

    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_constructor_accepts_exactly_partial_orders(self, case):
        size, rel = case
        try:
            ClosureOrder(size, rel)
        except InvalidStratificationError:
            accepted = False
        else:
            accepted = True
        assert accepted == ref.is_partial_order(size, rel)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                            max_size=10))))
    def test_from_pairs_is_the_transitive_closure(self, case):
        size, pairs = case
        closure = ref.transitive_closure(size, pairs)
        if not ref.is_partial_order(size, closure):
            with pytest.raises(InvalidStratificationError):
                ClosureOrder.from_pairs(size, pairs)
            return
        order = ClosureOrder.from_pairs(size, pairs)
        assert order.relation == closure
        assert order.cover_pairs() == ref.cover_pairs(size, closure)
        assert split_order(order) == ref.split_order(size, closure)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 29)), min_size=1, max_size=6))
    def test_realization_closures_match_pairwise_reference(self, sets):
        report = venn_stratification(sets)
        live = [(s.members, s.points) for s in report.nonempty]
        if not live:
            with pytest.raises(InvalidStratificationError):
                report.to_realization()
            return
        realization = report.to_realization()
        assert realization.pieces == tuple(points for _, points in live)
        assert list(realization.closure_sets) == ref.realization_closures(live)

    def test_two_cycle_names_the_lowest_pair(self):
        everything = frozenset((a, b) for a in range(3) for b in range(3))
        with pytest.raises(InvalidStratificationError, match="strata 0 and 1 "):
            ClosureOrder(3, everything)
        with pytest.raises(InvalidStratificationError, match="strata 1 and 3 "):
            ClosureOrder.from_pairs(4, [(3, 1), (1, 3), (2, 0)])

    def test_tampered_decomposition_is_caught(self):
        points = sorted(set().union(*GENERIC3))
        masks = [sum(1 << points.index(p) for p in s) for s in GENERIC3]
        inter, strata = _venn_masks(masks)
        _check_venn(inter, strata)
        for J in range(1, 8):
            for k in range(3):
                # move the one point of stratum J into a neighbouring stratum
                tampered = list(strata)
                tampered[J ^ 1 << k] |= strata[J]
                tampered[J] = 0
                with pytest.raises(InternalConsistencyError):
                    _check_venn(inter, tampered)


class TestScale:
    """Sizes at which the old exponential and quartic paths took minutes.
    Only exact counts are asserted, never a time."""

    def test_chain_of_200(self):
        order = ClosureOrder.chain(200)
        assert len(order.relation) == 200 * 201 // 2
        assert split_order(order) == tuple(range(200))
        assert order.cover_pairs() == [(i, i + 1) for i in range(199)]

    def test_venn_13_with_every_pattern_populated(self):
        # point p lies in exactly the sets named by the bits of p + 1
        n = 13
        points = range((1 << n) - 1)
        sets = [[p for p in points if (p + 1) >> j & 1] for j in range(n)]
        report = venn_stratification(sets)
        assert len(report.strata) == 2**n - 1
        assert len(report.nonempty) == 2**n - 1
        assert all(len(s.points) == 1 for s in report.strata)

    @pytest.mark.parametrize("masks", [
        [1 << j for j in range(20)],
        random.Random(20).sample(range(1, 1 << 20), 200),
    ], ids=["20-singletons", "200-random-patterns"])
    def test_sparse_realization_over_20_sets(self, masks):
        # few live strata over many sets: scanning the live masks is far
        # shorter than enumerating 2^19 supersets per stratum
        strata = tuple(VennStratum(frozenset(j for j in range(20) if m >> j & 1),
                                   frozenset([m])) for m in masks)
        realization = VennReport(strata, True, True).to_realization()
        live = [(s.members, s.points) for s in strata]
        assert list(realization.closure_sets) == ref.realization_closures(live)


def node_document(expr: dict) -> dict:
    return {"schema_version": 1, "expr": expr}


class TestSchemeJson:
    def test_round_trip_examples(self):
        cases = [
            Empty(),
            Affine(2),
            TorusCell(1, 2),
            ProjTimesTorus(2, 3, TwistLabel.o(3)),
            GM_TREE,
            ClosedGlue(Affine(0), GM_TREE),
            Product(TorusCell(0, 2), Affine(1)),
            Stratified((Affine(0), Affine(1)), ClosureOrder.chain(2)),
            ClosedGlue(Affine(0), Affine(1)).assume_smooth(),
        ]
        for x in cases:
            assert scheme_from_json(scheme_to_json(x)) == x

    def test_round_trip_random_trees(self):
        rng = random.Random(77)
        for _ in range(150):
            t = random_tree(rng, rng.randint(0, 5))
            assert scheme_from_json(scheme_to_json(t)) == t

    def test_smooth_key_only_when_flagged(self):
        plain = scheme_to_json(ClosedGlue(Affine(0), Affine(1)))
        assert "smooth" not in plain["expr"]
        flagged = scheme_to_json(ClosedGlue(Affine(0), Affine(1)).assume_smooth())
        assert flagged["expr"]["smooth"] is True

    def test_bad_input_rejected(self):
        with pytest.raises(SchemeError):
            scheme_from_json({"schema_version": 1, "expr": {"kind": "nope"}})
        with pytest.raises(SchemeError):
            scheme_from_json({"schema_version": 0, "expr": {"kind": "empty"}})
        for kind in ([], {}, None, 3):
            with pytest.raises(SchemeError, match="unknown scheme node kind"):
                scheme_from_json({"schema_version": 1, "expr": {"kind": kind}})

    @pytest.mark.parametrize("document,message", [
        ([1], "a scheme document must be a JSON object"),
        ({"schema_version": 1}, "scheme JSON lacks 'expr'"),
        ({"schema_version": 1, "expr": [1]}, "scheme JSON 'expr' must be an object"),
        (node_document({"kind": "affine"}), "scheme JSON lacks 'n'"),
        (node_document({"kind": "affine", "n": "x"}), "'n' must be an integer"),
        (node_document({"kind": "affine", "n": True}), "'n' must be an integer"),
        (node_document({"kind": "affine", "n": 1.5}), "'n' must be an integer"),
        (node_document({"kind": "torus_cell", "n": 0}), "scheme JSON lacks 'd'"),
        (node_document({"kind": "empty", "smooth": "no"}), "'smooth' must be a boolean"),
        (node_document({"kind": "empty", "smooth": 1}), "'smooth' must be a boolean"),
        (node_document({"kind": "proj_times_torus", "c": 1, "e": 0, "twist": 5}),
         "'twist' must be a string"),
        (node_document({"kind": "open_glue", "ambient": "x", "closed": {"kind": "empty"}}),
         "'ambient' must be an object"),
        (node_document({"kind": "closed_glue", "closed": {"kind": "empty"}}),
         "scheme JSON lacks 'open'"),
        (node_document({"kind": "stratified", "strata": {}, "closure_pairs": []}),
         "'strata' must be an array"),
        (node_document({"kind": "stratified", "strata": [1], "closure_pairs": []}),
         "a scheme node must be a JSON object"),
        (node_document({"kind": "stratified", "strata": [{"kind": "empty"}],
                        "closure_pairs": [[0]]}), "must hold \\[i, k\\] index pairs"),
        (node_document({"kind": "stratified", "strata": [{"kind": "affine", "n": 0}] * 2,
                        "closure_pairs": [[0, True]]}), "must hold \\[i, k\\] index pairs"),
        (node_document({"kind": "stratified", "strata": [{"kind": "affine", "n": 0}],
                        "closure_pairs": "01"}), "'closure_pairs' must be an array"),
    ], ids=["document-not-an-object", "no-expr", "expr-not-an-object", "no-n", "n-a-string",
            "n-a-boolean", "n-a-float", "no-d", "smooth-a-string", "smooth-an-integer",
            "twist-an-integer", "child-not-an-object", "no-open-child", "strata-an-object",
            "stratum-not-an-object", "pair-of-one", "pair-with-a-boolean",
            "pairs-a-string"])
    def test_malformed_documents_raise_scheme_error(self, document, message):
        # every wrong shape is a SchemeError, never a KeyError,
        # AttributeError or TypeError, and nothing is read loosely
        with pytest.raises(SchemeError, match=message):
            scheme_from_json(document)


class TestDeepTrees:
    """Every walk but the parser and repr is iterative; trees are built
    here without the parser, far past the default recursion limit."""

    DEPTH = 2000

    def product_chain(self):
        tree = Affine(1)
        for _ in range(self.DEPTH):
            tree = Product(tree, TorusCell(0, 1))
        return tree

    def open_chain(self, leaf=Affine(1)):
        tree = leaf
        for _ in range(self.DEPTH):
            tree = OpenGlue(tree, Affine(0))
        return tree

    def test_equality_and_hash(self):
        tree = self.open_chain()
        limit = sys.getrecursionlimit()
        # the parser takes two frames per nesting level
        sys.setrecursionlimit(limit + 3 * self.DEPTH)
        try:
            back = parse_expr(pretty(tree))
        finally:
            sys.setrecursionlimit(limit)
        assert back is not tree
        assert back == tree and not back != tree
        assert hash(back) == hash(tree)
        # the trees differ only in their deepest leaf
        deeper = self.open_chain(Affine(2))
        assert deeper != tree and tree != deeper
        assert hash(deeper) != hash(tree)
        assert self.product_chain() == self.product_chain()
        assert hash(self.product_chain()) == hash(self.product_chain())

    def check(self, tree, text, j_level, r_level):
        j, j_rules = j_linear_level_with_rules(tree)
        r, r_rules = range_level_with_rules(tree)
        assert (j, r) == (j_level, r_level)
        assert len(j_rules) == len(r_rules) == 2 * self.DEPTH + 1
        assert j_rules[-1].node == r_rules[-1].node == tree.label()
        assert pretty(tree) == text
        back = scheme_from_json(scheme_to_json(tree.assume_smooth()))
        assert back.smooth_flag is True
        assert pretty(back) == text

    def test_product_chain(self):
        tree = self.product_chain()
        self.check(tree, "A^1" + " * Gm" * self.DEPTH, self.DEPTH, self.DEPTH)
        assert tree.label() == "A^1" + "*Gm" * self.DEPTH
        assert tree.dim == 1 + self.DEPTH
        assert tree.smooth
        assert as_torus_cell(tree) == (1, self.DEPTH)

    def test_open_chain(self):
        tree = self.open_chain()
        text = "open(" * self.DEPTH + "A^1" + ", A^0)" * self.DEPTH
        self.check(tree, text, self.DEPTH, self.DEPTH)
        assert tree.label() == text
        assert tree.dim == 1
        assert tree.smooth
        assert as_torus_cell(tree) is None


def reference_columns(t, out: list) -> tuple:
    """Every column of t's root, by recursion on the tree and with each
    kind's forms and rules spelled out here: (label, text, j rule, j
    inputs, j level, range rule, range inputs, range level).  The same
    record for every node goes to out, in post-order."""
    kids = [reference_columns(child, out) for child in t.children()]
    labels, texts = [k[0] for k in kids], [k[1] for k in kids]
    js, rs = tuple(k[4] for k in kids), tuple(k[7] for k in kids)

    def gm(d):
        return "Gm" if d == 1 else "Gm^%d" % d

    if isinstance(t, Empty):
        forms, j, r = ("empty", "empty"), ("leaf-empty", 0), ("leaf-empty", 0)
    elif isinstance(t, Affine):
        forms, j, r = ("A^%d" % t.n,) * 2, ("leaf-affine", 0), ("leaf-affine", 0)
    elif isinstance(t, TorusCell):
        parts = ["A^%d" % t.n] if t.n or not t.d else []
        parts += [gm(t.d)] if t.d else []
        forms = ("*".join(parts), " * ".join(parts) if t.n or t.d else "Gm^0")
        j = r = ("leaf-torus-cell", t.d)
    elif isinstance(t, ProjTimesTorus):
        twist = [] if t.twist.is_trivial else [t.twist.name]
        torus = [gm(t.e)] if t.e else []
        forms = ("*".join(["@".join(["P^%d" % t.c] + twist)] + torus),
                 " * ".join([" @".join(["P^%d" % t.c] + twist)] + torus))
        j, r = ("leaf-proj-cell-chain", t.c + t.e), ("leaf-proj-cell-strata", t.e)
    elif isinstance(t, OpenGlue):
        forms = ("open(%s, %s)" % tuple(labels), "open(%s, %s)" % tuple(texts))
        j, r = ("open-glue-split", 1 + max(js)), ("open-glue-shift", 1 + max(rs))
    elif isinstance(t, ClosedGlue):
        forms = ("closed(%s, %s)" % tuple(labels), "closed(%s, %s)" % tuple(texts))
        j, r = ("closed-glue-split", 1 + max(js)), ("closed-glue-five-lemma", max(rs))
    elif isinstance(t, Product):
        # a right factor whose text has a "*" outside all parentheses
        # would reassociate
        depth, top_star = 0, False
        for c in texts[1]:
            depth += (c == "(") - (c == ")")
            top_star = top_star or (c == "*" and depth == 0)
        right = "(%s)" % texts[1] if top_star else texts[1]
        forms = ("%s*%s" % tuple(labels), "%s * %s" % (texts[0], right))
        j, r = ("product-sum", sum(js)), ("product-sum", sum(rs))
    else:
        order, k = t.closure_order, len(kids)
        covers = ["%d<%d" % (a, b) for a in range(k) for b in range(k)
                  if a != b and order.leq(a, b) and not any(
                      m not in (a, b) and order.leq(a, m) and order.leq(m, b)
                      for m in range(k))]
        forms = ("strat[%d]" % k, "strat(%s; %s)" % (", ".join(texts), ", ".join(covers)))
        j, r = ("stratified-split", k + max(js)), ("stratified-refinement", max(rs))
    record = (*forms, j[0], js, j[1], r[0], rs, r[1])
    out.append(record)
    return record


class TestDerivationTable:
    """derivation() lists the nodes in post-order with their kind and
    child count and nothing else; fold_rows() and replay() read every
    column off those rows, and the public folds read them too."""

    @staticmethod
    def post_order(t):
        for child in t.children():
            yield from TestDerivationTable.post_order(child)
        yield t

    @staticmethod
    def columns(rows):
        """The table's columns, in reference_columns' order."""
        labels: list = []
        texts: list = []
        schemes.fold_rows(rows, "label", labels)
        schemes.fold_rows(rows, "text", texts)
        return list(zip(labels, texts, *schemes.replay(rows, "j"),
                        *schemes.replay(rows, "range")))

    @settings(max_examples=80, deadline=None)
    @given(parser_trees)
    def test_rows_are_the_nodes_in_post_order_with_kind_and_count(self, t):
        nodes = list(self.post_order(t))
        rows = schemes.derivation(t)
        assert [len(row) for row in rows] == [3] * len(nodes)
        assert all(node is expected for (node, _, _), expected in zip(rows, nodes))
        assert [(kind, count) for _, kind, count in rows] == [
            (NODE_KINDS[type(n)], len(n.children())) for n in nodes]

    @settings(max_examples=80, deadline=None)
    @given(parser_trees)
    def test_replayed_columns_zip_to_the_rule_lists(self, t):
        rows = schemes.derivation(t)
        labels: list = []
        schemes.fold_rows(rows, "label", labels)
        zipped = []
        for table in ("j", "range"):
            names, inputs, levels = schemes.replay(rows, table)
            zipped += [levels[-1], tuple(map(RuleApplication, labels, names, inputs, levels))]
        assert tuple(zipped) == levels_with_rules(t)
        assert tuple(zipped[:2]) == j_linear_level_with_rules(t)
        assert tuple(zipped[2:]) == range_level_with_rules(t)

    @settings(max_examples=80, deadline=None)
    @given(parser_trees)
    def test_every_column_matches_the_recursive_reference(self, t):
        expected: list = []
        root = reference_columns(t, expected)
        assert self.columns(schemes.derivation(t)) == expected
        label, text, _, _, jl, _, _, rl = root
        assert (t.label(), pretty(t), t.j_linear_level(), t.range_level()) == (
            label, text, jl, rl)
        j_rules = tuple(RuleApplication(e[0], e[2], e[3], e[4]) for e in expected)
        r_rules = tuple(RuleApplication(e[0], e[5], e[6], e[7]) for e in expected)
        assert levels_with_rules(t) == (jl, j_rules, rl, r_rules)
        assert j_linear_level_with_rules(t) == (jl, j_rules)
        assert range_level_with_rules(t) == (rl, r_rules)

    def test_depth_2000_chain_matches_its_closed_forms(self):
        # t_k = closed(A^0, t_(k-1) * Gm) from t_0 = A^1: two levels of
        # nesting per step, four rows per step, j level 2k, range level k
        steps = 1000
        tree = Affine(1)
        for _ in range(steps):
            tree = ClosedGlue(Affine(0), Product(tree, TorusCell(0, 1)))
        rows = schemes.derivation(tree)
        assert len(rows) == 4 * steps + 1
        # post-order: each step's closed piece A^0 comes before t_(k-1),
        # so the A^0 rows of all steps lead, then A^1, then each step's
        # Gm, product and closed rows
        leaf = ("leaf-affine", (), 0)
        expected = [("A^0", "A^0", *leaf, *leaf)] * steps + [("A^1", "A^1", *leaf, *leaf)]
        label = text = "A^1"
        for k in range(1, steps + 1):
            expected += [
                ("Gm", "Gm", "leaf-torus-cell", (), 1, "leaf-torus-cell", (), 1),
                (label + "*Gm", text + " * Gm", "product-sum", (2 * k - 2, 1), 2 * k - 1,
                 "product-sum", (k - 1, 1), k),
            ]
            label, text = "closed(A^0, %s*Gm)" % label, "closed(A^0, %s * Gm)" % text
            expected.append((label, text, "closed-glue-split", (0, 2 * k - 1), 2 * k,
                             "closed-glue-five-lemma", (0, k), k))
        assert self.columns(rows) == expected
        label = "closed(A^0, " * steps + "A^1" + "*Gm)" * steps
        text = "closed(A^0, " * steps + "A^1" + " * Gm)" * steps
        assert expected[-1][:2] == (label, text)
        assert (tree.label(), pretty(tree)) == (label, text)
        assert (tree.j_linear_level(), tree.range_level()) == (2 * steps, steps)
        jl, j_rules, rl, r_rules = levels_with_rules(tree)
        assert (jl, rl, len(j_rules), len(r_rules)) == (2 * steps, steps, len(rows), len(rows))


class TestCombinedFold:
    """levels_with_rules against the two single-table folds, and the
    relations between the two levels that the rule table implies."""

    @settings(max_examples=80, deadline=None)
    @given(parser_trees)
    def test_equals_the_single_folds_and_shares_labels(self, t):
        jl, j_rules, rl, r_rules = levels_with_rules(t)
        assert (jl, j_rules) == j_linear_level_with_rules(t)
        assert (rl, r_rules) == range_level_with_rules(t)
        assert len(j_rules) == len(r_rules)
        assert all(j.node is r.node for j, r in zip(j_rules, r_rules))

    @settings(max_examples=80, deadline=None)
    @given(parser_trees)
    def test_level_methods_fold_no_labels(self, t):
        # no label, rule name or inputs: one level column, root only
        seen = []
        fold = schemes.fold_rows

        def spy(rows, column, values=None, inputs=None):
            seen.append((column, values, inputs))
            return fold(rows, column, values, inputs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schemes, "fold_rows", spy)
            patch.setattr(schemes, "replay", lambda *args: pytest.fail("rule columns built"))
            levels = (t.j_linear_level(), t.range_level())
        assert seen == [("j_level", None, None), ("range_level", None, None)]
        assert levels == (j_linear_level_with_rules(t)[0], range_level_with_rules(t)[0])

    @settings(max_examples=150, deadline=None)
    @given(parser_trees)
    def test_range_level_is_at_most_the_j_linear_level(self, t):
        # rule by rule: every range rule is at most its j rule on inputs
        # that are at most the j inputs
        jl, _, rl, _ = levels_with_rules(t)
        assert rl <= jl

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 6))
    def test_torus_cells_agree_with_their_glue_trees(self, n, d):
        glue = levels_with_rules(torus_cell_as_glue_tree(n, d))
        for cell in (TorusCell(n, d), parse_expr("A^%d * Gm^%d" % (n, d))):
            levels = levels_with_rules(cell)
            assert (levels[0], levels[2]) == (glue[0], glue[2]) == (d, d)

    @settings(max_examples=80, deadline=None)
    @given(TREE_BRANCHES["stratified"](parser_trees))
    def test_glue_tree_keeps_the_range_level_and_lowers_the_j_level(self, t):
        jl, _, rl, _ = levels_with_rules(t)
        glue_jl, _, glue_rl, _ = levels_with_rules(t.to_glue_tree())
        assert glue_rl == rl
        assert glue_jl < jl

    @pytest.mark.parametrize("expr,levels,glue_levels", [
        ("strat(A^1; )", (1, 0), (0, 0)),
        ("strat(A^0, A^1, Gm; 0<1, 0<2)", (4, 1), (3, 1)),
    ])
    def test_glue_tree_levels_by_example(self, expr, levels, glue_levels):
        t = parse_expr(expr)
        assert (t.j_linear_level(), t.range_level()) == levels
        glue = t.to_glue_tree()
        assert (glue.j_linear_level(), glue.range_level()) == glue_levels


class TestNodeKinds:
    def test_one_table_entry_per_node_class(self):
        assert set(NODE_KINDS) == {Empty, Affine, TorusCell, ProjTimesTorus,
                                   OpenGlue, ClosedGlue, Product, Stratified}
        assert len({kind.name for kind in NODE_KINDS.values()}) == len(NODE_KINDS)

    def test_subclasses_use_their_base_kind(self):
        class Line(Affine):
            pass

        assert kind_of(Line(1)) is NODE_KINDS[Affine]
        assert j_linear_level_with_rules(Line(1))[1][0].node == "A^1"
        # with no constructor of its own it has its base's fields
        assert Line._fields == ("smooth_flag", "n")
        assert repr(Line(1)) == "%s(smooth_flag=None, n=1)" % Line.__qualname__

    def test_unknown_node_is_refused(self):
        @dataclass(frozen=True)
        class Point(SchemeExpr):
            def __post_init__(self):
                self._set_shape(None, 0, True)

        with pytest.raises(SchemeError, match="unknown scheme node"):
            range_level_with_rules(Product(Affine(1), Point()))
