"""Shifted sums of ideal powers and their step cokernels.

Derived cokernel values are cross-checked against the Smith-normal-form
oracle in snf_oracle.py, which multiplies the literal step matrices.
"""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snf_oracle import snf_cokernel
from wittlinear import (
    AbelianGroupPresentation,
    IdealLevel,
    ShiftedIdealSum,
    StepKind,
)

GM = ShiftedIdealSum.from_pairs([(0, 1), (1, 1)])


def torus_sum(d: int) -> ShiftedIdealSum:
    return ShiftedIdealSum.from_pairs([(i, math.comb(d, i)) for i in range(d + 1)])


summand_lists = st.lists(
    st.tuples(st.integers(-3, 8), st.integers(0, 5)), min_size=0, max_size=6
)


def per_prime_invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors from the elementary divisors: split each order
    into prime powers by trial division; the k-th largest factor is the
    product over primes p of the k-th largest power of p."""
    powers: dict[int, list[int]] = {}
    for o in orders:
        o, p = abs(o), 2
        while o > 1:
            q = 1
            while o % p == 0:
                o, q = o // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            factors[-1 - k] *= q
    return tuple(factors)


class TestPresentation:
    def test_normal_form_example(self):
        g = AbelianGroupPresentation.from_orders(0, [4, 2, 3])
        assert g.free_rank == 0
        assert g.torsion_orders == (2, 12)

    def test_ones_are_dropped(self):
        assert AbelianGroupPresentation.from_orders(2, [1, 1]) == \
            AbelianGroupPresentation(2)

    def test_rejects_non_divisibility_chain(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (3, 2))
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (2, 6, 4))

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (1, 2))
        with pytest.raises(ValueError):
            AbelianGroupPresentation(-1, ())
        with pytest.raises(ValueError):
            AbelianGroupPresentation.from_orders(0, [0])

    def test_exponent(self):
        assert AbelianGroupPresentation.trivial().exponent == 1
        assert AbelianGroupPresentation(3).exponent == 1
        assert AbelianGroupPresentation(0, (2, 4, 8)).exponent == 8

    def test_str(self):
        assert str(AbelianGroupPresentation.trivial()) == "0"
        assert str(AbelianGroupPresentation(1)) == "Z"
        assert str(AbelianGroupPresentation(2)) == "Z^2"
        assert str(AbelianGroupPresentation(0, (2,))) == "Z/2"
        assert str(AbelianGroupPresentation(0, (4, 4, 4))) == "(Z/4)^3"
        assert str(AbelianGroupPresentation(1, (2, 4, 4))) == "Z (+) Z/2 (+) (Z/4)^2"

    @given(st.integers(0, 3), st.lists(st.integers(2, 64), max_size=5))
    def test_from_orders_is_normal_and_order_preserving(self, free, orders):
        g = AbelianGroupPresentation.from_orders(free, orders)
        for a, b in zip(g.torsion_orders, g.torsion_orders[1:]):
            assert b % a == 0
        assert math.prod(g.torsion_orders) == math.prod(orders)

    @given(st.lists(st.one_of(st.integers(-64, -1), st.integers(1, 64)), max_size=8))
    @example([2, 2, 4])  # (4, 4) has the same product and is a chain
    def test_from_orders_matches_the_per_prime_reference(self, orders):
        assert AbelianGroupPresentation.from_orders(1, orders) == \
            AbelianGroupPresentation(1, per_prime_invariant_factors(orders))


class TestSumNormalization:
    def test_merge_and_sort(self):
        s = ShiftedIdealSum.from_pairs([(1, 2), (0, 1), (1, 3)])
        assert s.summands == ((0, 1), (1, 5))
        assert s.total_multiplicity == 6
        assert s.max_shift == 1

    def test_zero_multiplicity_dropped(self):
        s = ShiftedIdealSum.from_pairs([(2, 0), (5, 1)])
        assert s.summands == ((5, 1),)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            ShiftedIdealSum.from_pairs([(0, -1)])

    def test_empty(self):
        e = ShiftedIdealSum.empty()
        assert e.is_empty
        assert e.max_shift is None
        assert e.total_multiplicity == 0
        assert e.step_verdict(3).is_iso
        assert e.describe_at(3) == "0"
        assert e.cokernel_exponent(0) == 1
        assert str(e) == "0"

    def test_equal_multisets_compare_equal(self):
        a = ShiftedIdealSum.from_pairs([(0, 1), (1, 1), (1, 1)])
        b = ShiftedIdealSum.from_pairs([(1, 2), (0, 1)])
        assert a == b


class TestEvaluation:
    def test_evaluate_gm(self):
        assert GM.evaluate(2) == ((IdealLevel(2), 1), (IdealLevel(1), 1))
        assert GM.describe_at(2) == "4Z (+) 2Z"
        assert GM.describe_at(0) == "Z (+) Z"

    def test_str(self):
        assert str(GM) == "I[j] (+) I[j-1]"
        s = ShiftedIdealSum.from_pairs([(-2, 1), (0, 2), (3, 1)])
        assert str(s) == "I[j+2] (+) I[j]^2 (+) I[j-3]"


class TestStepVerdicts:
    def test_torus_step_iso_at_dimension(self):
        for d in range(0, 8):
            s = torus_sum(d)
            assert s.step_verdict(d).is_iso
            if d >= 1:
                v = s.step_verdict(d - 1)
                assert v.kind is StepKind.INJECTIVE_NOT_SURJECTIVE

    def test_gm_cokernel_at_zero(self):
        v = GM.step_verdict(0)
        assert not v.is_iso
        assert v.cokernel == AbelianGroupPresentation(0, (2,))
        assert str(v.cokernel) == "Z/2"

    def test_step_cokernel_counts_late_summands(self):
        s = ShiftedIdealSum.from_pairs([(0, 1), (2, 3), (4, 1)])
        assert s.step_verdict(1).cokernel == AbelianGroupPresentation(0, (2,) * 4)
        assert s.step_verdict(3).cokernel == AbelianGroupPresentation(0, (2,))

    def test_graded_step_looks_one_level_ahead(self):
        s = ShiftedIdealSum.from_pairs([(0, 1), (2, 3)])
        assert s.graded_step_verdict(0).is_iso
        v = s.graded_step_verdict(1)
        assert not v.is_iso
        assert v.cokernel == AbelianGroupPresentation(0, (2, 2, 2))
        assert s.graded_step_verdict(2).is_iso
        assert not s.graded_step_verdict(-1).is_iso

    @given(summand_lists, st.integers(-4, 10))
    def test_step_iso_exactly_from_max_shift(self, pairs, j):
        s = ShiftedIdealSum.from_pairs(pairs)
        if s.is_empty:
            assert s.step_verdict(j).is_iso
        else:
            assert s.step_verdict(j).is_iso == (j >= s.max_shift)


class TestCompositeCokernels:
    def test_gm_power_composite(self):
        for d in range(0, 7):
            got = torus_sum(d).composite_cokernel(0, d)
            orders = []
            for i in range(1, d + 1):
                orders.extend([2**i] * math.comb(d, i))
            assert got == AbelianGroupPresentation.from_orders(0, orders)

    def test_chain_built_without_general_normal_form(self, monkeypatch):
        # the sorted shifts already give a divisibility chain, so the
        # quadratic gcd/lcm reduction is never needed
        cases = []
        for d in range(0, 7):
            orders = [2**i for i in range(1, d + 1) for _ in range(math.comb(d, i))]
            cases.append((torus_sum(d), 0, d,
                          AbelianGroupPresentation.from_orders(0, orders)))
        for pairs, j0, j1 in ORACLE_CASES:
            cases.append((ShiftedIdealSum.from_pairs(pairs), j0, j1,
                          snf_cokernel(pairs, j0, j1)))

        def refuse(orders):
            raise AssertionError("general normal form reached")

        monkeypatch.setattr("wittlinear.shifted._divisibility_normal_form", refuse)
        for s, j0, j1, expected in cases:
            assert s.composite_cokernel(j0, j1) == expected

    def test_flat_shift_example(self):
        s = ShiftedIdealSum.from_pairs([(3, 2)])
        got = s.composite_cokernel(1, 5)
        assert got == AbelianGroupPresentation(0, (4, 4))
        assert str(got) == "(Z/4)^2"

    def test_source_equals_target_is_trivial(self):
        assert torus_sum(3).composite_cokernel(2, 2).is_trivial

    def test_target_below_source_rejected(self):
        with pytest.raises(ValueError):
            GM.composite_cokernel(2, 1)

    def test_exponent_examples(self):
        assert GM.cokernel_exponent(0) == 2
        assert GM.cokernel_exponent(1) == 1
        s = ShiftedIdealSum.from_pairs([(3, 2)])
        assert s.cokernel_exponent(1) == 4
        assert s.cokernel_exponent(5) == 1
        for d in range(0, 9):
            assert torus_sum(d).cokernel_exponent(0) == 2**d

    def test_stabilization(self):
        s = ShiftedIdealSum.from_pairs([(0, 1), (2, 2), (3, 1)])
        stable = s.composite_cokernel(0, 3)
        assert s.composite_cokernel(0, 5) == stable
        assert s.composite_cokernel(0, 9) == stable
        assert stable.exponent == s.cokernel_exponent(0)

    def test_cokernel_is_finite_of_bounded_length(self):
        s = ShiftedIdealSum.from_pairs([(1, 2), (4, 1)])
        g = s.composite_cokernel(-2, 6)
        assert g.free_rank == 0
        assert len(g.torsion_orders) <= s.total_multiplicity


ORACLE_CASES = [
    ([(0, 1), (1, 1)], 0, 1),
    ([(0, 1), (1, 1)], 0, 4),
    ([(3, 2)], 1, 5),
    ([(0, 1), (2, 3), (4, 1)], -1, 4),
    ([(-2, 2), (0, 1)], -3, 1),
]


class TestAgainstSmithNormalForm:
    def test_examples_via_oracle(self):
        for pairs, j0, j1 in ORACLE_CASES:
            s = ShiftedIdealSum.from_pairs(pairs)
            assert s.composite_cokernel(j0, j1) == snf_cokernel(pairs, j0, j1)

    @settings(max_examples=60, deadline=None)
    @given(summand_lists, st.integers(-3, 6), st.integers(0, 5))
    def test_random_sums_match_oracle(self, pairs, j0, span):
        s = ShiftedIdealSum.from_pairs(pairs)
        assert s.composite_cokernel(j0, j0 + span) == \
            snf_cokernel(pairs, j0, j0 + span)

    def test_oracle_agrees_on_single_steps(self):
        rng = random.Random(7)
        for _ in range(40):
            pairs = [(rng.randint(-3, 8), rng.randint(0, 4)) for _ in range(3)]
            j = rng.randint(-4, 9)
            s = ShiftedIdealSum.from_pairs(pairs)
            assert s.step_verdict(j).cokernel == snf_cokernel(pairs, j, j + 1)
