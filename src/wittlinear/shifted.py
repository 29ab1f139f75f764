"""Level-graded direct sums of shifted fundamental-ideal powers.

A ShiftedIdealSum is a finite multiset of integer shifts; evaluated at
level j it denotes the group (+)_s (I^{j-s})^{m_s}, concretely a direct
sum of subgroups 2^max(j-s,0) Z of the integers.  Raising the level by
one applies multiplication by <<-1>> summand by summand: bijective on a
summand whose current level j - s is non-negative, and of index 2
(signature doubling into the even integers) while the level is still
negative.

Everything about cokernels of iterated steps therefore reduces to
counting, per summand, how many of the steps from level j0 to level j1
happen while that summand sits below level 0.  A summand with shift s
spends min(max(s - j0, 0), j1 - j0) steps below zero, contributing a
cyclic group of that 2-power order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from enum import Enum
from math import gcd

from ._frozen import Frozen, set_field
from .witt import IdealLevel

__all__ = [
    "ShiftedIdealSum",
    "AbelianGroupPresentation",
    "StepKind",
    "StepVerdict",
]


class StepKind(Enum):
    ISO = "ISO"
    INJECTIVE_NOT_SURJECTIVE = "INJECTIVE_NOT_SURJECTIVE"


def _divisibility_normal_form(orders: list[int]) -> tuple[int, ...]:
    # Replace each pair i < k by (gcd, lcm) where work[i] does not divide
    # work[k]: the classical reduction to invariant factors, with no
    # integer factorization.  One pass suffices: after row i, work[i]
    # divides every later entry, and the gcd and lcm of its multiples
    # stay its multiples, so the result is a divisibility chain.
    work = [abs(o) for o in orders if abs(o) != 1]
    if any(o == 0 for o in work):
        raise ValueError("torsion orders must be nonzero")
    for i, k in itertools.combinations(range(len(work)), 2):
        a, b = work[i], work[k]
        if b % a != 0:
            g = gcd(a, b)
            work[i], work[k] = g, a * b // g
    return tuple(o for o in work if o != 1)


class AbelianGroupPresentation(Frozen):
    """A finitely generated abelian group in invariant-factor normal form.

    torsion_orders is sorted so that each order divides the next; the
    constructor rejects orders that are not already in normal form (use
    from_orders to normalize an arbitrary multiset of cyclic orders).
    It stores them as a tuple, and in runs as (order, count) pairs.

    >>> AbelianGroupPresentation.from_orders(0, [4, 2, 3])
    AbelianGroupPresentation(free_rank=0, torsion_orders=(2, 12))
    >>> AbelianGroupPresentation(0, [2, 2, 8]).runs
    ((2, 2), (8, 1))
    """

    def __init__(self, free_rank: int, torsion_orders: tuple[int, ...] = ()) -> None:
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        torsion_orders = tuple(torsion_orders)
        # a chain of orders >= 2 is sorted, so a run of equal orders ends
        # where bisect_right puts its order, just before a larger one; the
        # slice comparison checks that the run holds only its order
        runs, start, below = [], 0, 1
        chain = not torsion_orders or torsion_orders[0] >= 2
        while chain and start < len(torsion_orders):
            order = torsion_orders[start]
            end = bisect_right(torsion_orders, order, start)
            chain = (order % below == 0
                     and torsion_orders[start:end] == (order,) * (end - start))
            runs.append((order, end - start))
            start, below = end, order
        if not chain:
            if min(torsion_orders) < 2:
                raise ValueError("torsion orders must be at least 2")
            raise ValueError(
                "torsion orders must form a divisibility chain, got %r"
                % (torsion_orders,)
            )
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion_orders", torsion_orders)
        set_field(self, "runs", tuple(runs))

    @classmethod
    def from_orders(cls, free_rank: int, orders) -> "AbelianGroupPresentation":
        """Normalize an arbitrary multiset of cyclic orders.

        This is the general normalizer: a pairwise gcd/lcm reduction,
        quadratic in the number of orders.  Callers that already hold a
        divisibility chain construct the presentation directly.
        """
        return cls(free_rank, _divisibility_normal_form(list(orders)))

    @classmethod
    def trivial(cls) -> "AbelianGroupPresentation":
        return cls(0, ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_orders

    @property
    def exponent(self) -> int:
        """Smallest n killing the torsion part (1 if torsion-free)."""
        return self.runs[-1][0] if self.runs else 1

    def __str__(self) -> str:
        free = self.free_rank
        parts = ["Z" if free == 1 else "Z^%d" % free] if free else []
        parts += ["Z/%d" % order if count == 1 else "(Z/%d)^%d" % (order, count)
                  for order, count in self.runs]
        return " (+) ".join(parts) or "0"


class StepVerdict(Frozen):
    def __init__(self, kind: StepKind, cokernel: AbelianGroupPresentation) -> None:
        set_field(self, "kind", kind)
        set_field(self, "cokernel", cokernel)

    @property
    def is_iso(self) -> bool:
        return self.kind is StepKind.ISO


def _step_verdict(coker_rank: int) -> StepVerdict:
    # every step here is injective; its cokernel is (Z/2)^coker_rank
    kind = StepKind.INJECTIVE_NOT_SURJECTIVE if coker_rank else StepKind.ISO
    return StepVerdict(kind, AbelianGroupPresentation(0, (2,) * coker_rank))


class ShiftedIdealSum(Frozen):
    """A multiset {(shift, multiplicity)} denoting (+)_s (I^{j-s})^m at level j.

    Summands are stored sorted by shift with multiplicities merged, so
    equal multisets compare equal.

    >>> gm = ShiftedIdealSum.from_pairs([(0, 1), (1, 1)])
    >>> gm.describe_at(2)
    '4Z (+) 2Z'
    >>> gm.describe_at(0)
    'Z (+) Z'
    """

    def __init__(self, summands: tuple[tuple[int, int], ...]) -> None:
        merged: dict[int, int] = {}
        for shift, mult in summands:
            if mult < 0:
                raise ValueError("multiplicities must be non-negative")
            if mult:
                merged[shift] = merged.get(shift, 0) + mult
        set_field(self, "summands", tuple(sorted(merged.items())))

    @classmethod
    def from_pairs(cls, pairs) -> "ShiftedIdealSum":
        # not tuple(pairs): tuple() of a generator grows by resizing, which
        # in CPython moves blocks between the per-size tuple free lists, so
        # a long-running process fills them to their cap (2000 tuples of
        # each size) until a full garbage collection.  __init__ stores its
        # own tuple anyway.
        return cls(list(pairs))

    @classmethod
    def empty(cls) -> "ShiftedIdealSum":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.summands

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.summands)

    @property
    def max_shift(self) -> int | None:
        return self.summands[-1][0] if self.summands else None

    def evaluate(self, j: int) -> tuple[tuple[IdealLevel, int], ...]:
        """The group at level j as (ideal power, multiplicity) pairs."""
        # from a list, not a generator: see from_pairs
        return tuple([(IdealLevel(j - s), m) for s, m in self.summands])

    def describe_at(self, j: int) -> str:
        if self.is_empty:
            return "0"
        parts = []
        for level, mult in self.evaluate(j):
            base = level.subgroup_str()
            parts.append((base + " (+) ") * (mult - 1) + base)
        return " (+) ".join(parts)

    def step_verdict(self, j: int) -> StepVerdict:
        """Verdict for the single step from level j to level j + 1.

        The step is injective always (multiplication by a nonzero
        integer on each summand) and bijective exactly on the summands
        already at non-negative level; each summand still below level 0
        contributes Z/2 to the cokernel.
        """
        return _step_verdict(sum(m for s, m in self.summands if s > j))

    def graded_step_verdict(self, j: int) -> StepVerdict:
        """Verdict for the step on graded pieces at level j.

        On the quotient chain a summand with shift s contributes the
        graded piece of I^{j-s}, which has order 2 for j - s >= 0 and is
        trivial below.  The graded step on a summand fails to be onto
        exactly when the piece jumps from trivial to order 2, i.e. when
        j - s == -1; everywhere else it maps a piece isomorphically (or
        zero to zero).
        """
        return _step_verdict(sum(m for s, m in self.summands if s == j + 1))

    def composite_cokernel(self, j0: int, j1: int) -> AbelianGroupPresentation:
        """Cokernel of the composite of steps from level j0 to level j1.

        Each summand of shift s contributes a cyclic group of order
        2^min(max(s - j0, 0), j1 - j0): one factor of 2 for every step
        taken while its level is still negative, capped by the number of
        steps taken at all.

        The orders come out already in invariant-factor form: summands
        are stored sorted by shift and the exponent never decreases as s
        grows, so the 2-powers with positive exponent form a divisibility
        chain.  The presentation is built directly, one run of equal
        orders per summand, and its constructor checks the chain per run.

        >>> str(ShiftedIdealSum.from_pairs([(3, 2)]).composite_cokernel(1, 5))
        '(Z/4)^2'
        """
        if j1 < j0:
            raise ValueError("target level must not be below source level")
        orders: list[int] = []
        for s, m in self.summands:
            k = min(max(s - j0, 0), j1 - j0)
            if k > 0:
                orders.extend([2 ** k] * m)
        return AbelianGroupPresentation(0, tuple(orders))

    def cokernel_exponent(self, j0: int) -> int:
        """Exponent of the cokernel from level j0 into any stable level.

        Stable means at or above the maximal shift, where every later
        step is bijective.  Equals 2^max(0, max_shift - j0); an empty
        sum gives 1.
        """
        if self.is_empty:
            return 1
        return 2 ** max(0, self.max_shift - j0)

    def __str__(self) -> str:
        if self.is_empty:
            return "0"

        def term(s: int, m: int) -> str:
            if s > 0:
                base = "I[j-%d]" % s
            elif s < 0:
                base = "I[j+%d]" % -s
            else:
                base = "I[j]"
            return base if m == 1 else "%s^%d" % (base, m)

        return " (+) ".join(term(s, m) for s, m in self.summands)
