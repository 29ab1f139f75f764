"""Ranges where the graded and twisted-ideal steps act bijectively.

Two indexing conventions coexist and the conversion between them is the
one place in the package where smoothness matters.  Homological degrees
count the dimension of the supporting points (the convention the glue
arguments run in); sheaf-cohomological degrees count codimension.  For a
smooth scheme of dimension m,

    H_a(X, grade b)  =  H^{m-a}(X, grade b+m),

so a statement "bijective for a + b >= n" in homological indexing reads
"bijective for j >= i + n" after substituting a = m - i, b = j - m.

The homological range verdict is the pure witnessed diagonal produced by
the shape rules of the construction tree.  The sheaf-indexed verdict
adds the dimension cap: above j = dim(X) every ideal sheaf looks the
same, so the step is bijective there regardless of the diagonal.

Worked conversion, recorded because getting it wrong flips a verdict.
Take the punctured line, built as open(A^1, A^0); its degree-0
cohomology is the shifted sum (shift 0) + (shift 1), so the graded step
at sheaf level j = 0 has cokernel Z/2: not bijective.  Converting sheaf
(i, j) = (0, 0) with m = 1 gives homological (a, b) = (1, -1) and the
splitting analysis at a + b = 0 asks whether the degree-0 group of the
removed point vanishes at grade b' where a' = a - 1 = 0 and
b' = -a + 1 = 0.  It is the grade-0 piece, order 2, nonzero, hence
NOT_ISO, which matches.  The vanishing test must read the grade at
-a + 1, not -a - 1: with -a - 1 = -2 the piece would be trivial and the
verdict would wrongly come out ISO.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

from ._frozen import Frozen, replace, set_field
from .schemes import (
    Affine,
    OpenGlue,
    RuleApplication,
    SchemeExpr,
    as_torus_cell,
    range_level_with_rules,
)
from .witt import REAL, FieldCapability

__all__ = [
    "CapabilityError",
    "SmoothnessRequiredError",
    "TShapeRequiredError",
    "Vanishing",
    "TLinearAnswer",
    "VanishingOracle",
    "RangeVerdict",
    "SheafRangeVerdict",
    "RccmCase",
    "RccmEntry",
    "RccmVerdict",
    "ibar_range",
    "sheaf_range",
    "lift_to_twisted_ideal",
    "rccm_report",
    "t_linear_verdict",
    "t_linear_verdict_sheaf",
]


class CapabilityError(RuntimeError):
    """The base field does not support the graded step the rules need."""


class SmoothnessRequiredError(RuntimeError):
    """Sheaf-indexed statements need a smooth scheme for the conversion."""


class TShapeRequiredError(RuntimeError):
    """The splitting analysis applies to open(A^n, Z) shapes only."""


class Vanishing(Enum):
    ZERO = "ZERO"
    NONZERO = "NONZERO"
    UNKNOWN = "UNKNOWN"


class TLinearAnswer(Enum):
    ISO = "ISO"
    NOT_ISO = "NOT_ISO"
    UNKNOWN = "UNKNOWN"


# oracle signature: (scheme, homological degree, grade) -> Vanishing.
# collections.abc's Callable, because typing.Callable caches the alias
# for the life of the process, which keeps these modules alive after a
# re-import.
VanishingOracle = Callable[[SchemeExpr, int, int], Vanishing]


def _require_field(field: FieldCapability) -> None:
    if not field.graded_step_iso:
        raise CapabilityError(
            "over %s the graded step is not bijective in low degrees "
            "(binary forms are universal there, so the filtration dies at "
            "the second stage) and the range rules have no base case"
            % field.name
        )


class RangeVerdict(Frozen):
    """Witnessed diagonal in homological indexing.

    The step on degree-a homology at grade b is bijective whenever
    a + b >= iso_diag and injective already at a + b = inj_diag.
    """

    def __init__(self, iso_diag: int, inj_diag: int,
                 provenance: tuple[RuleApplication, ...]) -> None:
        set_field(self, "iso_diag", iso_diag)
        set_field(self, "inj_diag", inj_diag)
        set_field(self, "provenance", provenance)

    def is_iso(self, a: int, b: int) -> bool:
        return a + b >= self.iso_diag

    def is_injective(self, a: int, b: int) -> bool:
        return a + b >= self.inj_diag


class SheafRangeVerdict(Frozen):
    """The same range read in sheaf indexing for a smooth scheme.

    level is the converted bound: the step on H^i at sheaf grade j is
    bijective for j >= i + level, injective already at j = i + level - 1,
    and bijective unconditionally for j >= dim + 1 (all ideal sheaves
    agree above the dimension).  not_surjective lists (i, j) pairs where
    the step is certified to have a cokernel.
    """

    def __init__(self, level: int, dim: int, sheaf: str, not_surjective: frozenset,
                 provenance: tuple[RuleApplication, ...]) -> None:
        set_field(self, "level", level)
        set_field(self, "dim", dim)
        set_field(self, "sheaf", sheaf)
        set_field(self, "not_surjective", not_surjective)
        set_field(self, "provenance", provenance)

    def iso_from(self, i: int) -> int:
        return min(i + self.level, self.dim + 1)

    def is_iso(self, i: int, j: int) -> bool:
        return j >= self.iso_from(i)

    def is_injective(self, i: int, j: int) -> bool:
        return self.is_iso(i, j) or j == i + self.level - 1

    def classify(self, i: int, j: int) -> str:
        if self.is_iso(i, j):
            return "ISO"
        if (i, j) in self.not_surjective:
            return "NOT_SURJECTIVE"
        if self.is_injective(i, j):
            return "INJECTIVE"
        return "UNKNOWN"


def ibar_range(x: SchemeExpr, field: FieldCapability = REAL) -> RangeVerdict:
    """Witnessed homological range for the graded step on x."""
    _require_field(field)
    level, rules = range_level_with_rules(x)
    return RangeVerdict(level, level - 1, rules)


def _graded_cokernel_points(x: SchemeExpr) -> frozenset:
    """(i, j) pairs where the graded step is certifiably not onto.

    Only trees structurally recognizable as torus cells have their
    degree-0 cohomology written down exactly; the certificate points are
    read off the shifts of its summands (cokernel exactly when some
    summand's grade jumps from trivial to order 2).
    """
    cell = as_torus_cell(x)
    if cell is None:
        return frozenset()
    # h0_torus_cells(n, d) has a summand at every shift 0..d
    return frozenset((0, s - 1) for s in range(cell[1] + 1))


def sheaf_range(x: SchemeExpr, field: FieldCapability = REAL) -> SheafRangeVerdict:
    """Sheaf-indexed range verdict for a smooth scheme."""
    _require_field(field)
    if not x.smooth:
        raise SmoothnessRequiredError(
            "sheaf-indexed ranges need a smooth scheme for the degree "
            "conversion; assert smoothness explicitly if it is known"
        )
    base = ibar_range(x, field)
    # the fold visits the root last, so its last record names x
    rules = base.provenance + (
        RuleApplication(base.provenance[-1].node, "smooth-degree-conversion",
                        (base.iso_diag,), base.iso_diag),
    )
    return SheafRangeVerdict(
        level=base.iso_diag,
        dim=x.dim,
        sheaf="graded",
        not_surjective=_graded_cokernel_points(x),
        provenance=rules,
    )


def lift_to_twisted_ideal(v: SheafRangeVerdict) -> SheafRangeVerdict:
    """Transfer the graded ranges to the twisted ideal sheaves themselves.

    Thresholds carry over unchanged for every twist: the graded pieces
    control the filtration steps.  Negative certificates transfer only
    on the boundary diagonal j = i + level - 1, where the four-lemma
    argument applies; certified graded cokernels elsewhere are dropped
    rather than over-claimed.
    """
    boundary = frozenset(
        (i, j) for (i, j) in v.not_surjective if j == i + v.level - 1
    )
    rules = v.provenance + (
        RuleApplication("lift", "graded-to-twisted-ideal", (v.level,), v.level),
    )
    return replace(v, sheaf="twisted-ideal", not_surjective=boundary,
                   provenance=rules)


class RccmCase(Enum):
    ISO = "ISO"
    INJECTIVE = "INJECTIVE"
    IMAGE_EQUALS = "IMAGE_EQUALS"
    IMAGE_CONTAINS = "IMAGE_CONTAINS"


class RccmEntry(Frozen):
    """Status of the comparison map H^i(ideal grade j) -> singular at one j.

    image_contains_power p means the image contains 2^p times the
    singular group; image_equals_power q means the image equals 2^q
    times the image of the grade-i comparison map.
    """

    def __init__(self, case: RccmCase, image_contains_power: int | None = None,
                 image_equals_power: int | None = None) -> None:
        set_field(self, "case", case)
        set_field(self, "image_contains_power", image_contains_power)
        set_field(self, "image_equals_power", image_equals_power)


class RccmVerdict(Frozen):
    """Range report for the comparison map to singular cohomology in
    degree i, valid for every line-bundle twist."""

    def __init__(self, i: int, level: int, dim: int,
                 provenance: tuple[RuleApplication, ...]) -> None:
        set_field(self, "i", i)
        set_field(self, "level", level)
        set_field(self, "dim", dim)
        set_field(self, "provenance", provenance)

    def iso_from(self) -> int:
        return min(self.i + self.level, self.dim + 1)

    def classify(self, j: int) -> RccmEntry:
        if j >= self.iso_from():
            return RccmEntry(RccmCase.ISO)
        i, n = self.i, self.level
        contains = i + n - j
        equals = i - j if j < i else None
        if j == i + n - 1:
            return RccmEntry(RccmCase.INJECTIVE, contains, equals)
        if j < i:
            return RccmEntry(RccmCase.IMAGE_EQUALS, contains, equals)
        return RccmEntry(RccmCase.IMAGE_CONTAINS, contains, None)


def rccm_report(x: SchemeExpr, i: int,
                field: FieldCapability = REAL) -> RccmVerdict:
    """Comparison-map ranges in degree i for a smooth scheme.

    The comparison map factors through the twisted-ideal steps, so its
    iso range is the lifted sheaf range capped at the dimension, and
    below the range each missed step costs at most one factor of 2 on
    the image.
    """
    graded = sheaf_range(x, field)
    lifted = lift_to_twisted_ideal(graded)
    # the conversion record closing graded's provenance names x
    rules = lifted.provenance + (
        RuleApplication(graded.provenance[-1].node, "comparison-factorization",
                        (lifted.level,), lifted.level),
    )
    return RccmVerdict(i=i, level=lifted.level, dim=lifted.dim, provenance=rules)


def _vanishes(z: SchemeExpr, a: int, b: int,
              oracle: VanishingOracle | None) -> Vanishing:
    """Does the degree-a homology of z at grade b vanish?

    Structural answers first: the empty scheme, affine spaces and torus
    cells concentrate their homology in top degree, where the group is
    the evaluated shifted sum.  Everything else is asked of the
    caller-provided oracle, and is UNKNOWN without one.
    """
    if a < 0 or z.is_empty:
        return Vanishing.ZERO
    cell = as_torus_cell(z)
    if cell is not None:
        n, d = cell
        if a != n + d:
            return Vanishing.ZERO
        # graded pieces at grades (b + dim) - s for shifts s in 0..d;
        # some piece is nonzero exactly when b + dim >= 0
        return Vanishing.NONZERO if b + n + d >= 0 else Vanishing.ZERO
    if oracle is None:
        return Vanishing.UNKNOWN
    v = oracle(z, a, b)
    if not isinstance(v, Vanishing):
        raise TypeError("vanishing oracle must return a Vanishing value")
    return v


def _graded_step_iso(z: SchemeExpr, a: int, b: int,
                     oracle: VanishingOracle | None) -> TLinearAnswer:
    """Is the graded step bijective on degree-a homology of z at grade b?

    Decided structurally for empty schemes, affine spaces and torus
    cells (homology concentrated in top degree; a summand of shift s
    obstructs exactly at grade -1, i.e. when b + dim - s == -1).  For
    an open complement inside affine space the localization sequence
    reduces the question along the diagonal: strictly above a + b = 0 it
    descends to the removed piece with degree lowered by one; on the
    diagonal it becomes a vanishing question for the removed piece; and
    below the diagonal no rule applies, so the answer is UNKNOWN rather
    than a guess.
    """
    # the step above the diagonal descends to the removed piece: a loop,
    # so chains of any depth answer
    while True:
        if z.is_empty or a < 0:
            return TLinearAnswer.ISO
        cell = as_torus_cell(z)
        if cell is not None:
            n, d = cell
            if a != n + d:
                return TLinearAnswer.ISO
            # h0_torus_cells(n, d) has a summand at every shift 0..d
            return TLinearAnswer.NOT_ISO if 0 <= b + n + d + 1 <= d else TLinearAnswer.ISO
        if not (isinstance(z, OpenGlue) and isinstance(z.ambient, Affine)) or a + b < 0:
            return TLinearAnswer.UNKNOWN
        if a + b == 0:
            v = _vanishes(z.closed, a - 1, -a + 1, oracle)
            if v is Vanishing.ZERO:
                return TLinearAnswer.ISO
            if v is Vanishing.NONZERO:
                return TLinearAnswer.NOT_ISO
            return TLinearAnswer.UNKNOWN
        z, a = z.closed, a - 1


def t_linear_verdict(x: SchemeExpr, i: int, j: int,
                     oracle: VanishingOracle | None = None) -> TLinearAnswer:
    """Splitting analysis for x = open(A^n, Z) in homological indexing.

    Answers whether the graded step on degree-i homology at grade j is
    bijective, by the localization recursion onto the removed piece.
    ISO and NOT_ISO are definite; UNKNOWN means no rule or oracle
    settled it.
    """
    if not (isinstance(x, OpenGlue) and isinstance(x.ambient, Affine)):
        raise TShapeRequiredError(
            "splitting analysis needs the shape open(A^n, Z)"
        )
    return _graded_step_iso(x, i, j, oracle)


def t_linear_verdict_sheaf(x: SchemeExpr, i: int, j: int,
                           oracle: VanishingOracle | None = None) -> TLinearAnswer:
    """Same analysis with (i, j) in sheaf indexing.

    x is open inside affine space, hence smooth, so the conversion
    (a, b) = (dim - i, j - dim) is always available; t_linear_verdict
    checks the shape.
    """
    return t_linear_verdict(x, x.dim - i, j - x.dim, oracle)
