"""Exact arithmetic for symmetric bilinear forms over the real numbers.

A non-degenerate symmetric bilinear form over R is classified by its rank
and signature, so the Grothendieck-Witt ring is modelled as pairs of
integers and the Witt ring as a single signature integer.  The powers of
the fundamental ideal sit inside the Witt ring as the subgroups 2^q Z
(non-positive powers are the whole ring by convention), which turns every
ideal-membership question into a divisibility check and every successive
quotient into a cyclic 2-group.

Multiplication by the rank-2 form <<-1>> = <-1,-1> multiplies signatures
by -2.  On the subgroup chain ... 2^q Z -> 2^{q+1} Z ... this map is a
bijection once q >= 0 and has index-2 image below that, which is the
single fact the range machinery in the rest of the package leans on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._frozen import Frozen, set_field

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "InvalidFormError",
    "DiagonalForm",
    "GWClass",
    "WittClass",
    "IdealLevel",
    "TwistLabel",
    "FieldCapability",
    "REAL",
    "FINITE_FIELD",
    "GW_ZERO",
    "GW_ONE",
    "PFISTER_MINUS_ONE",
    "gw_class",
    "witt_class",
    "in_ideal_power",
    "pfister",
    "mult_pfister_minus_one",
]


class InvalidFormError(ValueError):
    """Raised for degenerate diagonal forms and parity-violating classes."""


class DiagonalForm(Frozen):
    """A diagonal form <a_1, ..., a_r> with exact rational coefficients.

    Coefficients must be nonzero; a zero entry would make the form
    degenerate and is rejected at construction.

    >>> from fractions import Fraction
    >>> DiagonalForm.of(1, -1, Fraction(2, 3)).signature
    1
    """

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        # imported here: fractions loads decimal and numbers, and no
        # command-line path builds a form
        from fractions import Fraction

        coerced = tuple(Fraction(e) for e in entries)
        if any(e == 0 for e in coerced):
            raise InvalidFormError("diagonal entries must be nonzero")
        set_field(self, "entries", coerced)

    @classmethod
    def of(cls, *coeffs: int | Fraction) -> "DiagonalForm":
        return cls(coeffs)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def signature(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.entries)

    def __str__(self) -> str:
        return "<%s>" % ", ".join(str(e) for e in self.entries)


class GWClass(Frozen):
    """A Grothendieck-Witt class over R, determined by (rank, signature).

    rank and signature always have the same parity: each diagonal entry
    contributes 1 to the rank and +-1 to the signature.

    >>> GWClass(2, 0) + GWClass(1, 1)
    GWClass(rank=3, signature=1)
    >>> GWClass(2, 1)
    Traceback (most recent call last):
        ...
    wittlinear.witt.InvalidFormError: rank 2 and signature 1 differ in parity
    """

    def __init__(self, rank: int, signature: int) -> None:
        if (rank - signature) % 2 != 0:
            raise InvalidFormError(
                "rank %d and signature %d differ in parity" % (rank, signature)
            )
        set_field(self, "rank", rank)
        set_field(self, "signature", signature)

    def __add__(self, other: "GWClass") -> "GWClass":
        return GWClass(self.rank + other.rank, self.signature + other.signature)

    def __neg__(self) -> "GWClass":
        return GWClass(-self.rank, -self.signature)

    def __sub__(self, other: "GWClass") -> "GWClass":
        return self + (-other)

    def __mul__(self, other: "GWClass") -> "GWClass":
        # tensor product multiplies both classifying invariants
        return GWClass(self.rank * other.rank, self.signature * other.signature)


GW_ZERO = GWClass(0, 0)
GW_ONE = GWClass(1, 1)


class WittClass(Frozen):
    """A Witt class over R; the signature is a complete invariant."""

    def __init__(self, signature: int) -> None:
        set_field(self, "signature", signature)

    def __add__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.signature + other.signature)

    def __neg__(self) -> "WittClass":
        return WittClass(-self.signature)

    def __sub__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.signature - other.signature)

    def __mul__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.signature * other.signature)


class IdealLevel(Frozen):
    """The q-th power of the fundamental ideal, as a subgroup of W(R) = Z.

    For q >= 1 this is the subgroup 2^q Z; for q <= 0 it is all of W(R).

    >>> IdealLevel(3).generator
    8
    >>> IdealLevel(-2).generator
    1
    """

    def __init__(self, q: int) -> None:
        set_field(self, "q", q)

    @property
    def generator(self) -> int:
        return 2 ** max(self.q, 0)

    def contains(self, w: WittClass) -> bool:
        return w.signature % self.generator == 0

    @property
    def graded_order(self) -> int:
        """Order of the successive quotient I^q / I^{q+1}.

        Equal to 2 for q >= 0 and 1 below (where both powers are all
        of W(R)).
        """
        return 2 ** (max(self.q + 1, 0) - max(self.q, 0))

    def subgroup_str(self) -> str:
        return "Z" if self.q <= 0 else "%dZ" % self.generator

    def __str__(self) -> str:
        return "W(R)" if self.q <= 0 else "I^%d(R)" % self.q


class TwistLabel(Frozen):
    """Opaque label for a line-bundle twist, e.g. "trivial" or "O(3)"."""

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)

    @classmethod
    def trivial(cls) -> "TwistLabel":
        return cls("trivial")

    @classmethod
    def o(cls, k: int) -> "TwistLabel":
        return cls("O(%d)" % k)

    @property
    def is_trivial(self) -> bool:
        return self.name == "trivial"

    def o_degree(self) -> int | None:
        """The integer k if this label is of the form O(k), else None."""
        if self.name.startswith("O(") and self.name.endswith(")"):
            inner = self.name[2:-1]
            try:
                return int(inner)
            except ValueError:
                return None
        return None

    def __str__(self) -> str:
        return self.name


class FieldCapability(Frozen):
    """Which base fields support the graded step the range rules rest on.

    graded_step_iso records whether multiplying by the rank-2 class
    <<-1>> is bijective on every non-negative graded piece of the
    fundamental-ideal filtration.  Over R it is (signature doubling on
    2^q Z / 2^{q+1} Z).  Over a finite field it fails already in the
    lowest degrees: binary forms represent everything, so I is a single
    copy of Z/2 and I^2 = 0, and no doubling map can be onto.
    """

    def __init__(self, name: str, graded_step_iso: bool) -> None:
        set_field(self, "name", name)
        set_field(self, "graded_step_iso", graded_step_iso)


REAL = FieldCapability("R", True)
FINITE_FIELD = FieldCapability("F_q", False)


def gw_class(form: DiagonalForm) -> GWClass:
    """The Grothendieck-Witt class of a diagonal form.

    >>> gw_class(DiagonalForm.of(1, 1, -1))
    GWClass(rank=3, signature=1)
    """
    return GWClass(form.rank, form.signature)


def witt_class(a: GWClass) -> WittClass:
    """Image in the Witt ring; hyperbolic planes <1,-1> die here."""
    return WittClass(a.signature)


def in_ideal_power(w: WittClass, q: int | IdealLevel) -> bool:
    """Whether w lies in I^q, i.e. 2^max(q,0) divides its signature.

    >>> in_ideal_power(WittClass(12), 2)
    True
    >>> in_ideal_power(WittClass(12), 3)
    False
    """
    level = q if isinstance(q, IdealLevel) else IdealLevel(q)
    return level.contains(w)


def pfister(a: int | Fraction) -> GWClass:
    """The binary Pfister class <<a>> = <a, -1>."""
    return gw_class(DiagonalForm.of(a, -1))


# pfister(-1) = <-1, -1>, written out so that importing the module
# builds no DiagonalForm
PFISTER_MINUS_ONE = GWClass(2, -2)


def mult_pfister_minus_one(w: WittClass) -> WittClass:
    """Multiplication by <<-1>>, i.e. signature times -2.

    Maps I^q onto I^{q+1} bijectively for q >= 0 and with index-2 image
    for q < 0 (where the source is all of W(R) and the image is 2Z).

    >>> mult_pfister_minus_one(WittClass(3))
    WittClass(signature=-6)
    """
    return WittClass(w.signature * PFISTER_MINUS_ONE.signature)
