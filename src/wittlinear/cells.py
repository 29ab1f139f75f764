"""Explicit cohomology of torus cells and of P^c x Gm^e.

These are the two families whose cohomology is written down exactly, as
shifted ideal sums, rather than bounded by range rules.  For P^c x Gm^e
and the twist O(c+1) the cellular complex in degree c has zero incoming
differential, so the degree-c cohomology is a binomial pattern of
shifts c..c+e (the Kunneth expansion of e copies of the two-term Gm
answer, moved up by c).  A torus cell A^n x Gm^d is the c = 0 row.  Each
row is built in one pass, each binomial from the one before.
"""

from __future__ import annotations

from ._frozen import Frozen, set_field
from .shifted import ShiftedIdealSum
from .witt import TwistLabel

__all__ = [
    "UnsupportedDifferentialError",
    "CellularComplexSlice",
    "h0_torus_cells",
    "hc_proj_times_torus",
    "cellular_complex_proj_times_torus",
    "expected_twist",
]


class UnsupportedDifferentialError(ValueError):
    """Raised when a twist or degree is outside the computed cases."""


def h0_torus_cells(n: int, d: int) -> ShiftedIdealSum:
    """Degree-0 cohomology of A^n x Gm^d: the c = 0 row of hc_proj_times_torus.

    The affine factor contributes nothing; each torus factor tensors the
    answer with (shift 0) + (shift 1), so the shifts follow the binomial
    distribution on 0..d, each binomial built from the one before.

    >>> h0_torus_cells(0, 1).summands
    ((0, 1), (1, 1))
    >>> h0_torus_cells(2, 3).total_multiplicity
    8
    """
    if n < 0 or d < 0:
        raise ValueError("cell parameters must be non-negative")
    return hc_proj_times_torus(0, d, TwistLabel.trivial())


def expected_twist(c: int) -> TwistLabel:
    """The unique twist for which the degree-c differential vanishes."""
    return TwistLabel.o(c + 1)


def check_twist(c: int, twist: TwistLabel) -> None:
    """Refuse a twist on P^c x Gm^e whose degree-c differential is not
    known to vanish: any but O(c + 1); on a point, any but a trivial one."""
    if c == 0 and not (twist.is_trivial or twist in (TwistLabel.o(0), TwistLabel.o(1))):
        raise UnsupportedDifferentialError(
            "on a point only the trivial twist makes sense, got %s" % twist)
    if c > 0 and twist != expected_twist(c):
        raise UnsupportedDifferentialError("differential only known to vanish for twist "
                                           "%s, got %s" % (expected_twist(c), twist))


class CellularComplexSlice(Frozen):
    """The cellular complex around degree c for P^c x Gm^e.

    incoming is the degree c-1 term, current the degree-c term, and
    differential names the incoming map.  Only the vanishing case is
    computed; every other twist is refused rather than guessed.
    """

    _fields = ("degree", "twist", "incoming", "current", "differential")

    def __init__(self, degree: int, twist: TwistLabel, incoming: ShiftedIdealSum,
                 current: ShiftedIdealSum, differential: str = "ZERO") -> None:
        set_field(self, "degree", degree)
        set_field(self, "twist", twist)
        set_field(self, "incoming", incoming)
        set_field(self, "current", current)
        set_field(self, "differential", differential)


def cellular_complex_proj_times_torus(c: int, e: int,
                                      twist: TwistLabel) -> CellularComplexSlice:
    """Cellular complex slice at degree c for P^c x Gm^e with a twist.

    Requires c >= 1 (degree c - 1 must exist) and the twist O(c+1); for
    that twist the top incoming differential is zero, which is what
    makes the degree-c cohomology an honest direct sum.

    >>> s = cellular_complex_proj_times_torus(1, 2, TwistLabel.o(2))
    >>> s.incoming.summands
    ((0, 1), (1, 2), (2, 1))
    >>> s.current.summands
    ((1, 1), (2, 2), (3, 1))
    """
    if c < 1:
        raise UnsupportedDifferentialError(
            "cellular slice needs c >= 1; the point case has no incoming term"
        )
    if e < 0:
        raise ValueError("torus rank must be non-negative")
    current = hc_proj_times_torus(c, e, twist)
    incoming = ShiftedIdealSum.from_pairs((s - 1, m) for s, m in current.summands)
    return CellularComplexSlice(c, twist, incoming, current)


def hc_proj_times_torus(c: int, e: int, twist: TwistLabel) -> ShiftedIdealSum:
    """Degree-c cohomology of P^c x Gm^e with the twist O(c+1): C(e, i)
    at shift c + i, each binomial built from the one before.

    For c = 0 the projective factor is a point, any label for the trivial
    bundle on a point is accepted, and this is the torus-cell row.

    >>> hc_proj_times_torus(2, 3, TwistLabel.o(3)).summands
    ((2, 1), (3, 3), (4, 3), (5, 1))
    """
    if c < 0 or e < 0:
        raise ValueError("parameters must be non-negative")
    check_twist(c, twist)
    pairs, m = [], 1
    for i in range(e + 1):
        pairs.append((c + i, m))
        m = m * (e - i) // (i + 1)
    return ShiftedIdealSum.from_pairs(pairs)
