"""Range verdicts, certificate transfer, comparison-map report, splitting."""
from __future__ import annotations

import hashlib
import random
import time

import pytest

from helpers import random_tree, replay_provenance
from wittlinear import cli, ranges
from wittlinear import (
    FINITE_FIELD,
    Affine,
    CapabilityError,
    ClosedGlue,
    ClosureOrder,
    Empty,
    OpenGlue,
    Product,
    ProjTimesTorus,
    RccmCase,
    SmoothnessRequiredError,
    Stratified,
    TLinearAnswer,
    TorusCell,
    TShapeRequiredError,
    Vanishing,
    h0_torus_cells,
    ibar_range,
    lift_to_twisted_ideal,
    rccm_report,
    sheaf_range,
    t_linear_verdict,
    t_linear_verdict_sheaf,
)

GM_TREE = OpenGlue(Affine(1), Affine(0))


class TestIbarRange:
    def test_affine(self):
        v = ibar_range(Affine(4))
        assert v.iso_diag == 0
        assert v.inj_diag == -1
        assert v.is_iso(0, 0)
        assert v.is_iso(3, -3)
        assert not v.is_iso(0, -1)
        assert v.is_injective(0, -1)

    def test_gm_glue(self):
        v = ibar_range(GM_TREE)
        assert v.iso_diag == 1
        assert not v.is_iso(0, 0)
        assert v.is_iso(1, 0)

    def test_torus_cells(self):
        for d in range(0, 6):
            assert ibar_range(TorusCell(2, d)).iso_diag == d

    def test_finite_field_is_refused(self):
        with pytest.raises(CapabilityError):
            ibar_range(Affine(1), FINITE_FIELD)
        with pytest.raises(CapabilityError):
            sheaf_range(Affine(1), FINITE_FIELD)

    def test_provenance_replays(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_tree(rng, rng.randint(0, 4))
            v = ibar_range(t)
            replay_provenance(v.provenance, v.iso_diag)


class TestSheafRange:
    def test_needs_smoothness(self):
        glued = ClosedGlue(Affine(0), Affine(1))
        with pytest.raises(SmoothnessRequiredError):
            sheaf_range(glued)
        assert sheaf_range(glued.assume_smooth()).level == 0

    def test_affine_iso_from_degree(self):
        v = sheaf_range(Affine(3))
        assert v.level == 0
        assert v.is_iso(2, 2)
        assert not v.is_iso(2, 1)
        assert v.iso_from(2) == 2

    def test_torus_cell_thresholds(self):
        v = sheaf_range(TorusCell(0, 3))
        assert v.level == 3 and v.dim == 3
        assert v.sheaf == "graded"
        assert v.is_iso(0, 3)
        assert not v.is_iso(0, 2)
        assert v.is_injective(0, 2)
        assert v.classify(0, 2) == "NOT_SURJECTIVE"
        assert v.classify(0, 3) == "ISO"

    def test_stratified_takes_worst_stratum(self):
        x = Stratified((TorusCell(0, 2), Affine(1)), ClosureOrder.chain(2))
        v = sheaf_range(x.assume_smooth())
        assert v.level == 2

    def test_dimension_cap(self):
        v = sheaf_range(TorusCell(3, 2))
        assert v.dim == 5
        # far below the converted threshold but above the dimension
        assert v.is_iso(7, 6)
        assert v.iso_from(7) == 6
        assert v.classify(7, 6) == "ISO"

    def test_certified_cokernel_points(self):
        v = sheaf_range(TorusCell(0, 2))
        assert v.not_surjective == frozenset({(0, -1), (0, 0), (0, 1)})
        assert v.classify(0, -1) == "NOT_SURJECTIVE"

    def test_no_certificates_for_glue_trees(self):
        assert sheaf_range(GM_TREE).not_surjective == frozenset()
        # open(A^1, A^0) has no certificate: the diagonal just below the
        # bound is INJECTIVE
        assert sheaf_range(GM_TREE).classify(1, 1) == "INJECTIVE"

    def test_conversion_rule_is_recorded(self):
        v = sheaf_range(TorusCell(0, 2))
        assert v.provenance[-1].rule == "smooth-degree-conversion"
        replay_provenance(v.provenance, v.level)


class TestLift:
    def test_keeps_only_the_boundary_diagonal(self):
        v = lift_to_twisted_ideal(sheaf_range(TorusCell(0, 3)))
        assert v.sheaf == "twisted-ideal"
        assert v.not_surjective == frozenset({(0, 2)})
        assert v.classify(0, 2) == "NOT_SURJECTIVE"
        assert v.classify(0, 1) == "UNKNOWN"

    def test_level_zero_certificate_survives(self):
        # for A^n the boundary diagonal is j = i - 1 and the grade -1
        # certificate sits exactly there
        v = lift_to_twisted_ideal(sheaf_range(Affine(2)))
        assert v.level == 0
        assert v.not_surjective == frozenset({(0, -1)})

    def test_thresholds_are_unchanged(self):
        base = sheaf_range(TorusCell(1, 2))
        lifted = lift_to_twisted_ideal(base)
        assert (lifted.level, lifted.dim) == (base.level, base.dim)
        for i in range(0, 4):
            for j in range(-2, 6):
                assert lifted.is_iso(i, j) == base.is_iso(i, j)

    def test_provenance_replays(self):
        v = lift_to_twisted_ideal(sheaf_range(TorusCell(0, 2)))
        assert v.provenance[-1].rule == "graded-to-twisted-ideal"
        replay_provenance(v.provenance, v.level)


class TestRccm:
    def test_torus_cell_iso_from_dimension(self):
        r = rccm_report(TorusCell(0, 3), 0)
        assert r.iso_from() == 3
        assert r.classify(3).case is RccmCase.ISO
        assert r.classify(4).case is RccmCase.ISO

    def test_affine_iso_from_zero(self):
        r = rccm_report(Affine(3), 0)
        assert r.iso_from() == 0
        assert r.classify(0).case is RccmCase.ISO

    def test_iso_at_degree_plus_level(self):
        for x, i in [(TorusCell(0, 2), 1), (GM_TREE, 0), (Affine(2), 2)]:
            r = rccm_report(x, i)
            assert r.classify(i + r.level).case is RccmCase.ISO

    def test_injective_on_the_boundary(self):
        r = rccm_report(TorusCell(0, 3), 0)
        entry = r.classify(2)
        assert entry.case is RccmCase.INJECTIVE
        assert entry.image_contains_power == 1
        assert entry.image_equals_power is None

    def test_image_equals_below_the_degree(self):
        r = rccm_report(TorusCell(0, 2), 4)
        entry = r.classify(1)
        assert entry.case is RccmCase.IMAGE_EQUALS
        assert entry.image_contains_power == 4 + 2 - 1
        assert entry.image_equals_power == 4 - 1

    def test_image_contains_in_between(self):
        r = rccm_report(TorusCell(0, 3), 1)
        entry = r.classify(2)
        assert entry.case is RccmCase.IMAGE_CONTAINS
        assert entry.image_contains_power == 1 + 3 - 2
        assert entry.image_equals_power is None

    def test_dimension_cap(self):
        r = rccm_report(TorusCell(0, 2), 5)
        assert r.iso_from() == 3
        assert r.classify(3).case is RccmCase.ISO

    def test_needs_smoothness(self):
        with pytest.raises(SmoothnessRequiredError):
            rccm_report(ClosedGlue(Affine(0), Affine(1)), 0)

    def test_provenance_replays(self):
        r = rccm_report(TorusCell(0, 2), 0)
        assert r.provenance[-1].rule == "comparison-factorization"
        replay_provenance(r.provenance, r.level)


class TestTLinearShape:
    def test_shape_is_enforced(self):
        with pytest.raises(TShapeRequiredError):
            t_linear_verdict(Affine(2), 0, 0)
        with pytest.raises(TShapeRequiredError):
            t_linear_verdict(OpenGlue(TorusCell(0, 2), Affine(0)), 0, 0)
        with pytest.raises(TShapeRequiredError):
            t_linear_verdict_sheaf(ClosedGlue(Affine(0), Affine(1)), 0, 0)

    def test_empty_complement_is_always_iso_on_the_diagonal(self):
        x = OpenGlue(Affine(3), Empty())
        for i in range(0, 4):
            assert t_linear_verdict(x, i, -i) is TLinearAnswer.ISO

    def test_gm_homological_indexing(self):
        # removing the origin of the line: degree 1, grade -1 sits on
        # the diagonal and the removed point does not vanish there
        assert t_linear_verdict(GM_TREE, 1, -1) is TLinearAnswer.NOT_ISO
        assert t_linear_verdict(GM_TREE, 1, 0) is TLinearAnswer.ISO
        assert t_linear_verdict(GM_TREE, 1, -2) is TLinearAnswer.UNKNOWN

    def test_gm_sheaf_indexing(self):
        assert t_linear_verdict_sheaf(GM_TREE, 0, 0) is TLinearAnswer.NOT_ISO
        for j in range(1, 5):
            assert t_linear_verdict_sheaf(GM_TREE, 0, j) is TLinearAnswer.ISO
        assert t_linear_verdict_sheaf(GM_TREE, 0, -1) is TLinearAnswer.UNKNOWN

    def test_two_step_recursion(self):
        x = OpenGlue(Affine(2), TorusCell(0, 1))
        assert t_linear_verdict(x, 2, -1) is TLinearAnswer.NOT_ISO
        assert t_linear_verdict(x, 2, 0) is TLinearAnswer.ISO
        # on the diagonal the question becomes vanishing of the removed
        # torus in degree 1 at grade -1, which fails (top degree, grade
        # b + dim = 0 >= 0)
        assert t_linear_verdict(x, 2, -2) is TLinearAnswer.NOT_ISO

    def test_degrees_above_top_are_iso(self):
        assert t_linear_verdict(GM_TREE, 5, 0) is TLinearAnswer.ISO
        assert t_linear_verdict(GM_TREE, -1, 0) is TLinearAnswer.ISO


def open_chain(bottom, depth: int):
    """open(A^k, open(A^(k-1), ... bottom)), depth open steps over bottom."""
    z = bottom
    for _ in range(depth):
        z = OpenGlue(Affine(0 if z.is_empty else z.dim + 1), z)
    return z


def parity_oracle(z, a, b):
    return Vanishing.ZERO if (a + b) % 2 else Vanishing.NONZERO


class TestTLinearDeepChains:
    """The splitting analysis descends an open chain one step per level
    above the diagonal, so it answers at any depth."""

    def test_depth_2000_chain_answers(self):
        x = open_chain(Affine(0), 2000)
        # 1999 steps down to open(A^1, A^0) on its diagonal, where the
        # removed point does not vanish; and 2000 steps down to A^0
        assert t_linear_verdict(x, 2000, -1) is TLinearAnswer.NOT_ISO
        assert t_linear_verdict(open_chain(Affine(0), 2), 2, -1) is TLinearAnswer.NOT_ISO
        assert t_linear_verdict(x, 2000, 0) is TLinearAnswer.ISO
        assert t_linear_verdict_sheaf(x, 0, 2000) is TLinearAnswer.ISO

    # sha256 (first 16 hex digits) of the answers' initials over depths
    # 1..50 and (i, j) with -1 <= i <= depth + 2 and |i + j| <= 2, as
    # the recursive analysis gave them
    RECORDED = {
        ("empty", False): "27e8e8e53593990f",
        ("empty", True): "f39959ba5fc08abc",
        ("point", False): "6d53c6bf6d7e3428",
        ("point", True): "cf8319d94bcfaa54",
        ("torus", False): "ef23a4ab8dd85d4c",
        ("torus", True): "ae3fcd9f92c4ff91",
        ("proj", False): "e4ea48468e5f5918",
        ("proj", True): "a97d5a0e079cbebd",
    }
    BOTTOMS = {"empty": Empty(), "point": Affine(0), "torus": TorusCell(0, 2),
               "proj": ProjTimesTorus(1, 1)}

    @pytest.mark.parametrize("bottom,with_oracle", sorted(RECORDED))
    def test_shallow_chains_keep_their_answers(self, bottom, with_oracle):
        oracle = parity_oracle if with_oracle else None
        rows = []
        for depth in range(1, 51):
            x = open_chain(self.BOTTOMS[bottom], depth)
            rows.append("".join(
                t_linear_verdict(x, i, j, oracle).value[0]
                for i in range(-1, depth + 3) for j in range(-i - 2, -i + 3)))
        digest = hashlib.sha256("|".join(rows).encode()).hexdigest()[:16]
        assert digest == self.RECORDED[bottom, with_oracle]


class TestVanishingOracle:
    def test_oracle_settles_the_diagonal(self):
        inner = ClosedGlue(Affine(0), Affine(1))  # structurally opaque
        x = OpenGlue(Affine(4), inner)

        def zero(z, a, b):
            assert z == inner
            return Vanishing.ZERO

        def nonzero(z, a, b):
            return Vanishing.NONZERO

        def unknown(z, a, b):
            return Vanishing.UNKNOWN

        i, j = 4, -4  # on the diagonal
        assert t_linear_verdict(x, i, j) is TLinearAnswer.UNKNOWN
        assert t_linear_verdict(x, i, j, zero) is TLinearAnswer.ISO
        assert t_linear_verdict(x, i, j, nonzero) is TLinearAnswer.NOT_ISO
        assert t_linear_verdict(x, i, j, unknown) is TLinearAnswer.UNKNOWN

    def test_oracle_must_return_vanishing(self):
        x = OpenGlue(Affine(4), ClosedGlue(Affine(0), Affine(1)))
        with pytest.raises(TypeError):
            t_linear_verdict(x, 4, -4, lambda z, a, b: True)

    def test_structural_answers_do_not_consult_the_oracle(self):
        def exploding(z, a, b):
            raise AssertionError("oracle must not be called")

        assert t_linear_verdict(GM_TREE, 1, -1, exploding) is \
            TLinearAnswer.NOT_ISO


class TestCoincidenceWithExplicitComputation:
    def test_torus_cell_thresholds_match_step_verdicts(self):
        for n in (0, 2):
            for d in range(0, 41):
                verdict = sheaf_range(TorusCell(n, d))
                total = h0_torus_cells(n, d)
                for j in range(-3, d + 4):
                    # the step is onto once no summand is still below level 0
                    iso = all(s <= j for s, _ in total.summands)
                    if d <= 10:  # step_verdict lists 2^d factors of Z/2
                        assert iso == total.step_verdict(j).is_iso
                    assert verdict.is_iso(0, j) == iso
                    if not iso and j >= -1:
                        assert verdict.classify(0, j) == "NOT_SURJECTIVE"

    def test_torus_cell_certificates_and_graded_steps_read_off_the_summands(self):
        for n in (0, 2):
            for d in range(0, 41):
                cell, total = TorusCell(n, d), h0_torus_cells(n, d)
                assert sheaf_range(cell).not_surjective == frozenset(
                    (0, s - 1) for s, _ in total.summands)
                ambient = OpenGlue(Affine(n + d + 1), cell)
                for j in range(-3, d + 4):
                    # a summand of shift s obstructs exactly at grade j = s - 1
                    obstructed = any(s == j + 1 for s, _ in total.summands)
                    expected = TLinearAnswer.NOT_ISO if obstructed else TLinearAnswer.ISO
                    assert ranges._graded_step_iso(cell, n + d, j - n - d, None) is expected
                    if j >= 0:  # above the diagonal the open piece descends to the cell
                        assert t_linear_verdict(ambient, n + d + 1, j - n - d) is expected

    @pytest.mark.parametrize("argv", [
        ["rccm", "Gm^6000", "--i", "0"],
        ["range", "Gm^6000", "--i", "0", "--format", "json"],
    ], ids=["rccm", "range"])
    def test_a_torus_cell_of_rank_6000_answers_within_a_second(self, capsys, argv):
        # these built a math.comb row of 6000 to read its shifts, for about 3 s
        start = time.perf_counter()
        assert cli.main(argv) == 0
        assert time.perf_counter() - start < 1

    def test_gm_glue_range_level(self):
        assert GM_TREE.range_level() == 1
