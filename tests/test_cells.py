"""Explicit cell cohomology: torus cells and P^c x Gm^e."""
from __future__ import annotations

import math
import time

import pytest

from snf_oracle import snf_cokernel
from wittlinear import cli
from wittlinear import (
    CellularComplexSlice,
    IdealLevel,
    TwistLabel,
    UnsupportedDifferentialError,
    cellular_complex_proj_times_torus,
    expected_twist,
    h0_torus_cells,
    hc_proj_times_torus,
)


class TestTorusCells:
    def test_small_examples(self):
        assert h0_torus_cells(0, 0).summands == ((0, 1),)
        assert h0_torus_cells(5, 0).summands == ((0, 1),)
        assert h0_torus_cells(0, 1).summands == ((0, 1), (1, 1))
        assert h0_torus_cells(0, 3).summands == ((0, 1), (1, 3), (2, 3), (3, 1))

    def test_independent_of_affine_factor(self):
        for d in range(0, 6):
            assert h0_torus_cells(0, d) == h0_torus_cells(4, d)

    def test_rank_is_two_to_the_d(self):
        # the number of connected components of (R \ 0)^d
        for d in range(0, 11):
            assert h0_torus_cells(1, d).total_multiplicity == 2**d

    def test_kunneth_convolution(self):
        # splitting off torus factors convolves the multiplicities
        for d1 in range(0, 5):
            for d2 in range(0, 5):
                a = dict(h0_torus_cells(0, d1).summands)
                b = dict(h0_torus_cells(0, d2).summands)
                conv: dict[int, int] = {}
                for s1, m1 in a.items():
                    for s2, m2 in b.items():
                        conv[s1 + s2] = conv.get(s1 + s2, 0) + m1 * m2
                assert dict(h0_torus_cells(0, d1 + d2).summands) == conv

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            h0_torus_cells(-1, 0)
        with pytest.raises(ValueError):
            h0_torus_cells(0, -2)


class TestCellularComplexSlice:
    def test_expected_twist(self):
        assert expected_twist(2) == TwistLabel.o(3)

    def test_slice_example(self):
        s = cellular_complex_proj_times_torus(2, 1, TwistLabel.o(3))
        assert isinstance(s, CellularComplexSlice)
        assert s.degree == 2
        assert s.differential == "ZERO"
        assert s.incoming.summands == ((1, 1), (2, 1))
        assert s.current.summands == ((2, 1), (3, 1))
        # at coefficient level j = c the current term is I^0 (+) I^-1,
        # i.e. two copies of the full ring
        levels = s.current.evaluate(2)
        assert levels == ((IdealLevel(0), 1), (IdealLevel(-1), 1))

    def test_slice_shape_matches_shifted_torus_answer(self):
        # the degree-c term is the torus-cell pattern shifted by c
        for c in range(1, 5):
            for e in range(0, 5):
                s = cellular_complex_proj_times_torus(c, e, expected_twist(c))
                torus = h0_torus_cells(0, e).summands
                assert s.current.summands == tuple((c + i, m) for i, m in torus)
                assert s.incoming.summands == tuple(
                    (c - 1 + i, m) for i, m in torus
                )

    def test_point_case_has_no_slice(self):
        with pytest.raises(UnsupportedDifferentialError):
            cellular_complex_proj_times_torus(0, 2, TwistLabel.o(1))

    def test_other_twists_refused(self):
        with pytest.raises(UnsupportedDifferentialError):
            cellular_complex_proj_times_torus(2, 1, TwistLabel.o(2))
        with pytest.raises(UnsupportedDifferentialError):
            cellular_complex_proj_times_torus(2, 1, TwistLabel.trivial())
        with pytest.raises(UnsupportedDifferentialError):
            cellular_complex_proj_times_torus(2, 1, TwistLabel("L"))


class TestHcProjTimesTorus:
    def test_shifted_binomial(self):
        got = hc_proj_times_torus(2, 3, TwistLabel.o(3))
        assert got.summands == ((2, 1), (3, 3), (4, 3), (5, 1))

    def test_evaluation_at_base_level_is_all_of_w(self):
        for c in range(1, 5):
            for e in range(0, 4):
                got = hc_proj_times_torus(c, e, expected_twist(c))
                for level, mult in got.evaluate(c):
                    assert level.q <= 0
                    assert level.generator == 1

    def test_exponent_is_two_to_the_torus_rank(self):
        for c in range(1, 6):
            for e in range(0, 6):
                got = hc_proj_times_torus(c, e, expected_twist(c))
                assert got.cokernel_exponent(c) == 2**e

    def test_torus_free_case_is_iso(self):
        got = hc_proj_times_torus(3, 0, TwistLabel.o(4))
        assert got.summands == ((3, 1),)
        assert got.cokernel_exponent(3) == 1
        assert got.step_verdict(3).is_iso

    def test_point_times_torus_delegates(self):
        assert hc_proj_times_torus(0, 3, TwistLabel.trivial()) == h0_torus_cells(0, 3)
        assert hc_proj_times_torus(0, 3, TwistLabel.o(1)) == h0_torus_cells(0, 3)
        with pytest.raises(UnsupportedDifferentialError):
            hc_proj_times_torus(0, 3, TwistLabel.o(2))

    def test_wrong_twist_refused(self):
        with pytest.raises(UnsupportedDifferentialError):
            hc_proj_times_torus(2, 3, TwistLabel.o(2))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            hc_proj_times_torus(-1, 0, TwistLabel.o(0))
        with pytest.raises(ValueError):
            hc_proj_times_torus(1, -1, TwistLabel.o(2))
        with pytest.raises(ValueError, match="torus rank must be non-negative"):
            cellular_complex_proj_times_torus(1, -1, TwistLabel.o(2))

    def test_stable_cokernel_group_against_matrix_oracle(self):
        for c, e in [(1, 2), (2, 3), (3, 1)]:
            got = hc_proj_times_torus(c, e, expected_twist(c))
            pairs = list(got.summands)
            top = c + e
            assert got.composite_cokernel(c, top) == snf_cokernel(pairs, c, top)
            expected_orders = []
            for i in range(1, e + 1):
                expected_orders.extend([2**i] * math.comb(e, i))
            assert [int(o) for o in got.composite_cokernel(c, top).torsion_orders] \
                == sorted(got.composite_cokernel(c, top).torsion_orders)
            assert got.composite_cokernel(c, top).exponent == 2**e


class TestOneRowBuilder:
    # math.comb is the reference the row built binomial by binomial meets
    def test_rows_equal_math_comb(self):
        for d in [*range(65), 300, 1000]:
            row = tuple((i, math.comb(d, i)) for i in range(d + 1))
            assert h0_torus_cells(0, d).summands == row, d
            for c in (0, 1, 3):
                shifted = tuple((c + s, m) for s, m in row)
                assert hc_proj_times_torus(c, d, expected_twist(c)).summands == shifted, (c, d)
                if c:
                    cx = cellular_complex_proj_times_torus(c, d, expected_twist(c))
                    assert cx.incoming.summands == tuple((s - 1, m) for s, m in shifted)
                    assert cx.current.summands == shifted

    def test_a_cohomology_of_rank_6000_answers_within_a_second(self, capsys):
        # it built two math.comb rows of 6000 and kept one, for about 8 s
        start = time.perf_counter()
        assert cli.main(["cohomology", "P^2 @O(3) * Gm^6000"]) == 0
        assert time.perf_counter() - start < 1
