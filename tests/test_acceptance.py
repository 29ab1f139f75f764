"""Acceptance gate: ten criteria, one reported line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL line
per criterion; each line is printed before its assertion so a red run
still reports every criterion it reached.  Derived group values are
checked against the Smith-normal-form oracle (snf_oracle.py), never
against the formulas under test.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from helpers import cli_env, random_tree
from snf_oracle import snf_cokernel
from wittlinear import (
    Affine,
    GWClass,
    IdealLevel,
    OpenGlue,
    ShiftedIdealSum,
    StepKind,
    Stratified,
    TorusCell,
    TwistLabel,
    WittClass,
    gw_class,
    DiagonalForm,
    h0_torus_cells,
    hc_proj_times_torus,
    in_ideal_power,
    lift_to_twisted_ideal,
    rccm_report,
    sheaf_range,
    stratification_to_tree,
    venn_stratification,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _report(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE criterion %2d: %s  %s" % (num, status, description))
    assert not failures, "criterion %d: %s" % (num, "; ".join(failures[:5]))


def _random_gw(rng: random.Random) -> GWClass:
    rank = rng.randint(-30, 30)
    return GWClass(rank, rank - 2 * rng.randint(-30, 30))


def test_criterion_01_witt_property_suite():
    failures: list[str] = []
    rng = random.Random(101)
    started = time.perf_counter()

    for _ in range(1000):  # ring axioms
        a, b, c = _random_gw(rng), _random_gw(rng), _random_gw(rng)
        if not (a + b == b + a and (a + b) + c == a + (b + c)
                and a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c
                and a + GWClass(0, 0) == a and a * GWClass(1, 1) == a):
            failures.append("ring axiom failed for %r %r %r" % (a, b, c))

    for _ in range(1000):  # parity invariant of honest forms and their sums
        entries = [rng.choice([-9, -5, -2, -1, 1, 2, 3, 7])
                   for _ in range(rng.randint(1, 8))]
        g = gw_class(DiagonalForm.of(*entries))
        h = _random_gw(rng)
        for c in (g, g + h, g * h, -g):
            if (c.rank - c.signature) % 2 != 0:
                failures.append("parity broken by %r" % (c,))

    for _ in range(1000):  # filtration multiplicativity
        p, q = rng.randint(0, 6), rng.randint(0, 6)
        w = WittClass((2 ** p) * rng.randint(-20, 20))
        v = WittClass((2 ** q) * rng.randint(-20, 20))
        if not (in_ideal_power(w, p) and in_ideal_power(v, q)):
            failures.append("membership setup broken at p=%d q=%d" % (p, q))
        if not in_ideal_power(w * v, p + q):
            failures.append("product of I^%d and I^%d left I^%d" % (p, q, p + q))

    for _ in range(1000):  # successive quotients have order 2
        q = rng.randint(0, 12)
        odd = 2 * rng.randint(-10, 10) + 1
        even = 2 * rng.randint(-10, 10)
        if IdealLevel(q).graded_order != 2:
            failures.append("graded order at q=%d is not 2" % q)
        if in_ideal_power(WittClass((2 ** q) * odd), q + 1):
            failures.append("odd multiple of 2^%d fell into I^%d" % (q, q + 1))
        if not in_ideal_power(WittClass((2 ** q) * even), q + 1):
            failures.append("even multiple of 2^%d escaped I^%d" % (q, q + 1))

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append("took %.3f s, budget is 1 s" % elapsed)
    _report(1, "witt-core properties, 4x1000 randomized cases in %.3f s"
            % elapsed, failures)


def test_criterion_02_gm_sequence():
    failures: list[str] = []
    gm = h0_torus_cells(0, 1)
    v = gm.step_verdict(0)
    if v.kind is not StepKind.INJECTIVE_NOT_SURJECTIVE:
        failures.append("step at j=0 is %s" % v.kind)
    if str(v.cokernel) != "Z/2":
        failures.append("cokernel at j=0 is %s" % v.cokernel)
    for j in range(1, 7):
        if not gm.step_verdict(j).is_iso:
            failures.append("step at j=%d is not ISO" % j)
    _report(2, "Gm: Z/2 cokernel at j=0, ISO on j in [1,6]", failures)


def test_criterion_03_torus_cells():
    failures: list[str] = []
    started = time.perf_counter()
    for n in (0, 2):
        for d in range(0, 11):
            total = h0_torus_cells(n, d)
            for j in range(-2, d + 4):
                if total.step_verdict(j).is_iso != (j >= d):
                    failures.append("n=%d d=%d j=%d verdict wrong" % (n, d, j))
            if total.cokernel_exponent(0) != 2 ** d:
                failures.append("n=%d d=%d exponent != 2^%d" % (n, d, d))
            if total.total_multiplicity != 2 ** d:
                failures.append("n=%d d=%d rank != 2^%d" % (n, d, d))
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append("took %.3f s, budget is 1 s" % elapsed)
    _report(3, "torus cells d<=10: ISO iff j>=d, exponent and rank 2^d "
            "in %.3f s" % elapsed, failures)


def _hc(c: int, d: int) -> ShiftedIdealSum:
    twist = TwistLabel.trivial() if c == 0 else TwistLabel.o(c + 1)
    return hc_proj_times_torus(c, d - c, twist)


def test_criterion_04_sharp_exponent_bound():
    failures: list[str] = []
    for c in range(0, 11):
        for d in range(c + 1, 11):
            got = _hc(c, d).cokernel_exponent(c)
            if got != 2 ** (d - c):
                failures.append("c=%d d=%d exponent %d != 2^%d"
                                % (c, d, got, d - c))

    rng = random.Random(404)
    cases = 0
    while cases < 200:
        c = rng.randint(0, 6)
        d = c + rng.randint(1, 6)
        if d > 10:
            continue
        level = rng.randint(c, d + 2)
        total = _hc(c, d)
        ours = total.composite_cokernel(c, level)
        oracle = snf_cokernel(list(total.summands), c, level)
        if ours != oracle:
            failures.append("c=%d d=%d level=%d: %s != oracle %s"
                            % (c, d, level, ours, oracle))
        cases += 1
    _report(4, "exponent 2^(d-c) for all 0<=c<d<=10; %d randomized "
            "SNF-oracle group checks" % cases, failures)


def test_criterion_05_oracle_equivalence():
    failures: list[str] = []
    rng = random.Random(505)
    for _ in range(500):
        pairs = [(rng.randint(-3, 8), rng.randint(0, 5))
                 for _ in range(rng.randint(0, 6))]
        j0 = rng.randint(-4, 9)
        j1 = j0 + rng.randint(0, 6)
        ours = ShiftedIdealSum.from_pairs(pairs).composite_cokernel(j0, j1)
        oracle = snf_cokernel(pairs, j0, j1)
        if ours != oracle:
            failures.append("pairs=%r j0=%d j1=%d: %s != %s"
                            % (pairs, j0, j1, ours, oracle))
    _report(5, "composite cokernels match the SNF oracle on 500 random sums",
            failures)


def test_criterion_06_range_engine_vs_explicit():
    failures: list[str] = []
    for n in (0, 2):
        for d in range(0, 11):
            verdict = sheaf_range(TorusCell(n, d))
            total = h0_torus_cells(n, d)
            for j in range(-2, d + 4):
                if verdict.is_iso(0, j) != total.step_verdict(j).is_iso:
                    failures.append("n=%d d=%d j=%d threshold mismatch"
                                    % (n, d, j))
    if OpenGlue(Affine(1), Affine(0)).range_level() != 1:
        failures.append("open(A^1, A^0) range level != 1")
    _report(6, "sheaf thresholds equal explicit step verdicts on torus "
            "cells d<=10; Gm glue tree has range level 1", failures)


def test_criterion_07_dimension_cap():
    failures: list[str] = []
    rng = random.Random(707)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(0, 6)).assume_smooth()
        verdict = sheaf_range(tree)
        report = rccm_report(tree, rng.randint(0, 4))
        for _ in range(5):
            i = rng.randint(-1, max(tree.dim, 0) + 3)
            j = tree.dim + 1 + rng.randint(0, 3)
            if not verdict.is_iso(i, j):
                failures.append("%s: not ISO at i=%d j=%d >= dim+1"
                                % (tree.label(), i, j))
            if report.classify(j).case.value != "ISO":
                failures.append("%s: comparison map not ISO at j=%d >= dim+1"
                                % (tree.label(), j))
    _report(7, "100 random trees of depth <= 6: ISO whenever j >= dim + 1",
            failures)


def test_criterion_08_stratification_suite():
    failures: list[str] = []
    rng = random.Random(808)

    report = venn_stratification([
        {"p123", "p12", "p13", "p1"},
        {"p123", "p12", "p23", "p2"},
        {"p123", "p13", "p23", "p3"},
    ])
    if len(report.nonempty) != 7:
        failures.append("generic 3-set case has %d strata, expected 7"
                        % len(report.nonempty))

    for _ in range(100):
        n = rng.randint(1, 5)
        points = ["q%d" % k for k in range(rng.randint(1, 24))]
        sets = []
        for _ in range(n):
            members = {p for p in points if rng.random() < 0.45}
            members.add(rng.choice(points))  # keep every set nonempty
            sets.append(frozenset(members))
        rep = venn_stratification(sets)
        if not (rep.partition_ok and rep.boundary_ok):
            failures.append("checks failed for %d sets over %d points"
                            % (n, len(points)))
            continue
        realization = rep.to_realization()
        order = realization.replay_split()
        if sorted(order) != list(range(realization.size)):
            failures.append("replay order is not a permutation of the pieces")
        rebuilt = [realization.pieces[i] for i in order]
        if frozenset().union(*rebuilt) != realization.ground:
            failures.append("replayed pieces do not cover the ground set")

        # a stratified scheme over this closure order keeps the worst
        # stratum's range level, and so does its glue tree
        strata = tuple(TorusCell(0, rng.randint(0, 3))
                       for _ in range(realization.size))
        closure = realization.closure_order()
        worst = max(s.d for s in strata)
        if Stratified(strata, closure).range_level() != worst:
            failures.append("stratified range level != max stratum level")
        if stratification_to_tree(strata, closure).range_level() != worst:
            failures.append("glue tree range level != max stratum level")
    _report(8, "venn checks on 100 random realizations (n <= 5, <= 24 "
            "points); generic case has 7 strata; replay and levels agree",
            failures)


def test_criterion_09_sharpness_certificate():
    failures: list[str] = []
    for n in (0, 2):
        for d in range(1, 9):
            lifted = lift_to_twisted_ideal(sheaf_range(TorusCell(n, d)))
            got = lifted.classify(0, d - 1)
            if got != "NOT_SURJECTIVE":
                failures.append("n=%d d=%d: classify(0, %d) == %s"
                                % (n, d, d - 1, got))
    _report(9, "NOT_SURJECTIVE certificate at (0, d-1) for A^n x Gm^d, "
            "d in [1,8]", failures)


def test_criterion_10_cli_golden():
    failures: list[str] = []
    invocations = [
        ("range_torus3.json",
         ["range", "A^0 * Gm^3", "--smooth", "--i", "0", "--format", "json"]),
        ("cokernel_p2gm3.json",
         ["cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2",
          "--format", "json"]),
        ("venn_generic3.json",
         ["venn", "3", "--file", os.path.join(HERE, "data", "generic3.json"),
          "--format", "json"]),
    ]
    for name, argv in invocations:
        with open(os.path.join(HERE, "golden", name)) as fh:
            expected = fh.read()
        proc = subprocess.run([sys.executable, "-m", "wittlinear", *argv],
                              capture_output=True, text=True, env=cli_env())
        if proc.returncode != 0:
            failures.append("%s exited %d: %s" % (name, proc.returncode,
                                                  proc.stderr.strip()))
        elif proc.stdout != expected:
            failures.append("%s differs from the golden output" % name)
    _report(10, "three CLI invocations reproduce their golden JSON "
            "bit-for-bit", failures)
