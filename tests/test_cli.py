"""Command-line interface: golden outputs, exit codes, format stability."""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import combinatorics_reference as ref
from helpers import cli_env, parser_trees
from wittlinear import cli, grammar, ranges, schemes, shifted
from wittlinear.schemes import Affine, OpenGlue, Product, ProjTimesTorus
from wittlinear.witt import TwistLabel

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
DATA = os.path.join(HERE, "data")

GOLDEN_INVOCATIONS = [
    ("range_torus3.json",
     ["range", "A^0 * Gm^3", "--smooth", "--i", "0", "--format", "json"]),
    ("cokernel_p2gm3.json",
     ["cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2",
      "--format", "json"]),
    ("venn_generic3.json",
     ["venn", "3", "--file", os.path.join(DATA, "generic3.json"),
      "--format", "json"]),
    # one node of every kind, so provenance labels of all eight are pinned
    ("linlevel_allkinds.json",
     ["linlevel", "strat(open(A^2, A^0) * Gm, closed(P^1 @O(2) * Gm, empty), "
      "A^1 * Gm^2; 0<1)", "--format", "json"]),
]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wittlinear", *args],
        capture_output=True, text=True, env=cli_env(),
    )


class TestGolden:
    def test_golden_outputs_bit_for_bit(self):
        for name, argv in GOLDEN_INVOCATIONS:
            with open(os.path.join(GOLDEN, name)) as fh:
                expected = fh.read()
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected, name

    def test_json_is_stable_under_reserialization(self):
        for name, _ in GOLDEN_INVOCATIONS:
            with open(os.path.join(GOLDEN, name)) as fh:
                text = fh.read()
            payload = json.loads(text)
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text

    def test_schema_version_present(self):
        for name, _ in GOLDEN_INVOCATIONS:
            with open(os.path.join(GOLDEN, name)) as fh:
                assert json.load(fh)["schema_version"] == 1


class TestRangeCommand:
    def test_text_report(self):
        proc = run_cli("range", "A^0 * Gm^3", "--smooth", "--i", "0")
        assert proc.returncode == 0
        assert "ISO for j >= 3; INJECTIVE at j = 2" in proc.stdout
        assert "smooth (asserted)" in proc.stdout
        assert "leaf-torus-cell" in proc.stdout

    def test_injectivity_line_subsumed_by_cap(self):
        # for affine space the injectivity diagonal j = i - 1 lies below
        # the iso threshold only; here iso_from == i so it is reported
        proc = run_cli("range", "A^2", "--i", "1", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["iso_for_j_at_least"] == 1
        assert payload["injective_at_j"] == 0

    def test_smoothness_is_required(self):
        proc = run_cli("range", "closed(A^0, A^1)", "--i", "0")
        assert proc.returncode == 3
        assert "smooth" in proc.stderr

    def test_finite_field_refused(self):
        proc = run_cli("range", "A^1", "--i", "0", "--field", "Fq")
        assert proc.returncode == 3
        assert "error:" in proc.stderr

    def test_parse_error_exits_2(self):
        proc = run_cli("range", "A^", "--i", "0")
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestNonAsciiInput:
    # "A^²" used to exit 2 with int()'s message and no position, and
    # "A^٣" was answered as A^3
    @pytest.mark.parametrize("expr,char", [("A^\u00b2", "\u00b2"), ("A^\u0663", "\u0663")],
                             ids=["superscript-two", "arabic-indic-three"])
    def test_unicode_digits_are_unexpected_characters(self, capsys, expr, char):
        assert cli.main(["linlevel", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unexpected character %r (line 1, column 3)\n" % char


class TestLinlevelCommand:
    def test_stratified_example(self):
        proc = run_cli("linlevel", "strat(A^0, A^1; 0<1)", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["j_linear_level"] == 2
        assert payload["range_level"] == 0
        assert payload["dim"] == 1
        rules = [r["rule"] for r in payload["provenance"]["range"]]
        assert rules == ["leaf-affine", "leaf-affine", "stratified-refinement"]

    def test_text_mode(self):
        proc = run_cli("linlevel", "open(A^1, A^0)")
        assert proc.returncode == 0
        assert "j-linear level: 1" in proc.stdout
        assert "range level: 1" in proc.stdout


class TestDeepTrees:
    LONG_PRODUCT = " * ".join(["A^1"] * 1200)

    def test_long_product_linlevel(self):
        proc = run_cli("linlevel", self.LONG_PRODUCT)
        assert proc.returncode == 0, proc.stderr
        assert "dim: 1200" in proc.stdout
        assert "j-linear level: 0" in proc.stdout

    def test_long_product_range(self):
        proc = run_cli("range", self.LONG_PRODUCT, "--smooth", "--i", "0")
        assert proc.returncode == 0, proc.stderr
        assert "ISO for j >= 0" in proc.stdout

    def test_open_chain_of_depth_360_answers_in_process(self, capsys):
        # the deepest open chains the benchmark asks for; the parser's two
        # frames per level must leave room for them under main()
        depth = 360
        expr = "open(" * depth + "A^3" + ", A^0)" * depth
        assert cli.main(["linlevel", expr, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["j_linear_level"] == payload["range_level"] == depth
        assert len(payload["provenance"]["j_linear"]) == 2 * depth + 1

    def test_over_deep_nesting_exits_2_without_traceback(self):
        depth = 1200
        proc = run_cli("linlevel", "open(" * depth + "A^3" + ", A^0)" * depth)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: expression nests too deeply")
        assert "Traceback" not in proc.stderr

    def test_depth_500_exits_2_in_process(self, capsys):
        # the shallowest past-limit depth the benchmark's deep trees use.
        # The parser takes two frames per nesting level; one with fewer
        # would answer this tree with a payload of millions of characters
        depth = 500
        text = "open(" * depth + "A^3" + ", A^0)" * depth
        assert cli.main(["linlevel", text, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: expression nests too deeply")


class TestCohomologyCommand:
    def test_torus_cell(self):
        proc = run_cli("cohomology", "A^0 * Gm^3", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["model"] == "torus-cell"
        assert payload["degree"] == 0
        assert payload["rank"] == 8
        assert payload["summands"] == [[0, 1], [1, 3], [2, 3], [3, 1]]

    def test_evaluation_at_a_level(self):
        proc = run_cli("cohomology", "Gm", "--j", "0", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["at_j"]["group"] == "Z (+) Z"
        assert payload["at_j"]["step"] == "INJECTIVE_NOT_SURJECTIVE"
        assert payload["at_j"]["step_cokernel"] == "Z/2"

    def test_proj_times_torus(self):
        proc = run_cli("cohomology", "P^2 @O(3) * Gm^3", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["model"] == "proj-times-torus"
        assert payload["degree"] == 2
        assert payload["summands"] == [[2, 1], [3, 3], [4, 3], [5, 1]]

    def test_unsupported_tree_exits_4(self):
        proc = run_cli("cohomology", "open(A^1, A^0)")
        assert proc.returncode == 4

    def test_unsupported_twist_exits_4(self):
        proc = run_cli("cohomology", "P^2 @O(1) * Gm")
        assert proc.returncode == 4
        assert "O(3)" in proc.stderr


class TestRccmCommand:
    def test_torus_cell_report(self):
        proc = run_cli("rccm", "Gm^3", "--i", "0", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["iso_for_j_at_least"] == 3
        entries = {e["j"]: e for e in payload["entries"]}
        assert entries[-2]["case"] == "IMAGE_EQUALS"
        assert entries[-2]["image_contains_power"] == 5
        assert entries[-2]["image_equals_power"] == 2
        assert entries[2]["case"] == "INJECTIVE"
        assert entries[2]["image_contains_power"] == 1
        assert entries[3]["case"] == "ISO"
        assert entries[4]["case"] == "ISO"
        assert "valid for every line-bundle twist" in payload["assumptions"]

    def test_needs_smoothness(self):
        proc = run_cli("rccm", "closed(A^0, A^1)", "--i", "0")
        assert proc.returncode == 3


class TestCokernelCommand:
    def test_wrong_degree_exits_4(self):
        proc = run_cli("cokernel", "P^2 @O(3) * Gm^3", "--i", "0", "--j0", "2")
        assert proc.returncode == 4
        assert "degree 2" in proc.stderr

    def test_explicit_target_level(self):
        proc = run_cli("cokernel", "Gm^2", "--i", "0", "--j0", "0",
                       "--j1", "1", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["j1"] == 1
        # one step only: every positively shifted summand contributes Z/2
        assert payload["cokernel"]["torsion_orders"] == [2, 2, 2]
        assert payload["stable_exponent"] == 4

    def test_bad_level_order_exits_2(self):
        proc = run_cli("cokernel", "Gm", "--i", "0", "--j0", "3", "--j1", "1")
        assert proc.returncode == 2

    def test_gm16_binomial_closed_form(self):
        # (Z/2^k)^C(16,k) for k = 1..16: 65535 cyclic factors
        proc = run_cli("cokernel", "Gm^16", "--i", "0", "--j0", "0",
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        counts = [(2**k, math.comb(16, k)) for k in range(1, 17)]
        assert payload["cokernel"]["torsion_orders"] == \
            [order for order, count in counts for _ in range(count)]
        assert payload["cokernel_str"] == " (+) ".join(
            "Z/%d" % order if count == 1 else "(Z/%d)^%d" % (order, count)
            for order, count in counts)
        assert payload["cokernel_str"].startswith("(Z/2)^16 (+) (Z/4)^120 (+) ")
        assert payload["exponent"] == 2**16


class TestSizeGuard:
    """Queries that expand every unit of multiplicity refuse above a limit.

    The limit is lowered to 8 so that nothing large is ever allocated.
    """

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EXPANDED_MULTIPLICITY", 8)

    def test_cokernel_above_limit_exits_4(self, capsys):
        assert cli.main(["cokernel", "Gm^4", "--i", "0", "--j0", "0"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Gm^4 has total multiplicity 16")
        assert "Traceback" not in err

    def test_cohomology_at_a_level_above_limit_exits_4(self, capsys):
        assert cli.main(["cohomology", "Gm^4", "--j", "0"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Gm^4 has total multiplicity 16")

    def test_at_limit_answers(self, capsys):
        assert cli.main(["cokernel", "Gm^3", "--i", "0", "--j0", "0"]) == 0
        assert cli.main(["cohomology", "P^2 @O(3) * Gm^3", "--j", "2"]) == 0

    def test_cohomology_without_level_expands_nothing(self, capsys):
        assert cli.main(["cohomology", "Gm^4"]) == 0
        capsys.readouterr()
        assert cli.main(["cohomology", "Gm^40", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 2**40


    @staticmethod
    def venn_file(tmp_path, n: int) -> str:
        path = tmp_path / ("venn%d.json" % n)
        path.write_text(json.dumps(
            {"schema_version": 1, "sets": [["p%d" % j] for j in range(n)]}))
        return str(path)

    def test_venn_above_limit_exits_4(self, tmp_path, capsys):
        # 2^4 - 1 = 15 candidate strata
        assert cli.main(["venn", "4", "--file", self.venn_file(tmp_path, 4)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: venn 4 has 2^4 - 1 candidate strata")

    def test_venn_at_limit_answers(self, tmp_path, capsys):
        assert cli.main(["venn", "3", "--file", self.venn_file(tmp_path, 3)]) == 0
        assert "nonempty strata: 3 of 7 candidates" in capsys.readouterr().out


class TestExponentGuard:
    """cokernel and cohomology --j refuse 2-powers too large to print
    before they build any.

    The bound is lowered to 5 and the methods that make 2-powers are
    made to fail, so a refused query is seen to call none of them.
    """

    @pytest.fixture
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PRINTED_EXPONENT", 5)

    @pytest.fixture
    def no_two_powers(self, monkeypatch):
        for name in ("composite_cokernel", "cokernel_exponent", "describe_at"):
            monkeypatch.setattr(shifted.ShiftedIdealSum, name,
                                lambda *args: pytest.fail("2-power built"))

    @pytest.mark.parametrize("argv,exponent", [
        # Gm^3 has shifts 0..3, so the stable exponent from j0 is 2^(3 - j0)
        (["cokernel", "Gm^3", "--i", "0", "--j0", "-3"], 6),
        # a near target level does not lower the stable exponent
        (["cokernel", "Gm^3", "--i", "0", "--j0", "-3", "--j1", "-2"], 6),
        # Gm's lowest shift is 0, so level j holds 2^j Z
        (["cohomology", "Gm", "--j", "6"], 6),
        (["cohomology", "P^2 @O(3) * Gm", "--j", "8"], 6),
    ], ids=["cokernel", "cokernel-with-target", "cohomology", "cohomology-proj"])
    def test_above_the_bound_exits_4(self, small_bound, no_two_powers, capsys, argv,
                                     exponent):
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: %s at these levels needs 2^%d; cokernel and cohomology "
                       "--j print 2-powers up to 2^5\n" % (argv[1], exponent))

    def test_at_the_bound_answers(self, small_bound, capsys):
        assert cli.main(["cokernel", "Gm^3", "--i", "0", "--j0", "-2"]) == 0
        assert "stable exponent from level -2: 32" in capsys.readouterr().out
        assert cli.main(["cohomology", "Gm", "--j", "5"]) == 0
        assert "at level j = 5: 32Z (+) 16Z" in capsys.readouterr().out

    def test_the_bound_is_the_default_digit_limit(self):
        assert len(str(2 ** cli.MAX_PRINTED_EXPONENT)) == 4300
        with pytest.raises(ValueError):
            str(2 ** (cli.MAX_PRINTED_EXPONENT + 1))

    def test_far_levels_exit_4_and_near_ones_answer(self, no_two_powers, capsys):
        # these exited 2 with the interpreter's digit-limit message
        assert cli.main(["cokernel", "Gm^3", "--i", "0", "--j0", "-20000"]) == 4
        assert cli.main(["cohomology", "Gm", "--j", "20000"]) == 4
        assert capsys.readouterr().err.count("print 2-powers up to 2^14284") == 2

    def test_the_largest_answered_levels(self, capsys):
        # 2^14003 and 2^14284 have 4216 and 4300 digits
        assert cli.main(["cokernel", "Gm^3", "--i", "0", "--j0", "-14000"]) == 0
        assert cli.main(["cohomology", "Gm", "--j", "14284", "--format", "json"]) == 0

    @pytest.fixture
    def small_digit_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PRINTED_DIGITS", 20)

    @pytest.mark.parametrize("argv,units,digits", [
        # Gm^3 has 8 units and shifts 0..3: from j0 = -7 they print up to 2^10
        (["cokernel", "Gm^3", "--i", "0", "--j0", "-7"], 8, 4),
        # Gm has 2 units and lowest shift 0: at j = 34 they print 2^34
        (["cohomology", "Gm", "--j", "34"], 2, 11),
    ], ids=["cokernel", "cohomology"])
    def test_many_long_units_exit_4(self, small_digit_cap, no_two_powers, capsys, argv,
                                    units, digits):
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: %s at these levels prints %d units with 2-powers of up "
                       "to %d digits; cokernel and cohomology --j print at most 20 "
                       "digits in all\n" % (argv[1], units, digits))

    def test_at_the_digit_cap_answers(self, small_digit_cap, capsys):
        # 8 units of at most 2^6 = 64 and 2 units of at most 2^30 (10 digits)
        assert cli.main(["cokernel", "Gm^3", "--i", "0", "--j0", "-3"]) == 0
        assert cli.main(["cohomology", "Gm", "--j", "30"]) == 0
        assert "at level j = 30: 1073741824Z (+) 536870912Z" in capsys.readouterr().out

    def test_each_bound_alone_admits_the_far_levels_of_a_large_cell(self, no_two_powers,
                                                                    capsys):
        # 2^20 units and 2^14020 are each within their own bound
        assert cli.main(["cokernel", "Gm^20", "--i", "0", "--j0", "-14000"]) == 4
        assert cli.main(["cohomology", "Gm^20", "--j", "14000"]) == 4
        assert capsys.readouterr().err.count("print at most 7340032 digits in all") == 2

    @pytest.mark.parametrize("argv", [
        ["cokernel", "Gm^15000", "--i", "0", "--j0", "0"],
        ["cohomology", "Gm^15000", "--j", "0"],
        ["cokernel", "P^2 @O(3) * Gm^15000", "--i", "2", "--j0", "2"],
        ["cohomology", "P^2 @O(3) * Gm^15000", "--j", "2"],
    ], ids=["cokernel", "cohomology", "cokernel-proj", "cohomology-proj"])
    def test_a_multiplicity_too_long_to_print_exits_4_at_once(self, monkeypatch, capsys,
                                                            argv):
        # these built every binomial of 15000 for about 40 s, then exited
        # 2 with the interpreter's digit-limit message
        monkeypatch.setattr(cli, "hc_proj_times_torus",
                            lambda *args: pytest.fail("cell sum built"))
        start = time.perf_counter()
        assert cli.main(argv) == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            "error: %s has total multiplicity 2^15000; cokernel and cohomology --j "
            "expand at most 1048576\n" % argv[1]))

    @pytest.mark.parametrize("argv,error", [
        (["cokernel", "Gm^15000", "--i", "1", "--j0", "0"],
         "cohomology of Gm^15000 is computed in degree 0 only, got --i 1"),
        (["cokernel", "P^2 @O(5) * Gm^15000", "--i", "0", "--j0", "2"],
         "differential only known to vanish for twist O(3), got O(5)"),
        (["cohomology", "P^0 @O(5) * Gm^15000", "--j", "0"],
         "on a point only the trivial twist makes sense, got O(5)"),
    ], ids=["degree-before-size", "twist-before-degree", "twist-before-size"])
    def test_twist_then_degree_then_size(self, monkeypatch, capsys, argv, error):
        monkeypatch.setattr(cli, "hc_proj_times_torus",
                            lambda *args: pytest.fail("cell sum built"))
        assert cli.main(argv) == 4
        assert capsys.readouterr() == ("", "error: %s\n" % error)

    def test_the_digit_cap_is_what_gm20_prints_at_level_0(self):
        # 2^20 units of at most 2^20, which has 7 digits
        assert cli.MAX_PRINTED_DIGITS == 2**20 * len(str(2**20))

    def test_two_power_digits(self):
        power, digits, bound = 1, 1, 10
        for k in range(cli.MAX_PRINTED_EXPONENT + 1):
            if power >= bound:
                digits, bound = digits + 1, bound * 10
            assert cli._two_power_digits(k) == digits, k
            power <<= 1


# JSON input files of the wrong shape, as (command, file text)
MALFORMED_FILES = [
    pytest.param("venn", '{"schema_version": 1, "sets": [[["x"]]]}', id="venn-nested-point"),
    pytest.param("venn", "[1, 2]", id="venn-top-level-list"),
    pytest.param("venn", '{"schema_version": 1, "sets": [1]}', id="venn-set-not-a-list"),
    pytest.param("venn", "[]", id="venn-top-level-empty-list"),
    pytest.param("stratify", '{"schema_version": 1, "ground": ["a"], '
                 '"pieces": [[["a"]]], "closure": [[0]]}', id="stratify-nested-piece"),
    pytest.param("stratify", '{"schema_version": 1, "ground": ["a"], '
                 '"pieces": [["a"]], "closure": [[null]]}', id="stratify-null-index"),
    pytest.param("stratify", "[]", id="stratify-top-level-empty-list"),
    pytest.param("stratify", '{"schema_version": 1, "ground": null, '
                 '"pieces": [["a"]], "closure": [[0]]}', id="stratify-null-ground"),
    pytest.param("stratify", '{"schema_version": 1, "ground": ["a"], '
                 '"pieces": [["a"]], "closure": [0]}', id="stratify-flat-closure"),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("command,text", MALFORMED_FILES)
    def test_exits_2_without_traceback(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [command, "1"] if command == "venn" else [command]
        assert cli.main(argv + ["--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["venn", "stratify"])
    def test_deep_nesting_exits_2_without_traceback(self, tmp_path, capsys, command):
        # the decoder raised RecursionError, which printed a traceback and exited 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        argv = ([command, "1"] if command == "venn" else [command]) + ["--file", str(path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: %s nests too deeply\n" % path)
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


# text with non-ASCII, astral, control and lone surrogate characters
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\ud800", "\U0001f600"])))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60), JSON_TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
        # the lists the writer joins in one step, and near misses of them
        st.lists(st.integers(), max_size=5),
        st.lists(JSON_TEXT, max_size=5),
        st.lists(st.one_of(st.booleans(), st.integers()), max_size=5),
    ),
    max_leaves=30,
)


# what a row of a list of dicts may hold: scalars, the lists the writer
# joins and near misses of them, and nested dicts
JSON_ROW_VALUES = st.one_of(
    JSON_SCALARS, st.just([]), st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(JSON_TEXT, min_size=1, max_size=4),
    st.lists(st.one_of(st.booleans(), st.none(), st.integers(), JSON_TEXT), max_size=4),
    st.dictionaries(JSON_TEXT, st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)),
                    max_size=3),
)


@st.composite
def json_rows(draw, keys=st.lists(JSON_TEXT, max_size=4, unique=True)):
    """A list of dicts with one key set, and sometimes one row whose keys
    differ."""
    keys = draw(keys)
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, JSON_ROW_VALUES)),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(
            st.dictionaries(JSON_TEXT, JSON_ROW_VALUES, max_size=4))
    return rows


class TestJsonWriter:
    """cli._to_json prints what json.dumps(indent=2, sort_keys=True) does."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES, st.data())
    def test_matches_json_dumps_with_shared_lists_and_tuples(self, value, data):
        def retyped(v):
            # v with some of its lists turned into tuples
            if isinstance(v, dict):
                return {k: retyped(item) for k, item in v.items()}
            if isinstance(v, list):
                items = [retyped(item) for item in v]
                return tuple(items) if data.draw(st.booleans()) else items
            return v

        def lists(v):
            if isinstance(v, dict):
                return [inner for item in v.values() for inner in lists(item)]
            if isinstance(v, (list, tuple)):
                return [v] + [inner for item in v for inner in lists(item)]
            return []

        value = retyped(value)
        held = lists(value)
        if held and data.draw(st.booleans()):
            # one list object at its own place and again, deeper or not
            shared = data.draw(st.sampled_from(held))
            for _ in range(data.draw(st.integers(0, 3))):
                shared = [shared]
            value = data.draw(st.sampled_from([[value, shared], {"a": value, "b": shared}]))
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(json_rows(), st.sampled_from(["top", "in-dict", "in-list"]))
    def test_rows_match_json_dumps(self, rows, where):
        value = {"top": rows, "in-dict": {"a": {"rows": rows}}, "in-list": [[rows], 1]}[where]
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        1.5, [1, 2.0], {"a": {1, 2}}, {1: "a"}, {"a": [{None: 0}]}, b"x",
        [{"a": 1, "b": 1.5}, {"a": 2, "b": 3}], [{"a": [1, 2.0]}, {"a": [3]}],
        [{1: "a"}, {1: "b"}], [{"a": 1, 2: 3}, {"a": 1, 2: 3}], [{"a": {1, 2}}, {"a": 1}],
    ], ids=["float", "float-in-int-list", "set", "int-key", "none-key", "bytes",
            "float-in-row", "float-in-row-list", "int-key-rows", "mixed-key-rows",
            "set-in-row"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._to_json(value)

    def test_rows_name_a_non_str_key_as_single_dicts_do(self):
        for value in ({1: "a"}, [{1: "a"}, {1: "b"}]):
            with pytest.raises(TypeError, match="^keys must be str, not int$"):
                cli._to_json(value)

    @settings(max_examples=60, deadline=None)
    @given(json_rows(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True)), st.data())
    def test_a_float_or_a_non_str_key_in_a_row_raises(self, rows, data):
        row = data.draw(st.sampled_from(rows))
        if data.draw(st.booleans()) and row:
            row[data.draw(st.sampled_from(sorted(row)))] = data.draw(st.floats())
        else:
            for r in rows:
                r[data.draw(st.sampled_from([0, None, 1.5, (1,)]))] = 0
        with pytest.raises(TypeError):
            cli._to_json(rows)

    SHARED = 'a "label" with a \\ and \u00e9 ' * 3

    @pytest.mark.parametrize("rows", [
        [{"a": [1, 2], "b": 0}, {"a": ["x", "y"], "b": 1}],
        [{"a": [], "b": []}, {"a": [], "b": []}],
        [{"a": [1, True]}, {"a": [2, 3]}],
        [{"a": [1, None]}, {"a": [2, 3]}],
        [{"a": 10**60, "b": [-10**60, 10**60]}, {"a": -10**60, "b": [10**60]}],
        [{"a": SHARED, "b": SHARED}, {"a": "x", "b": SHARED}],
        [{'q"\\\n\u00e9': 1, "%s%d%%": "%s"}, {'q"\\\n\u00e9': 2, "%s%d%%": "%%"}],
    ], ids=["int-and-str-list-rows", "only-empty-lists", "bool-in-int-lists",
            "none-in-int-lists", "ints-of-61-digits", "str-shared-by-two-columns",
            "keys-to-escape-and-percent"])
    def test_column_fallbacks_match_json_dumps(self, rows):
        for value in (rows, {"k": rows}, [rows, [rows]]):
            assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_a_string_shared_between_rows_is_written_each_time(self):
        # one str object in rows of two lists and at top level, plus an
        # equal copy that is a different object
        shared = ('a "quoted" \\ path\x00\x1f\x7f, \u00e9\u2028\U0001f600 ' * 200)
        copy = "".join(list(shared))
        assert copy == shared and copy is not shared
        value = {
            "first": [{"node": shared, "rule": "r"}, {"node": copy, "rule": "r"}],
            "second": [{"node": shared, "rule": "s"}, {"node": shared, "rule": "r"}],
            "top": shared,
            "rows": [{"node": copy, "rule": shared}],
        }
        expected = json.dumps(value, indent=2, sort_keys=True)
        assert cli._to_json(value) == expected
        # no state is kept from one call to the next, so a string that
        # takes a freed string's place is written as itself
        assert cli._to_json(value) == expected
        for k in range(6):
            rows = [{"node": "%d %s" % (k, shared)}, {"node": shared}]
            assert cli._to_json(rows) == json.dumps(rows, indent=2, sort_keys=True)


    # one string that the plain path may not take, beside plain ones
    ODD = ['q"uote', "back\\slash", "unit\x1fsep", "del\x7f", "\x80", "\U0001f600 face", ""]

    @staticmethod
    def columns(rows):
        return cli._Columns(**{key: [row[key] for row in rows] for key in rows[0]})

    @pytest.mark.parametrize("odd", ODD, ids=["quote", "backslash", "x1f", "x7f", "x80",
                                               "non-bmp", "empty"])
    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    def test_str_columns_with_one_string_to_escape(self, odd, where):
        plain = ["A^1", "open(A^2, A^0)", "P^1@O(-3)*Gm^2", "strat[2]", "x ~ }{ ][ '"]
        for texts in (plain[:where] + [odd] + plain[where:], plain):
            rows = [{"node": text, "rule": "r%d" % k, "level": k}
                    for k, text in enumerate(texts)]
            for value in (rows, {"k": rows}, [rows, rows]):
                expected = json.dumps(value, indent=2, sort_keys=True)
                assert cli._to_json(value) == expected
            columns = self.columns(rows)
            assert self.rows(columns) == rows
            for value, same in ((rows, rows), (columns, rows), ({"k": columns}, {"k": rows}),
                                ([columns, [rows, columns]], [rows, [rows, rows]])):
                assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(json_rows(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True)))
    def test_columns_write_as_their_rows(self, rows):
        # the rows with the first row's keys; a row has to hold some key
        # for the columns to hold it
        assume(rows[0])
        rows = [row for row in rows if row.keys() == rows[0].keys()]
        columns = self.columns(rows)
        assert self.rows(columns) == rows
        for value, same in ((columns, rows), ({"a": columns}, {"a": rows}),
                            ([columns, 1], [rows, 1])):
            assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    @staticmethod
    def rows(columns):
        return [dict(zip(columns.columns, row)) for row in zip(*columns.columns.values())]

    @pytest.mark.parametrize("odd", ["", 'q"uote'], ids=["plain", "to-escape"])
    def test_a_column_list_held_by_two_columns_objects(self, odd):
        # one str list and one list column in two _Columns at different
        # depths: the str texts are kept for the second, the list texts
        # hold their indent and are not
        labels = ["A^1", "open(A^1, A^0)", "x" + odd]
        inputs = [[], [0, 1], [2]]
        first = cli._Columns(node=labels, inputs=inputs, level=[0, 1, 2])
        second = cli._Columns(node=labels, inputs=inputs, rule=["r", "s", "t"])
        value = {"a": first, "b": {"c": [1, second]}}
        same = {"a": self.rows(first), "b": {"c": [1, self.rows(second)]}}
        assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    @pytest.mark.parametrize("first", range(4), ids=["depth-1", "depth-3", "tuple", "column"])
    def test_one_str_list_in_four_places(self, first):
        # one str list, with one string to escape, at depth 1, at depth 3
        # inside a list, as a tuple copy and as a column, each written
        # first in turn; beside it lists of lists of lists and int tuples,
        # at two depths each, whose texts hold their indent
        labels = ["A^1", 'q"uote', "open(A^1, A^0)"]
        columns = cli._Columns(node=labels, level=[0, 1, 2])
        places = [labels, [[labels]], tuple(labels), columns]
        nested = [[["x", 'q"uote'], []], [[1, 2], [3]], []]
        pairs = [(0, 1), (2,), ()]
        value = dict(zip("abcd", places[first:] + places[:first]),
                     e=nested, f=pairs, g=[pairs, nested])
        same = {key: self.rows(v) if v is columns else v for key, v in value.items()}
        assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    def test_one_columns_object_twice(self):
        columns = cli._Columns(node=["A^1", 'q"uote'], inputs=[[0], []])
        value = [columns, {"k": [columns]}]
        same = [self.rows(columns), {"k": [self.rows(columns)]}]
        assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    @pytest.mark.parametrize("text", ["plain " * 50, 'q"uote\\ ' * 50])
    def test_a_column_that_repeats_one_string(self, text):
        columns = cli._Columns(node=[text, text, text], level=[0, 1, 2])
        assert cli._to_json({"a": columns}) == json.dumps(
            {"a": self.rows(columns)}, indent=2, sort_keys=True)

    def test_two_lists_of_equal_content(self):
        # equal lists are distinct columns: each is written, at its own depth
        first = ["A^1", 'q"uote', "\u00e9"]
        second = list(first)
        value = {"a": cli._Columns(node=first), "b": [cli._Columns(node=second)]}
        same = {"a": [{"node": s} for s in first], "b": [[{"node": s} for s in second]]}
        assert cli._to_json(value) == json.dumps(same, indent=2, sort_keys=True)

    def test_columns_of_no_rows_write_an_empty_list(self):
        assert cli._to_json({"a": cli._Columns(node=[], level=[])}) == '{\n  "a": []\n}'

    def test_provenance_of_a_twist_to_escape(self, monkeypatch):
        # the grammar reads only plain twist names; the library takes any
        twist = TwistLabel('a"b\\c')
        tree = Product(OpenGlue(ProjTimesTorus(1, 2, twist), Affine(0)), Affine(1))
        monkeypatch.setattr(cli, "_parse", lambda text: tree)
        payload, _ = cli.cmd_linlevel(argparse.Namespace(expr=None))
        jl, j_rules, rl, r_rules = schemes.levels_with_rules(tree)
        rows = {key: [{"node": r.node, "rule": r.rule, "inputs": list(r.inputs),
                       "level": r.level} for r in rules]
                for key, rules in (("j_linear", j_rules), ("range", r_rules))}
        assert 'a"b\\c' in rows["range"][0]["node"]
        assert cli._to_json(payload) == json.dumps(
            dict(payload, provenance=rows), indent=2, sort_keys=True)


class TestParserReuse:
    SEQUENCE = [
        ["linlevel", "A^1 * Gm"],
        ["cokernel", "Gm^2", "--i", "0", "--j0", "0", "--format", "json"],
        ["range", "A^1", "--i", "0", "--bogus"],
        ["venn", "3", "--file", os.path.join(DATA, "generic3.json")],
        ["stratify", "strat(A^0, A^1; 0<1)", "--format", "json"],
        ["linlevel", "P^2 @L"],
        ["linlevel", "A^1 * Gm"],
    ]

    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        for argv in self.SEQUENCE:
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse refuses bad options this way
                rc = e.code
            out, err = capsys.readouterr()
            proc = run_cli(*argv)
            assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert len(built) == 1


class TestOnePassPerQuery:
    """Each query walks each of its trees once per use and folds each
    tree once per level it reports: linlevel reads its text, labels and
    both rule tables off one derivation table and takes no separate
    pretty walk; range and rccm take one range fold and one pretty,
    each over its own table; stratify prints the stratification from
    one table and reads the glue tree's text and both levels off
    another; every stratify query computes its split order once; and no
    query asks for a root label."""

    CASES = [
        (["linlevel", "open(A^2, A^0) * Gm"], {"derivation": 1}),
        (["range", "A^0 * Gm^3", "--smooth", "--i", "0"],
         {"pretty": 1, "range_fold": 1, "derivation": 2}),
        (["rccm", "A^0 * Gm^3", "--smooth", "--i", "0"],
         {"pretty": 1, "range_fold": 1, "derivation": 2}),
        (["cohomology", "Gm^2", "--j", "0"],
         {"pretty": 1, "derivation": 1, "describe_at": 1}),
        (["cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2"],
         {"pretty": 1, "derivation": 1}),
        # the stratification and its glue tree are two printed trees
        (["stratify", "strat(A^0, A^1, Gm; 0<1, 0<2)"],
         {"pretty": 1, "derivation": 2, "split_order": 1}),
        (["stratify", "--file", os.path.join(DATA, "realization3.json")],
         {"split_order": 1}),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv,expected", CASES,
                             ids=["-".join(argv[:2]) if argv[1] == "--file" else argv[0]
                                  for argv, _ in CASES])
    def test_calls_per_query(self, monkeypatch, capsys, argv, expected, fmt):
        calls = Counter()

        def count(owner, attr, key):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        # the wrappers stand in both where each function is defined and
        # where it was imported by name
        count(grammar, "pretty", "pretty")
        count(cli, "pretty", "pretty")
        count(schemes, "levels_with_rules", "both_fold")
        count(schemes.SchemeExpr, "j_linear_level", "j_level")
        count(schemes.SchemeExpr, "range_level", "range_level")
        count(schemes, "j_linear_level_with_rules", "j_fold")
        count(schemes, "range_level_with_rules", "range_fold")
        count(ranges, "range_level_with_rules", "range_fold")
        for owner in (schemes, grammar, cli):
            count(owner, "derivation", "derivation")
        count(schemes, "split_order", "split_order")
        count(cli, "split_order", "split_order")
        count(schemes.SchemeExpr, "label", "label")
        count(shifted.ShiftedIdealSum, "describe_at", "describe_at")
        assert cli.main(argv + ["--format", fmt]) == 0
        capsys.readouterr()
        assert calls == Counter(expected)


SMALL_SETS = st.one_of(
    st.lists(st.frozensets(st.integers(-3, 12), max_size=6), min_size=1, max_size=6),
    st.lists(st.frozensets(st.text("ab%\"\u00e9", max_size=2), max_size=6),
             min_size=1, max_size=6),
)


class TestAgainstTheLibrary:
    """The linlevel and range payloads hold what the library folds give
    for the same tree, and the venn payload the pointwise strata for the
    same sets."""

    @staticmethod
    def payload(capsys, argv):
        assert cli.main(argv + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parser_trees)
    def test_linlevel_payload(self, capsys, t):
        got = self.payload(capsys, ["linlevel", grammar.pretty(t)])
        jl, j_rules = schemes.j_linear_level_with_rules(t)
        rl, r_rules = schemes.range_level_with_rules(t)
        assert (got["j_linear_level"], got["range_level"], got["dim"]) == (jl, rl, t.dim)
        rules = {"j_linear": cli._rules(j_rules), "range": cli._rules(r_rules)}
        assert got["provenance"] == json.loads(cli._to_json(rules))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parser_trees)
    def test_range_payload(self, capsys, t):
        expr = grammar.pretty(t)
        got = self.payload(capsys, ["range", expr, "--smooth", "--i", "0"])
        verdict = ranges.sheaf_range(t.assume_smooth())
        iso_from = verdict.iso_from(0)
        inj_at = verdict.level - 1
        if verdict.is_iso(0, inj_at):
            inj_at = None
        result = "ISO for j >= %d" % iso_from
        if inj_at is not None:
            result += "; INJECTIVE at j = %d" % inj_at
        assert got == {
            "command": "range",
            "expr": expr,
            "assumptions": ["base field R", "smooth (asserted)"],
            "degree_i": 0,
            "dim": verdict.dim,
            "range_level": verdict.level,
            "iso_for_j_at_least": iso_from,
            "injective_at_j": inj_at,
            "dimension_cap_j": verdict.dim + 1,
            "not_surjective": sorted([i, j] for i, j in verdict.not_surjective if i == 0),
            "provenance": json.loads(cli._to_json(cli._rules(verdict.provenance))),
            "result": result,
            "schema_version": schemes.SCHEMA_VERSION,
        }

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(SMALL_SETS)
    def test_venn_payload(self, tmp_path, capsys, sets):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "sets": [sorted(s) for s in sets]}))
        got = self.payload(capsys, ["venn", str(len(sets)), "--file", str(path)])
        strata = [{"sets": sorted(j + 1 for j in members),
                   "points": sorted(str(p) for p in points)}
                  for members, points in ref.venn_strata(sets)]
        assert got["strata"] == strata
        assert got["nonempty_strata"] == sum(1 for s in strata if s["points"])
        assert got["candidate_strata"] == len(strata) == 2 ** len(sets) - 1


class TestReimport:
    def test_old_modules_are_freed(self):
        # a process that drops the package from sys.modules and imports it
        # again (as a benchmark's set-up does) must not keep the old copy
        code = "\n".join([
            "import contextlib, gc, io, sys, weakref",
            "import wittlinear.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    wittlinear.cli.main(['linlevel', 'A^1 * Gm'])",
            "old = weakref.ref(sys.modules['wittlinear.schemes'].SchemeExpr)",
            "for name in [n for n in sys.modules if n.startswith('wittlinear')]:",
            "    del sys.modules[name]",
            "import wittlinear.cli",
            "gc.collect()",
            "sys.exit(old() is not None)",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr

    def test_a_kept_cli_module_answers_after_a_reimport(self):
        # the first cli module must fold its own grammar's trees with its
        # own schemes module, not with the copy imported after it
        code = "\n".join([
            "import contextlib, io, sys",
            "import wittlinear.cli as first",
            "for name in [n for n in sys.modules if n.startswith('wittlinear')]:",
            "    del sys.modules[name]",
            "import wittlinear.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [first.main(['linlevel', 'A^1']),",
            "             first.main(['stratify', 'strat(A^0, A^1; 0<1)'])]",
            "sys.exit(max(codes))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr


class TestStratifyCommand:
    def test_expression_mode(self):
        proc = run_cli("stratify", "strat(A^0, A^1; 0<1)", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["split_order"] == [0, 1]
        assert payload["glue_tree"] == "closed(A^0, A^1)"
        assert payload["j_linear_level"] == 1
        assert payload["range_level"] == 0

    def test_file_mode_replays(self, tmp_path):
        realization = {
            "schema_version": 1,
            "ground": ["p", "u1", "u2"],
            "pieces": [["p"], ["u1", "u2"]],
            "closure": [[0], [0, 1]],
        }
        path = tmp_path / "line.json"
        path.write_text(json.dumps(realization))
        proc = run_cli("stratify", "--file", str(path), "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["replay_check"] == "PASS"
        assert payload["split_order"] == [0, 1]

    def test_file_mode_refuses_non_transitive_closure(self, tmp_path, capsys):
        realization = {
            "schema_version": 1,
            "ground": ["a", "b", "c"],
            "pieces": [["a"], ["b"], ["c"]],
            "closure": [[0], [0, 1], [1, 2]],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(realization))
        assert cli.main(["stratify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: closure relation must be transitive\n"

    def test_file_mode_refuses_fewer_closure_sets_than_pieces(self, tmp_path, capsys):
        realization = {"schema_version": 1, "ground": ["a", "b"],
                       "pieces": [["a"], ["b"]], "closure": [[0]]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(realization))
        assert cli.main(["stratify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: one closure set per piece required\n"

    @pytest.mark.parametrize("closure,pieces", [
        # true would be read as piece 1
        ([[0], [True, 1]], [["a"], ["b"]]),
        # two distinct points that both print as 1
        ([[0], [1]], [[1], ["1"]]),
    ], ids=["boolean-index", "points-print-alike"])
    def test_file_mode_refuses_ambiguous_files(self, tmp_path, capsys, closure, pieces):
        realization = {"schema_version": 1, "ground": [p for ps in pieces for p in ps],
                       "pieces": pieces, "closure": closure}
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(realization))
        assert cli.main(["stratify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    def test_file_mode_refuses_a_ground_point_equal_to_a_piece_point(self, tmp_path, capsys):
        realization = {"schema_version": 1, "ground": [1, 2],
                       "pieces": [[True], [2]], "closure": [[0], [0, 1]]}
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(realization))
        assert cli.main(["stratify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: ground and pieces holds distinct points 1 and True "
                       "that compare equal\n")

    def test_requires_exactly_one_input(self):
        assert run_cli("stratify").returncode == 4
        proc = run_cli("stratify", "strat(A^0; )", "--file", "x.json")
        assert proc.returncode == 4

    def test_non_stratified_expression_exits_4(self):
        assert run_cli("stratify", "A^1").returncode == 4

    def test_missing_file_exits_2(self):
        assert run_cli("stratify", "--file", "/nonexistent.json").returncode == 2


class TestVennCommand:
    def test_wrong_set_count_exits_2(self):
        proc = run_cli("venn", "2", "--file",
                       os.path.join(DATA, "generic3.json"))
        assert proc.returncode == 2
        assert "expected 2 sets" in proc.stderr

    @pytest.mark.parametrize("sets", [[[1, "1"], ["1"]], [[1], ["1"]]],
                             ids=["within-a-set", "across-sets"])
    def test_points_printing_alike_exit_2(self, tmp_path, capsys, sets):
        path = tmp_path / "alike.json"
        path.write_text(json.dumps({"schema_version": 1, "sets": sets}))
        assert cli.main(["venn", "2", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: sets holds distinct points")
        assert err.endswith("that print the same\n")

    @pytest.mark.parametrize("data,points", [
        ({"sets": [[1], [True]]}, "1 and True"),
        ({"sets": [[1], [1.0]]}, "1 and 1.0"),
        ({"sets": [[0.0, 1], [-0.0]]}, "0.0 and -0.0"),
        ({"ground": [1, 2], "sets": [[True], [2]]}, "1 and True"),
    ], ids=["true-and-1", "1-and-1.0", "signed-zeros", "ground-and-set"])
    def test_points_comparing_equal_exit_2(self, tmp_path, capsys, data, points):
        # a Python set would merge these into one point
        path = tmp_path / "equal.json"
        path.write_text(json.dumps({"schema_version": 1, **data}))
        assert cli.main(["venn", "2", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("holds distinct points %s that compare equal\n" % points)

    def test_text_mode_lists_strata(self):
        proc = run_cli("venn", "3", "--file",
                       os.path.join(DATA, "generic3.json"))
        assert proc.returncode == 0
        assert "nonempty strata: 7 of 7 candidates" in proc.stdout
        assert "partition check: PASS" in proc.stdout
        assert "boundary check: PASS" in proc.stdout


class TestDiagnostics:
    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_opaque_twist_warns_on_stderr(self):
        proc = run_cli("linlevel", "P^2 @L")
        assert proc.returncode == 0
        assert "warning:" in proc.stderr
        assert "opaque label" in proc.stderr

    def test_errors_go_to_stderr_not_stdout(self):
        proc = run_cli("range", "A^", "--i", "0")
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_1_quietly(self, fmt):
        # the answer runs to about 175 kB, more than a pipe holds, so the
        # writer meets the closed pipe while printing
        proc = subprocess.Popen(
            [sys.executable, "-m", "wittlinear", "rccm", "Gm^3000", "--i", "0",
             "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first in (b"scheme: Gm^3000 (dim 3000, smooth (derived))\n", b"{\n")
        assert err == b""
