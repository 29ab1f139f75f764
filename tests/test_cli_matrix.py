"""Every subcommand's exact bytes: stdout, stderr and exit code of each
query in CASES, in both formats, against tests/golden/cli_matrix.json.

The matrix covers what the goldens and the README examples leave open:
cohomology with and without --j (both step lines), range at the
dimension cap, rccm, stratify in both modes, venn with empty strata,
every error exit a query can reach, each --help, and linlevel, range
and rccm on depth-40 open, closed and product chains and a 20-stratum
strat, whose provenance labels are long and repeated.  Paths are
relative to the repo root, which the queries run in.  The --help
pins hold argparse's layout for the Python the file was written
with; another version may wrap or word help differently.

To rewrite the expectation file after an intended output change:

    PYTHONPATH=src python tests/test_cli_matrix.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from wittlinear import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tests", "golden", "cli_matrix.json")

# depth-40 chains of each deep family and a 20-stratum strat: long
# provenance labels, repeated subtrees and a wide node
DEPTH = 40
OPEN_CHAIN = "open(" * DEPTH + "A^3" + "".join(
    ", %s)" % ("empty", "A^0", "A^1", "A^2")[k % 4] for k in range(DEPTH))


def _closed_chain() -> str:
    text = "Gm^2"
    for k in range(DEPTH):
        z = ("A^0", "A^1", "Gm", "A^2")[k % 4]
        text = "closed(%s, %s)" % ((z, text) if k % 3 else (text, z))
    return text


CLOSED_CHAIN = _closed_chain()
PRODUCT_CHAIN = " * ".join(("A^1", "Gm", "A^0", "Gm^2", "A^3")[k % 5] for k in range(DEPTH + 1))
WIDE_STRAT = "strat(%s; 0<1, 2<5, 7<19)" % ", ".join(
    "open(" * (1 + k % 3) + "A^%d" % (1 + k % 2) + ", A^0)" * (1 + k % 3) for k in range(20))
DEEP = [OPEN_CHAIN, CLOSED_CHAIN, PRODUCT_CHAIN, WIDE_STRAT]
# test ids name the deep trees instead of spelling them out
DEEP_NAMES = dict(zip(DEEP, ("<open chain>", "<closed chain>", "<product chain>",
                             "<wide strat>")))

QUERIES = [
    ["linlevel", "strat(open(A^2, A^0) * Gm, closed(P^1 @O(2) * Gm, empty), "
     "A^1 * Gm^2; 0<1)"],
    ["linlevel", "P^2 @L"],  # an opaque twist warns on stderr
    ["range", "A^0 * Gm^3", "--smooth", "--i", "0"],
    ["range", "A^2", "--i", "1"],
    ["range", "A^0 * Gm^3", "--smooth", "--i", "2"],  # at the cap: no INJECTIVE part
    ["range", "P^1 * Gm", "--smooth", "--i", "-1", "--field", "R"],
    ["cohomology", "A^1 * Gm^2"],
    ["cohomology", "P^2 @O(3) * Gm^3"],
    ["cohomology", "Gm", "--j", "0"],
    ["cohomology", "Gm", "--j", "5"],  # the step is ISO
    ["cohomology", "P^2 @O(3) * Gm^3", "--j", "2"],
    ["rccm", "A^0 * Gm^3", "--smooth", "--i", "0"],
    ["rccm", "P^1 @O(2) * Gm", "--smooth", "--i", "1"],
    ["rccm", "Gm", "--i", "-3"],  # a negative degree prints as grade-(-3)
    ["cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2"],
    ["cokernel", "Gm^2", "--i", "0", "--j0", "0", "--j1", "1"],
    ["cokernel", "A^1 * Gm^2", "--i", "0", "--j0", "-1"],
    ["stratify", "strat(A^0, A^1, Gm; 0<1, 0<2)"],
    ["stratify", "--file", "tests/data/realization3.json"],
    ["venn", "3", "--file", "tests/data/generic3.json"],
    ["venn", "3", "--file", "tests/data/venn_sparse3.json"],
    # exit 2: parse errors, bad levels, missing or malformed files, counts
    ["linlevel", "A^"],
    ["range", "open(A^1, A^0", "--i", "0"],
    ["cokernel", "Gm", "--i", "0", "--j0", "3", "--j1", "1"],
    ["stratify", "--file", "tests/data/missing.json"],
    ["stratify", "--file", "tests/data/generic3.json"],
    ["venn", "2", "--file", "tests/data/generic3.json"],
    ["venn", "3", "--file", "tests/data/missing.json"],
    # exit 3: smoothness and base field
    ["range", "closed(A^0, A^1)", "--i", "0"],
    ["range", "A^1", "--i", "0", "--field", "Fq"],
    ["rccm", "closed(A^0, A^1)", "--i", "0"],
    ["rccm", "A^1", "--smooth", "--i", "0", "--field", "Fq"],
    # exit 4: queries outside the computed cases
    ["cohomology", "open(A^1, A^0)"],
    ["cohomology", "P^2 @O(1) * Gm"],
    ["cohomology", "P^2 @L * Gm"],
    ["cohomology", "Gm^21", "--j", "0"],
    ["cokernel", "P^2 @O(3) * Gm^3", "--i", "0", "--j0", "2"],
    ["cokernel", "Gm^21", "--i", "0", "--j0", "0"],
    ["stratify"],
    ["stratify", "A^1"],
    ["venn", "21", "--file", "tests/data/venn21.json"],
    # deep trees: the three tree commands' provenance at depth
    *(q for tree in DEEP for q in (
        ["linlevel", tree],
        ["range", tree, "--smooth", "--i", "0"],
        ["rccm", tree, "--smooth", "--i", "1"],
    )),
]

# argparse's own exits, with no --format
PARSER_CALLS = [
    [], ["--help"], ["--version"], ["range", "A^1"], ["linlevel", "A^1", "--bogus"],
    *([cmd, "--help"] for cmd in
      ("linlevel", "range", "cohomology", "rccm", "cokernel", "stratify", "venn")),
]

CASES = [q + ["--format", fmt] for q in QUERIES for fmt in ("text", "json")] + PARSER_CALLS


def run(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process call of main()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse exits for --help and bad options
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict]:
    with open(EXPECTED) as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width


def test_the_file_pins_every_case():
    assert [entry["argv"] for entry in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(DEEP_NAMES.get(a, a) for a in c) or "(no arguments)"
                              for c in CASES])
def test_bytes_and_exit_code(index):
    expected = _load()[index]
    assert run(expected["argv"]) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    with open(EXPECTED, "w") as fh:
        json.dump([run(argv) for argv in CASES], fh, indent=1)
        fh.write("\n")
