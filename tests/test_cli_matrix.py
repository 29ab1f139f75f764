"""Every subcommand's exact bytes: stdout, stderr and exit code of each
query in CASES, in both formats, against tests/golden/cli_matrix.json.

The matrix covers what the goldens and the README examples leave open:
cohomology with and without --j (both step lines), range at the
dimension cap, rccm, stratify in both modes, venn with empty strata,
every error exit a query can reach, and each --help.  Paths are
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
                         ids=[" ".join(c) or "(no arguments)" for c in CASES])
def test_bytes_and_exit_code(index):
    expected = _load()[index]
    assert run(expected["argv"]) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    with open(EXPECTED, "w") as fh:
        json.dump([run(argv) for argv in CASES], fh, indent=1)
        fh.write("\n")
