"""CLI fuzz: main() on argvs of the pinned CLI matrix, mutated, either
answers or exits with a documented code (0, 2, 3, 4 or 5), and raises
nothing else.  argparse's own exits, SystemExit 0 and 2, count as exits.

Mutations drop, duplicate or swap tokens, put huge integers in option
values, set an integer after a "^" in an expression to one in
1000..5000, unbalance the parentheses of an expression and point --file
at malformed JSON.  The rank mutation is not drawn for cohomology
without --j, which expands every binomial of the rank and has no size
limit; everywhere else a rank of thousands answers in milliseconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlinear import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "golden", "cli_matrix.json")) as _fh:
    ARGVS = [[os.path.join(ROOT, a) if a.startswith("tests/") else a for a in entry["argv"]]
             for entry in json.load(_fh)]

INT_OPTIONS = ("--i", "--j", "--j0", "--j1")
HUGE = st.one_of(st.integers(10**18, 10**60).map(str), st.integers(-10**60, -10**18).map(str),
                 st.sampled_from(["1" + "0" * 5000, "-" + "9" * 4400]))

# file texts as bytes: too deep, wrong types, truncated, not UTF-8
with open(os.path.join(ROOT, "tests", "data", "realization3.json"), "rb") as _fh:
    _REALIZATION = _fh.read()
MALFORMED = [
    b"[" * 100000 + b"]" * 100000,
    b'{"a": ' * 100000 + b"1" + b"}" * 100000,
    b'{"schema_version": 1, "sets": ' + b"[" * 60 + b"]" * 60 + b"}",
    b'{"schema_version": 1, "sets": {"a": 1}}',
    b'{"schema_version": 1, "ground": 5, "pieces": "ab", "closure": {}}',
    b'{"schema_version": "1", "sets": [["a"]]}',
    b"null", b"3.5", b'"x"', b"",
    _REALIZATION[:len(_REALIZATION) // 2],
    b'\xff\xfe{"schema_version": 1}',
    b'{"schema_version": 1, "sets": [["\xe9"]]}',
]


@pytest.fixture(scope="module")
def malformed_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    paths = []
    for k, data in enumerate(MALFORMED):
        path = root / ("file%d.json" % k)
        path.write_bytes(data)
        paths.append(str(path))
    return paths


def mutate(data, argv: list[str], files: list[str]) -> list[str]:
    """argv with one mutation drawn from data."""
    argv = list(argv)
    ints = [k for k in range(1, len(argv)) if argv[k - 1] in INT_OPTIONS]
    # every expression in the matrix holds a "^" or a "("
    exprs = [k for k in range(1, len(argv)) if "^" in argv[k] or "(" in argv[k]]
    files_at = [k for k in range(1, len(argv)) if argv[k - 1] == "--file"]
    ranks = [(k, m.span()) for k in exprs for m in re.finditer(r"(?<=\^)[0-9]+", argv[k])]
    if "cohomology" in argv and "--j" not in argv:
        ranks = []
    kinds = ["drop", "duplicate", "swap"] if argv else []
    kinds += ["huge"] * bool(ints) + ["paren"] * bool(exprs) + ["file"] * bool(files_at)
    kinds += ["rank"] * bool(ranks)
    if not kinds:
        return argv
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("drop", "duplicate", "swap"):
        k = data.draw(st.integers(0, len(argv) - 1))
        if kind == "drop":
            del argv[k]
        elif kind == "duplicate":
            argv.insert(k, argv[k])
        else:
            m = data.draw(st.integers(0, len(argv) - 1))
            argv[k], argv[m] = argv[m], argv[k]
    elif kind == "huge":
        argv[data.draw(st.sampled_from(ints))] = data.draw(HUGE)
    elif kind == "rank":
        k, (i, j) = data.draw(st.sampled_from(ranks))
        argv[k] = argv[k][:i] + str(data.draw(st.integers(1000, 5000))) + argv[k][j:]
    elif kind == "paren":
        k = data.draw(st.sampled_from(exprs))
        at = data.draw(st.integers(0, len(argv[k])))
        parens = [i for i, c in enumerate(argv[k]) if c in "()"]
        if parens and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(parens))
            argv[k] = argv[k][:i] + argv[k][i + 1:]
        else:
            argv[k] = argv[k][:at] + data.draw(st.sampled_from("()")) + argv[k][at:]
    else:
        argv[data.draw(st.sampled_from(files_at))] = data.draw(st.sampled_from(files))
    return argv


def exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:  # argparse exits for --help, --version and bad options
            assert e.code in (0, 2), argv
            return e.code


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_mutated_argvs_exit_with_a_documented_code(malformed_files, data):
    argv = data.draw(st.sampled_from(ARGVS))
    for _ in range(data.draw(st.integers(1, 3))):
        argv = mutate(data, argv, malformed_files)
    assert exit_code(argv) in (0, 2, 3, 4, 5), argv


@pytest.mark.parametrize("index", range(len(MALFORMED)))
@pytest.mark.parametrize("command", ["venn", "stratify"])
def test_every_malformed_file_exits_2(malformed_files, command, index):
    argv = ([command, "1"] if command == "venn" else [command])
    assert exit_code(argv + ["--file", malformed_files[index]]) == 2
