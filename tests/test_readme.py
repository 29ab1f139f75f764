"""The README's examples, run as written: every "$ wittlinear ..." block
through the CLI and every ">>>" example through doctest."""
from __future__ import annotations

import doctest
import os
import re
import shlex

import pytest

from wittlinear import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md")) as _fh:
    README = _fh.read()

CLI_EXAMPLES = re.findall(r"^```\n\$ wittlinear (.*?)\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 7


@pytest.mark.parametrize("command,expected", CLI_EXAMPLES,
                         ids=[command.split()[0] for command, _ in CLI_EXAMPLES])
def test_cli_example_prints_as_shown(monkeypatch, capsys, command, expected):
    monkeypatch.chdir(ROOT)  # the examples name files relative to the repo root
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_library_examples():
    # blank out the code fences, which doctest would otherwise read as
    # the expected output of the last example in each block
    text = re.sub(r"^```.*$", "", README, flags=re.M)
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0
