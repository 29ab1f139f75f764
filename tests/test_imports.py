"""Every name a library module imports with "from ... import" is used in it."""
from __future__ import annotations

import ast
import os

import pytest

from helpers import SRC

PACKAGE = os.path.join(SRC, "wittlinear")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_from_imports(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        "line %d: %s" % (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert not unused, unused
