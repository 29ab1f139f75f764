"""The benchmark's tracer (perfbench/spans.py) still finds every
function it wraps: a function deleted or renamed under it fails here,
not only in a traced benchmark run."""
from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module: str, attr: str):
    """The object TARGETS names, as stored: a class attribute is read
    from the class's own dict, so a classmethod stays one."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_install_wraps_every_target_and_uninstall_restores_it():
    import wittlinear.cli  # noqa: F401  (loads every module TARGETS names)

    spans = load_spans()
    names = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    originals = {name: target(*name) for name in names}
    package = [m for name, m in sys.modules.items()
               if name == "wittlinear" or name.startswith("wittlinear.")]
    bound = {(m.__name__, name): value for m in package for name, value in vars(m).items()}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert [name for name in names if target(*name) is originals[name]] == []
    finally:
        tracer.uninstall()
    assert [name for name in names if target(*name) is not originals[name]] == []
    assert [key for key, value in bound.items()
            if vars(sys.modules[key[0]])[key[1]] is not value] == []
