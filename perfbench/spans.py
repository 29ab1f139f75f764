"""Spans and counters recorded around the package's public functions.

Tracer.install() replaces each target in TARGETS by a wrapper, both in
the module that defines it and in every wittlinear module that imported
it by name (cli, ranges, the package root); class attributes are
replaced on the class.  uninstall() puts every original back.  Spans
(layer, start, end, parent) stay in memory until the run ends.

A call into a layer that is already open (pretty() recursing, or
hc_proj_times_torus() calling h0_torus_cells()) is folded into the
outer span, so recursion adds a wrapper frame but no span.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


def _fold_count(args, result):
    return {"schemes.rules_emitted": len(result[1])}


def _venn_count(args, result):
    return {"schemes.venn_candidates": len(result.strata),
            "schemes.venn_nonempty": len(result.nonempty)}


def _summands(args, result):
    # distinct shifts; the multiplicity 2^d is what cyclic_factors and
    # describe_chars count where it is expanded
    return {"cells.summands": len(result.summands)}


def _cyclic_factors(args, result):
    # the cyclic factors composite_cokernel feeds to its normal form:
    # one per unit of multiplicity whose order 2^k has k > 0
    total, j0, j1 = args
    fed = sum(m for s, m in total.summands if min(max(s - j0, 0), j1 - j0) > 0)
    return {"shifted.cyclic_factors": fed,
            "shifted.invariant_factors": len(result.torsion_orders)}


# (module, attribute, layer, counter(args, result) -> {name: count})
TARGETS = (
    ("wittlinear.grammar", "parse_expr", "grammar.parse",
     lambda args, result: {"grammar.input_chars": len(args[0])}),
    ("wittlinear.grammar", "pretty", "grammar.pretty", None),
    ("wittlinear.schemes", "j_linear_level_with_rules", "schemes.fold", _fold_count),
    ("wittlinear.schemes", "range_level_with_rules", "schemes.fold", _fold_count),
    ("wittlinear.schemes", "ClosureOrder.from_pairs", "schemes.closure",
     lambda args, result: {"schemes.closure_pairs": len(result.relation)}),
    ("wittlinear.schemes", "split_order", "schemes.split", None),
    ("wittlinear.schemes", "venn_stratification", "schemes.venn", _venn_count),
    ("wittlinear.cells", "h0_torus_cells", "cells.cohomology", _summands),
    ("wittlinear.cells", "hc_proj_times_torus", "cells.cohomology", _summands),
    ("wittlinear.shifted", "ShiftedIdealSum.composite_cokernel", "shifted.cokernel",
     _cyclic_factors),
    ("wittlinear.shifted", "ShiftedIdealSum.describe_at", "shifted.describe",
     lambda args, result: {"shifted.describe_chars": len(result)}),
    ("wittlinear.shifted", "ShiftedIdealSum.step_verdict", "shifted.step", None),
    ("wittlinear.shifted", "ShiftedIdealSum.graded_step_verdict", "shifted.step", None),
    ("wittlinear.ranges", "sheaf_range", "ranges.sheaf_range", None),
    ("wittlinear.ranges", "rccm_report", "ranges.rccm", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._saved: list[tuple] = []

    def call(self, layer, fn, args, counter=None, kwargs=None):
        span = [layer, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open.add(layer)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._open.discard(layer)
        if counter is not None:
            self.counts.update(counter(args, result))
        return result

    def _wrap(self, fn, layer, counter):
        is_open = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in is_open:  # keep recursion to one extra frame per level
                return fn(*args, **kwargs)
            return self.call(layer, fn, args, counter, kwargs)
        return wrapper

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "wittlinear" or name.startswith("wittlinear.")]
        for module, attr, layer, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, counter))
                else:
                    new = self._wrap(raw, layer, counter)
                self._replace(cls, attr, raw, new)
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, layer, counter)
            for m in package:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, name, fn, wrapper)

    def _replace(self, obj, name, old, new) -> None:
        self._saved.append((obj, name, old))
        setattr(obj, name, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, name, old = self._saved.pop()
            setattr(obj, name, old)

    def mark(self) -> int:
        return len(self.spans)

    def self_ns(self, start: int = 0, stop: int | None = None) -> dict[str, int]:
        """Self time per layer over spans[start:stop]: duration minus children."""
        stop = len(self.spans) if stop is None else stop
        child: dict[int, int] = defaultdict(int)
        for layer, s, e, parent in self.spans[start:stop]:
            if parent >= start:
                child[parent] += e - s
        out: dict[str, int] = defaultdict(int)
        for i in range(start, stop):
            layer, s, e, _ = self.spans[i]
            out[layer] += e - s - child[i]
        return out
