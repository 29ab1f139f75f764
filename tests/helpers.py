"""Shared test helpers: random scheme trees, a hypothesis strategy for
parser-image trees, tree surgery, rule replay, the environment for CLI
child processes."""
from __future__ import annotations

import os
import random

from hypothesis import strategies as st

from wittlinear import (
    Affine,
    ClosedGlue,
    ClosureOrder,
    Empty,
    OpenGlue,
    Product,
    ProjTimesTorus,
    RuleApplication,
    SchemeError,
    SchemeExpr,
    Stratified,
    TorusCell,
    TwistLabel,
)
from wittlinear._frozen import replace
from wittlinear.grammar import _combine

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env() -> dict[str, str]:
    """The environment for ``python -m wittlinear`` children.

    pytest's ``pythonpath`` setting reaches only its own process, so the
    repo's ``src`` goes in front of any inherited PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def random_tree(rng: random.Random, depth: int) -> SchemeExpr:
    """A random well-formed scheme tree of height at most ``depth``."""

    def leaf() -> SchemeExpr:
        k = rng.randrange(4)
        if k == 0:
            return Empty()
        if k == 1:
            return Affine(rng.randint(0, 3))
        if k == 2:
            return TorusCell(rng.randint(0, 2), rng.randint(0, 3))
        return ProjTimesTorus(rng.randint(0, 2), rng.randint(0, 2))

    def nonempty(d: int) -> SchemeExpr:
        for _ in range(16):
            t = random_tree(rng, d)
            if not t.is_empty:
                return t
        return Affine(rng.randint(0, 2))

    if depth <= 0:
        return leaf()
    kind = rng.randrange(8)
    if kind <= 2:
        return leaf()
    if kind == 3:
        # open complement: the closed piece must be smaller or empty
        for _ in range(16):
            ambient = random_tree(rng, depth - 1)
            closed = Empty() if rng.random() < 0.3 else random_tree(rng, depth - 1)
            try:
                return OpenGlue(ambient, closed)
            except SchemeError:
                continue
        return leaf()
    if kind == 4:
        return ClosedGlue(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind in (5, 6):
        return Product(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    k = rng.randint(1, 3)
    strata = tuple(nonempty(depth - 1) for _ in range(k))
    return Stratified(strata, ClosureOrder.chain(k))


def _open_glue(ambient: SchemeExpr, closed: SchemeExpr) -> SchemeExpr:
    # the removed piece must be empty or smaller than the ambient scheme
    if closed.is_empty or closed.dim < ambient.dim:
        return OpenGlue(ambient, closed)
    return OpenGlue(ambient, Empty())


def _stratified(strata: list, pairs: list) -> SchemeExpr:
    # strata must be nonempty; pairs a < b only, so the closure has no
    # cycle (dropping empty strata here, not by a filter on the subtree
    # strategy, keeps hypothesis from retrying draws)
    strata = [t for t in strata if not t.is_empty] or [Affine(0)]
    k = len(strata)
    return Stratified(tuple(strata), ClosureOrder.from_pairs(
        k, [(a, b) for a, b in pairs if a < b < k]))


_TWISTS = st.sampled_from([TwistLabel.trivial(), TwistLabel.o(0), TwistLabel.o(3),
                           TwistLabel.o(-1), TwistLabel("L")])
_INDEX = st.integers(0, 2)

# How to draw a node of each kind in schemes.NODE_KINDS, keyed by kind
# name: leaves directly, inner nodes from a strategy for their subtrees.
# Products go through the parser's own _combine and torus leaves have
# n = 0, so every drawn tree is one parse_expr can return.
TREE_LEAVES = {
    "empty": st.just(Empty()),
    "affine": st.builds(Affine, st.integers(0, 3)),
    "torus_cell": st.builds(TorusCell, st.just(0), st.integers(0, 3)),
    "proj_times_torus": st.builds(ProjTimesTorus, st.integers(0, 3), st.integers(0, 2),
                                  _TWISTS),
}
TREE_BRANCHES = {
    "open_glue": lambda sub: st.builds(_open_glue, sub, sub),
    "closed_glue": lambda sub: st.builds(ClosedGlue, sub, sub),
    "product": lambda sub: st.builds(_combine, sub, sub),
    "stratified": lambda sub: st.builds(
        _stratified,
        st.lists(sub, min_size=1, max_size=3),
        st.lists(st.tuples(_INDEX, _INDEX), max_size=3)),
}

# st.recursive stacks the extend step log2(max_leaves) + 1 times at
# most, so the trees drawn here are at most 6 levels deep
parser_trees = st.recursive(
    st.one_of(*TREE_LEAVES.values()),
    lambda sub: st.one_of(*(branch(sub) for branch in TREE_BRANCHES.values())),
    max_leaves=24,
)


def surgery_sites(t: SchemeExpr):
    """All (subtree, rebuild) pairs for t; rebuild(r) swaps the subtree
    for r and returns the rebuilt whole tree (which may raise
    SchemeError if the replacement violates a constructor invariant)."""
    sites = [(t, lambda r: r)]

    def descend(field: str) -> None:
        for sub, rb in surgery_sites(getattr(t, field)):
            sites.append(
                (sub, lambda r, f=field, rb=rb: replace(t, **{f: rb(r)}))
            )

    if isinstance(t, OpenGlue):
        descend("ambient")
        descend("closed")
    elif isinstance(t, ClosedGlue):
        descend("closed")
        descend("open_part")
    elif isinstance(t, Product):
        descend("left")
        descend("right")
    elif isinstance(t, Stratified):
        for i, stratum in enumerate(t.strata):
            for sub, rb in surgery_sites(stratum):
                sites.append((
                    sub,
                    lambda r, i=i, rb=rb: replace(
                        t, strata=t.strata[:i] + (rb(r),) + t.strata[i + 1:]
                    ),
                ))
    return sites


_LEAF_FIXED = {"leaf-empty": 0, "leaf-affine": 0}
_LEAF_FREE = ("leaf-torus-cell", "leaf-proj-cell-chain", "leaf-proj-cell-strata")
_CONVERSION = (
    "smooth-degree-conversion",
    "graded-to-twisted-ideal",
    "comparison-factorization",
)


def combine_rule(rule: str, inputs: tuple[int, ...]) -> int:
    """Recompute a composite rule's output level from its input levels."""
    if rule in ("open-glue-split", "closed-glue-split"):
        return 1 + max(inputs)
    if rule == "open-glue-shift":
        return max(inputs) + 1
    if rule == "closed-glue-five-lemma":
        return max(inputs)
    if rule == "product-sum":
        return sum(inputs)
    if rule == "stratified-split":
        return 1 + (len(inputs) - 1) + max(inputs)
    if rule == "stratified-refinement":
        return max(inputs)
    raise AssertionError("unknown composite rule %r" % rule)


def replay_provenance(rules: tuple[RuleApplication, ...], expected_level: int) -> None:
    """Replay a post-order rule chain and check it reproduces the level.

    Leaf rules are axioms (fixed-level leaves are checked exactly);
    every composite rule must consume exactly its recorded inputs from
    the stack and recompute its recorded level; trailing conversion
    rules must carry the level through unchanged.  The replay must end
    with a single stack entry equal to the verdict's level.
    """
    stack: list[int] = []
    for app in rules:
        if app.rule in _LEAF_FIXED:
            assert app.inputs == ()
            assert app.level == _LEAF_FIXED[app.rule]
            stack.append(app.level)
        elif app.rule in _LEAF_FREE:
            assert app.inputs == ()
            assert app.level >= 0
            stack.append(app.level)
        elif app.rule in _CONVERSION:
            assert len(app.inputs) == 1
            assert stack, "conversion rule with no level to convert"
            top = stack.pop()
            assert app.inputs == (top,)
            assert app.level == top
            stack.append(top)
        else:
            k = len(app.inputs)
            assert k >= 1 and len(stack) >= k
            popped = tuple(stack[-k:])
            del stack[-k:]
            assert popped == app.inputs, (app.rule, popped, app.inputs)
            level = combine_rule(app.rule, app.inputs)
            assert level == app.level, (app.rule, level, app.level)
            stack.append(level)
    assert stack == [expected_level], (stack, expected_level)
