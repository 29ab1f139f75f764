"""Pointwise references for the stratification combinatorics.

The library computes venn strata and closure orders over integer
bitsets.  These are the direct definitions, written over frozensets and
pairs with no shared code, for the property tests to compare against.
They are exponential or polynomial of high degree and meant for small
inputs only.
"""
from __future__ import annotations

import itertools


def venn_strata(sets) -> list[tuple[frozenset, frozenset]]:
    """(members, points) for every nonempty index set J, deepest first:
    the points in every set of J and in none of the others."""
    families = [frozenset(s) for s in sets]
    n = len(families)
    subsets = sorted(
        (frozenset(J) for r in range(1, n + 1) for J in itertools.combinations(range(n), r)),
        key=lambda J: (-len(J), sorted(J)),
    )
    out = []
    for J in subsets:
        inter = frozenset.intersection(*(families[j] for j in J))
        outer = frozenset().union(*(families[j] for j in range(n) if j not in J))
        out.append((J, inter - outer))
    return out


def is_partial_order(size: int, relation) -> bool:
    """Whether relation is a reflexive, transitive, antisymmetric
    relation on range(size), checked pair by pair."""
    rel = set(relation)
    if any(not (0 <= a < size and 0 <= b < size) for a, b in rel):
        return False
    if any((i, i) not in rel for i in range(size)):
        return False
    if any(b == c and (a, d) not in rel for a, b in rel for c, d in rel):
        return False
    return not any(a != b and (b, a) in rel for a, b in rel)


def transitive_closure(size: int, pairs) -> frozenset:
    """The reflexive-transitive closure of pairs on range(size), by
    adding composites until none is new."""
    rel = {(i, i) for i in range(size)} | set(pairs)
    while True:
        new = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not new:
            return frozenset(rel)
        rel |= new


def cover_pairs(size: int, relation) -> list[tuple[int, int]]:
    """Strict pairs (a, b) with no m strictly between them."""
    strict = {(a, b) for a, b in relation if a != b}
    return sorted((a, b) for a, b in strict
                  if not any((a, m) in strict and (m, b) in strict for m in range(size)))


def split_order(size: int, relation) -> tuple[int, ...]:
    """Repeatedly take the lowest index with nothing else remaining below it."""
    remaining = list(range(size))
    out = []
    while len(remaining) > 1:
        pick = min(i for i in remaining
                   if not any(k != i and (k, i) in relation for k in remaining))
        out.append(pick)
        remaining.remove(pick)
    return tuple(out + remaining)


def realization_closures(strata) -> list[frozenset]:
    """For (members, points) strata, the indices of the strata whose
    members contain each stratum's own, by comparing every pair."""
    return [frozenset(k for k, (other, _) in enumerate(strata) if members <= other)
            for members, _ in strata]


def venn_check_failures(inter, strata) -> list[str]:
    """What the venn decomposition check reports for bitset tables over
    set masks J, each claim tested for every J on its own: the strata
    over nonempty J are pairwise disjoint and cover inter[0], and each
    inter[J] is the union of the strata whose index set contains J."""
    size = len(strata)

    def named(J):
        return [j for j in range(size.bit_length()) if J >> j & 1]

    out = ["stratum %r shares points with another stratum" % named(J)
           for J in range(1, size) if any(strata[J] & strata[K] for K in range(1, J))]
    union = 0
    for J in range(1, size):
        union |= strata[J]
    if union != inter[0]:
        out.append("the strata do not cover the union of the sets")
    for J in range(1, size):
        deeper = 0
        for K in range(size):
            if K & J == J:
                deeper |= strata[K]
        if deeper != inter[J]:
            out.append("closure of stratum %r mismatches its deeper strata" % named(J))
    return out
