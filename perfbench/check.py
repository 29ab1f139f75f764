"""Independent references for every benchmark query.

Nothing here imports the package under test.  Each reference is worked
out from the generator's parameters:

- 2-group cokernels: the sorted list of 2^min(max(s - j0, 0), j1 - j0)
  over the binomial shift pattern, not the library's normal form;
- describe_at strings and tree levels: the generator's closed form for
  each shape;
- venn strata: points grouped by their membership pattern;
- split orders: checked to be linear extensions of the generator's
  poset, i.e. every pick is minimal among the strata left;
- cold_cli: README and golden bytes.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from math import comb

SCHEMA = {"schema_version": 1}


def group_str(orders: list[int]) -> str:
    """Invariant-factor text of a torsion group with sorted 2-power orders."""
    if not orders:
        return "0"
    return " (+) ".join("Z/%d" % o if c == 1 else "(Z/%d)^%d" % (o, c)
                        for o, c in sorted(Counter(orders).items()))


def binomial_shifts(base: int, d: int) -> list[list[int]]:
    return [[base + i, comb(d, i)] for i in range(d + 1)]


def cokernel_payload(p: dict) -> dict:
    shifts = binomial_shifts(p["base"], p["rank"])
    j0, top = p["j0"], p["base"] + p["rank"]
    j1 = p["j1"] if p["j1"] is not None else max(top, j0)
    orders = sorted(2 ** min(max(s - j0, 0), j1 - j0) for s, m in shifts for _ in range(m))
    orders = [o for o in orders if o > 1]
    return {
        "command": "cokernel", "expr": p["expr"], "model": p["model"],
        "degree_i": p["degree"], "j0": j0, "j1": j1, "summands": shifts,
        "cokernel": {"free_rank": 0, "torsion_orders": orders},
        "cokernel_str": group_str(orders),
        "exponent": orders[-1] if orders else 1,
        "stable_exponent": 2 ** max(0, top - j0), **SCHEMA,
    }


def cohomology_payload(p: dict) -> dict:
    shifts = binomial_shifts(p["base"], p["rank"])
    j = p["j"]
    below = sum(m for s, m in shifts if s > j)
    group = " (+) ".join("Z" if j - s <= 0 else "%dZ" % 2 ** (j - s)
                         for s, m in shifts for _ in range(m))
    return {
        "command": "cohomology", "expr": p["expr"], "model": p["model"],
        "degree": p["degree"], "summands": shifts, "rank": 2 ** p["rank"],
        "at_j": {"j": j, "group": group,
                 "step": "INJECTIVE_NOT_SURJECTIVE" if below else "ISO",
                 "step_cokernel": group_str([2] * below)},
        **SCHEMA,
    }


# root rule of each family: (j-linear fold, range fold)
ROOT_RULES = {
    "open": ("open-glue-split", "open-glue-shift"),
    "closed": ("closed-glue-split", "closed-glue-five-lemma"),
    "product": ("product-sum", "product-sum"),
    "strat": ("stratified-split", "stratified-refinement"),
}


def _rules_ok(rules: list, nodes: int, root_rule: str, level: int, extra: list) -> bool:
    """Fold provenance: one rule per node in post-order, then the extra rules."""
    if len(rules) != nodes + len(extra):
        return False
    root = rules[nodes - 1]
    return (root["rule"] == root_rule and root["level"] == level
            and [r["rule"] for r in rules[nodes:]] == extra)


def rccm_entries(i: int, n: int, dim: int) -> tuple[int, list[dict]]:
    iso_from = min(i + n, dim + 1)
    entries = []
    for j in range(i - 2, max(iso_from, i) + 2):
        if j >= iso_from:
            entries.append({"j": j, "case": "ISO"})
            continue
        e = {"j": j, "image_contains_power": i + n - j}
        if j < i:
            e["image_equals_power"] = i - j
        e["case"] = ("INJECTIVE" if j == i + n - 1
                     else "IMAGE_EQUALS" if j < i else "IMAGE_CONTAINS")
        entries.append(e)
    return iso_from, entries


def tree_ok(p: dict, payload: dict) -> bool:
    qtype, j_root, r_root = p["qtype"], *ROOT_RULES[p["family"]]
    nodes, r, dim = p["nodes"], p["r"], p["dim"]
    body = {k: v for k, v in payload.items() if k != "provenance"}
    prov = payload.get("provenance")
    expected = {"command": qtype, "expr": p["text"], "dim": dim, "range_level": r, **SCHEMA}
    if qtype == "linlevel":
        expected["j_linear_level"] = p["j"]
        return (body == expected and isinstance(prov, dict)
                and _rules_ok(prov.get("j_linear", []), nodes, j_root, p["j"], [])
                and _rules_ok(prov.get("range", []), nodes, r_root, r, []))
    i = p["i"]
    assumptions = ["base field R", "smooth (asserted)"]
    if qtype == "range":
        iso_from = min(i + r, dim + 1)
        inj = i + r - 1 if i + r - 1 < iso_from else None
        cell = p["torus_rank"]
        expected.update(
            assumptions=assumptions, degree_i=i, iso_for_j_at_least=iso_from,
            injective_at_j=inj, dimension_cap_j=dim + 1,
            not_surjective=[[0, s - 1] for s in range(cell + 1)] if cell is not None and i == 0 else [],
            result="ISO for j >= %d" % iso_from + ("; INJECTIVE at j = %d" % inj if inj is not None else ""))
        extra = ["smooth-degree-conversion"]
    else:
        iso_from, entries = rccm_entries(i, r, dim)
        expected.update(assumptions=assumptions + ["valid for every line-bundle twist"],
                        degree_i=i, iso_for_j_at_least=iso_from, entries=entries)
        extra = ["smooth-degree-conversion", "graded-to-twisted-ideal", "comparison-factorization"]
    return body == expected and isinstance(prov, list) and _rules_ok(prov, nodes, r_root, r, extra)


def is_linear_extension(order: list, down: list[int]) -> bool:
    """order lists every stratum once, each before everything above it."""
    if sorted(order) != list(range(len(down))):
        return False
    return all(not (down[a] >> b & 1) for p, a in enumerate(order) for b in order[p + 1:])


def cover_pairs(down: list[int]) -> list[tuple[int, int]]:
    k = len(down)
    strict = [(a, b) for a in range(k) for b in range(k) if a != b and down[b] >> a & 1]
    return [(a, b) for a, b in strict
            if not any(m not in (a, b) and down[m] >> a & 1 and down[b] >> m & 1
                       for m in range(k))]


def stratify_expr_ok(p: dict, payload: dict) -> bool:
    strata, down = p["strata"], p["down"]
    order = payload.get("split_order")
    if not isinstance(order, list) or not is_linear_extension(order, down):
        return False
    # closed(S_o0, closed(S_o1, ... S_last)): each wrap costs one j-level
    last = strata[order[-1]]
    glue, j = last[0], last[1]
    for idx in reversed(order[:-1]):
        glue, j = "closed(%s, %s)" % (strata[idx][0], glue), 1 + max(strata[idx][1], j)
    expr = "strat(%s; %s)" % (", ".join(s[0] for s in strata),
                              ", ".join("%d<%d" % c for c in cover_pairs(down)))
    return payload == {"command": "stratify", "expr": expr, "split_order": order,
                       "glue_tree": glue, "j_linear_level": j,
                       "range_level": max(s[2] for s in strata), **SCHEMA}


def stratify_file_ok(p: dict, payload: dict) -> bool:
    order = payload.get("split_order")
    if not isinstance(order, list) or not is_linear_extension(order, p["down"]):
        return False
    return payload == {"command": "stratify", "file": p["path"],
                       "pieces": [sorted(piece) for piece in p["pieces"]],
                       "split_order": order, "replay_check": "PASS", **SCHEMA}


def venn_payload(p: dict) -> dict:
    n = p["n"]
    groups: dict[int, list] = {}
    pattern: dict[str, int] = {}
    for j, members in enumerate(p["sets"]):
        for point in members:
            pattern[point] = pattern.get(point, 0) | 1 << j
    for point, mask in pattern.items():
        groups.setdefault(mask, []).append(point)
    strata = []
    for size in range(n, 0, -1):
        for J in itertools.combinations(range(n), size):
            mask = sum(1 << j for j in J)
            strata.append({"sets": [j + 1 for j in J], "points": sorted(groups.get(mask, []))})
    return {"command": "venn", "n": n, "strata": strata, "nonempty_strata": len(groups),
            "candidate_strata": 2 ** n - 1, "partition_check": "PASS",
            "boundary_check": "PASS", "irreducibility": "declared", **SCHEMA}


PAYLOADS = {"cokernel": cokernel_payload, "cohomology": cohomology_payload, "venn": venn_payload}
CHECKS = {"tree": tree_ok, "stratify_expr": stratify_expr_ok, "stratify_file": stratify_file_ok}


def check(query, rc, stdout) -> bool:
    """Whether a query's exit code and stdout are right.

    rc is None when an exception escaped main(); any nonzero exit is
    unexpected, since every generated query is valid input.
    """
    if rc != 0 or stdout is None:
        return False
    if query.kind == "bytes":
        return stdout == query.params["stdout"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    if query.kind in PAYLOADS:
        return payload == PAYLOADS[query.kind](query.params)
    return isinstance(payload, dict) and CHECKS[query.kind](query.params, payload)
