"""Seeded query pools for the benchmark workloads.

Each generator returns a Pool: the queries (argv plus the parameters
their reference answer is computed from, see check.py), the input files
to write, and the warm-up queries run during set-up.  The program under
test only ever sees the argv and the files.

Pool composition is a fixed grid; the seed picks the secondary
parameters (leaves, levels, posets, set memberships) and the order.  A
fixed grid keeps the latency percentiles on the same part of the size
distribution for every seed.
"""

from __future__ import annotations

import json
import random
import re
import shlex
from dataclasses import dataclass, field
from pathlib import Path

QTYPES = ("linlevel", "range", "rccm")


@dataclass(frozen=True)
class Query:
    kind: str  # selects the reference in check.py
    argv: tuple
    params: dict = field(default_factory=dict)


@dataclass
class Pool:
    queries: list
    files: dict = field(default_factory=dict)  # relative path -> text
    warmup: list = field(default_factory=list)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s/%d" % (workload, seed))


def gm_text(d: int) -> str:
    return "Gm" if d == 1 else "Gm^%d" % d


# ---------------------------------------------------------------- cells

# Half the pool is cokernel queries.  d=11 is 10% of them and d=10 20%,
# so over the whole pool p90 falls in the middle of the d=10 bucket
# rather than on the edge between two sizes.
COKERNEL_RANKS = [11] * 6 + [10] * 12 + [d for d in range(1, 10) for _ in range(4)] \
    + list(range(1, 7))
COHOMOLOGY_RANKS = [d for _ in range(5) for d in range(1, 12)] + list(range(1, 6))


def cell_shape(rng: random.Random, shape: str, d: int) -> dict:
    """Expression and cohomology data for one of the three cell shapes."""
    if shape == "gm":
        return {"expr": gm_text(d), "base": 0, "degree": 0, "model": "torus-cell", "rank": d}
    if shape == "agm":
        n = rng.randint(1, 3)
        return {"expr": "A^%d * %s" % (n, gm_text(d)), "base": 0, "degree": 0,
                "model": "torus-cell", "rank": d}
    c = rng.randint(1, 3)
    return {"expr": "P^%d @O(%d) * %s" % (c, c + 1, gm_text(d)), "base": c, "degree": c,
            "model": "proj-times-torus", "rank": d}


def cokernel_query(p: dict, j0: int, j1) -> Query:
    argv = ["cokernel", p["expr"], "--i", str(p["degree"]), "--j0", str(j0)]
    if j1 is not None:
        argv += ["--j1", str(j1)]
    return Query("cokernel", tuple(argv + ["--format", "json"]), dict(p, j0=j0, j1=j1))


def cohomology_query(p: dict, j: int) -> Query:
    argv = ("cohomology", p["expr"], "--j", str(j), "--format", "json")
    return Query("cohomology", argv, dict(p, j=j))


def cell_cokernels(seed: int, work: str) -> Pool:
    rng = _rng("cell_cokernels", seed)
    shapes = ("gm", "agm", "pgm")
    queries = []
    for i, d in enumerate(COKERNEL_RANKS):
        p = cell_shape(rng, shapes[i % 3], d)
        # j0 at or below the lowest shift and j1 > j0 feed every summand
        # (but at most one) to the normal form, so the cost is set by d
        j0 = p["base"] - rng.randint(0, 1)
        j1 = None if rng.random() < 0.5 else j0 + rng.randint(1, d + 1)
        queries.append(cokernel_query(p, j0, j1))
    for i, d in enumerate(COHOMOLOGY_RANKS):
        p = cell_shape(rng, shapes[i % 3], d)
        queries.append(cohomology_query(p, p["base"] + rng.randint(-1, d + 1)))
    rng.shuffle(queries)
    warmup = [cokernel_query(cell_shape(rng, "gm", 1), 0, None),
              cohomology_query(cell_shape(rng, "gm", 1), 0)]
    return Pool(queries, {}, warmup)


# ---------------------------------------------------------------- trees

@dataclass(frozen=True)
class Tree:
    """A generated tree with its closed-form answers.

    j and r are the j-linear and range levels, nodes the node count,
    family the root node kind, torus_rank the total Gm rank when the
    tree is a pure product of affine and torus cells (else None).
    """

    text: str
    j: int
    r: int
    dim: int
    nodes: int
    family: str
    torus_rank: int | None = None


def _cell_leaf(rng: random.Random) -> tuple[str, int, int]:
    """(text, level, dim) of A^m or Gm^t; both levels equal t."""
    if rng.random() < 0.5:
        m = rng.randint(0, 3)
        return "A^%d" % m, 0, m
    t = rng.randint(1, 3)
    return gm_text(t), t, t


def open_chain(rng: random.Random, depth: int) -> Tree:
    """open(...open(A^n, Z1)..., Zk): each level costs one on both levels."""
    n = rng.randint(1, 4)
    closed = ["empty"] + ["A^%d" % m for m in range(n)]
    tail = "".join(", %s)" % rng.choice(closed) for _ in range(depth))
    return Tree("open(" * depth + "A^%d" % n + tail, depth, depth, n, 2 * depth + 1, "open")


def closed_chain(rng: random.Random, depth: int) -> Tree:
    """closed() nested on a random side around Gm^e: levels (depth + e, e)."""
    e = rng.randint(1, 3)
    text, dim = gm_text(e), e
    for _ in range(depth):
        z, zdim = rng.choice((("A^0", 0), ("A^1", 1), ("A^2", 2), ("Gm", 1)))
        dim = max(dim, zdim)
        text = "closed(%s, %s)" % ((z, text) if rng.random() < 0.5 else (text, z))
    return Tree(text, depth + e, e, dim, 2 * depth + 1, "closed")


def product_chain(rng: random.Random, depth: int) -> Tree:
    """depth + 1 cells multiplied left to right: both levels are the Gm rank."""
    leaves = [_cell_leaf(rng) for _ in range(depth + 1)]
    rank = sum(level for _, level, _ in leaves)
    return Tree(" * ".join(t for t, _, _ in leaves), rank, rank,
                sum(dim for _, _, dim in leaves), 2 * depth + 1, "product", rank)


def wide_strat(rng: random.Random, k: int) -> Tree:
    """k short open chains under the discrete order: levels (k + max, max)."""
    strata = [open_chain(rng, rng.randint(1, 6)) for _ in range(k)]
    top = max(s.j for s in strata)
    return Tree("strat(%s; )" % ", ".join(s.text for s in strata), k + top, top,
                max(s.dim for s in strata), 1 + sum(s.nodes for s in strata), "strat")


def balanced_closed(rng: random.Random, height: int) -> Tree:
    """Full binary closed() tree over 2^height cells: levels (height + max, max)."""
    leaves = [_cell_leaf(rng) for _ in range(2 ** height)]
    texts = [t for t, _, _ in leaves]
    while len(texts) > 1:
        texts = ["closed(%s, %s)" % (a, b) for a, b in zip(texts[::2], texts[1::2])]
    top = max(level for _, level, _ in leaves)
    return Tree(texts[0], height + top, top, max(dim for _, _, dim in leaves),
                2 ** (height + 1) - 1, "closed")


def tree_query(rng: random.Random, qtype: str, tree: Tree, past_limit: bool = False) -> Query:
    argv = [qtype, tree.text]
    params = dict(vars(tree), qtype=qtype, past_limit=past_limit)
    if qtype != "linlevel":
        params["i"] = rng.randint(0, 1)
        argv += ["--smooth", "--i", str(params["i"])]
    return Query("tree", tuple(argv + ["--format", "json"]), params)


DEEP_FAMILIES = (open_chain, closed_chain, product_chain)


def deep_trees(seed: int, work: str) -> Pool:
    rng = _rng("deep_trees", seed)
    queries = []
    # 53 deep trees with depths spread evenly over 10..300
    for i in range(53):
        depth = 10 + 290 * i // 52
        tree = DEEP_FAMILIES[i % 3](rng, depth)
        queries.append(tree_query(rng, QTYPES[(i // 3) % 3], tree))
    # 14 linlevel queries on open chains of depth 340..360: above the
    # 3% past-limit trees they hold ranks 4..17 from the top, so p90
    # falls in the middle of this block
    for i in range(14):
        queries.append(tree_query(rng, "linlevel", open_chain(rng, 340 + 20 * i // 13)))
    # 30 wide but shallow trees: long input without depth
    for i in range(15):
        queries.append(tree_query(rng, QTYPES[i % 3], wide_strat(rng, 20 + 40 * i // 14)))
        queries.append(tree_query(rng, QTYPES[(i + 1) % 3], balanced_closed(rng, 5 + i % 4)))
    # 3 trees past the interpreter's default recursion limit
    for qtype in QTYPES:
        queries.append(tree_query(rng, qtype, open_chain(rng, rng.randint(500, 1200)), True))
    rng.shuffle(queries)
    warmup = [tree_query(rng, qtype, open_chain(rng, 10)) for qtype in QTYPES]
    return Pool(queries, {}, warmup)


# ---------------------------------------------------------------- strata

def random_poset(rng: random.Random, k: int) -> list[int]:
    """Closure bitsets of a random partial order on range(k).

    down[i] has bit a set when a lies in the closure of i (a <= i).
    Edges follow a random linear extension, so the order is acyclic.
    """
    perm = list(range(k))
    rng.shuffle(perm)
    p = min(1.0, 3.0 / k)
    down = [1 << i for i in range(k)]
    for b in range(k):
        for a in range(b):
            if rng.random() < p:
                down[perm[b]] |= down[perm[a]]
    return down


def chain_poset(k: int) -> list[int]:
    return [(1 << (i + 1)) - 1 for i in range(k)]


def strict_pairs(down: list[int]) -> list[tuple[int, int]]:
    k = len(down)
    return [(a, b) for b in range(k) for a in range(k) if a != b and down[b] >> a & 1]


_STRATA_LEAVES = (("A^0", 0, 0), ("A^1", 0, 0), ("A^2", 0, 0), ("Gm", 1, 1),
                  ("Gm^2", 2, 2), ("P^1", 1, 0), ("P^2", 2, 0))


def strat_query(rng: random.Random, down: list[int], leaves=None) -> Query:
    k = len(down)
    if leaves is None:
        leaves = [rng.choice(_STRATA_LEAVES) for _ in range(k)]
    pairs = strict_pairs(down)
    rng.shuffle(pairs)
    text = "strat(%s; %s)" % (", ".join(t for t, _, _ in leaves),
                              ", ".join("%d<%d" % p for p in pairs))
    return Query("stratify_expr", ("stratify", text, "--format", "json"),
                 {"strata": [list(x) for x in leaves], "down": down})


def realization_query(rng: random.Random, k: int, path: str) -> tuple[Query, dict]:
    down = random_poset(rng, k)
    pieces, n = [], 0
    for _ in range(k):
        size = rng.randint(1, 5)
        pieces.append(["q%03d" % (n + t) for t in range(size)])
        n += size
    ground = [p for piece in pieces for p in piece]
    rng.shuffle(ground)
    data = {"schema_version": 1, "ground": ground, "pieces": pieces,
            "closure": [[a for a in range(k) if down[i] >> a & 1] for i in range(k)]}
    query = Query("stratify_file", ("stratify", "--file", path, "--format", "json"),
                  {"path": path, "pieces": pieces, "down": down})
    return query, data


def venn_query(rng: random.Random, n: int, path: str, points: int = 200) -> tuple[Query, dict]:
    """n sets over `points` points; about 5% of the points lie in no set."""
    names = ["v%03d" % i for i in range(points)]
    sets: list[list[str]] = [[] for _ in range(n)]
    for i, name in enumerate(names):
        if i < n:
            mask = 1 << i  # every set is nonempty
        elif rng.random() < 0.05:
            continue
        else:
            mask = rng.randrange(1, 1 << n)
        for j in range(n):
            if mask >> j & 1:
                sets[j].append(name)
    data = {"schema_version": 1, "ground": names, "sets": sets}
    query = Query("venn", ("venn", str(n), "--file", path, "--format", "json"),
                  {"n": n, "sets": sets})
    return query, data


# n=11 is 5% of the pool and n=10 10%, so p90 falls in the middle of
# the n=10 block; every stratify query costs less than a venn of n=10
VENN_SIZES = [11] * 3 + [10] * 6 + [2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7]


def strata_venn(seed: int, work: str) -> Pool:
    rng = _rng("strata_venn", seed)
    queries, files = [], {}
    for i in range(20):
        queries.append(strat_query(rng, random_poset(rng, 2 + 38 * i // 19)))
        path = "%s/realization_%02d.json" % (work, i)
        q, files[path] = realization_query(rng, 2 + 38 * i // 19, path)
        queries.append(q)
        path = "%s/venn_%02d.json" % (work, i)
        q, files[path] = venn_query(rng, VENN_SIZES[i], path)
        queries.append(q)
    rng.shuffle(queries)
    warmup = [queries_of(queries, kind)[0] for kind in ("stratify_expr", "stratify_file", "venn")]
    return Pool(queries, files, warmup)


def queries_of(queries: list, kind: str) -> list:
    """Queries of one kind, smallest argv first."""
    return sorted((q for q in queries if q.kind == kind), key=lambda q: len(str(q.params)))


# ---------------------------------------------------------------- cold

# The golden JSON invocations checked bit-for-bit by the CLI tests.
GOLDEN_INVOCATIONS = (
    ("range_torus3.json", ("range", "A^0 * Gm^3", "--smooth", "--i", "0", "--format", "json")),
    ("cokernel_p2gm3.json", ("cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2",
                             "--format", "json")),
    ("venn_generic3.json", ("venn", "3", "--file", "tests/data/generic3.json",
                            "--format", "json")),
)

_README_EXAMPLE = re.compile(r"^```\n\$ wittlinear (.*?)\n(.*?)^```$", re.M | re.S)


def readme_examples(readme: str) -> list[Query]:
    """Every '$ wittlinear ...' block in the README with its printed output."""
    return [Query("bytes", tuple(shlex.split(cmd)), {"stdout": out})
            for cmd, out in _README_EXAMPLE.findall(readme)]


def cold_cli(seed: int, root: Path) -> Pool:
    queries = readme_examples((root / "README.md").read_text())
    for name, argv in GOLDEN_INVOCATIONS:
        golden = (root / "tests" / "golden" / name).read_text()
        queries.append(Query("bytes", argv, {"stdout": golden}))
    shift = seed % len(queries)
    queries = queries[shift:] + queries[:shift]
    return Pool(queries, {}, queries[:1])


# ---------------------------------------------------------------- sweep

def sweep(seed: int, work: str) -> tuple[list[tuple[str, str, Query]], dict]:
    """Fixed-size queries for the super-linear paths.

    Returns (metric, layer, query) triples and the files they read; the
    traced run reports the layer's self time per metric (None: no metric).
    """
    rng = _rng("sweep", seed)
    points, files = [], {}
    for d in (8, 10, 11):
        q = cokernel_query(cell_shape(rng, "gm", d), 0, None)
        points.append(("shifted.cokernel_ms.d%d" % d, "shifted.cokernel", q))
    for depth in (100, 300):
        points.append(("schemes.fold_ms.depth%d" % depth, "schemes.fold",
                       tree_query(rng, "linlevel", open_chain(rng, depth))))
    for s in (20, 40):
        points.append(("schemes.closure_ms.s%d" % s, "schemes.closure",
                       strat_query(rng, chain_poset(s), [("A^0", 0, 0)] * s)))
    # layers without a size series still get one call in every traced run
    points.append((None, "ranges.rccm", tree_query(rng, "rccm", open_chain(rng, 100))))
    points.append((None, "shifted.describe", cohomology_query(cell_shape(rng, "gm", 8), 2)))
    for n in (8, 10, 11):
        path = "%s/sweep_venn_%02d.json" % (work, n)
        q, files[path] = venn_query(rng, n, path)
        points.append(("schemes.venn_ms.n%d" % n, "schemes.venn", q))
    return points, files


WARM = {"cell_cokernels": cell_cokernels, "deep_trees": deep_trees, "strata_venn": strata_venn}
WORKLOADS = tuple(WARM) + ("cold_cli",)


def write_files(files: dict, root: Path) -> None:
    for path, data in files.items():
        (root / path).write_text(json.dumps(data))
