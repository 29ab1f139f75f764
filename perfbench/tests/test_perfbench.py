"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import inspect
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def cli_main():
    return run.import_cli()


def small_queries(work: str) -> tuple[list, dict]:
    """The smallest query of every kind, and the files they read."""
    queries, files = [], {}
    for make in workloads.WARM.values():
        pool = make(3, work)
        files.update(pool.files)
        for kind in sorted({q.kind for q in pool.queries}):
            queries.append(workloads.queries_of(pool.queries, kind)[0])
    queries += workloads.cold_cli(3, run.ROOT).queries[:2]
    return queries, files


@pytest.fixture
def queries(monkeypatch):
    """Small queries with their files in a scratch directory of the checkout."""
    monkeypatch.chdir(run.ROOT)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        found, files = small_queries(work.name)
        workloads.write_files(files, run.ROOT)
        yield found
    finally:
        shutil.rmtree(work)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic(name):
    def make(seed):
        if name == "cold_cli":
            return workloads.cold_cli(seed, run.ROOT)
        return workloads.WARM[name](seed, "work")

    assert make(5) == make(5)
    if name != "cold_cli":  # cold_cli only rotates its fixed invocations
        assert make(5).queries != make(6).queries
    assert workloads.sweep(5, "work") == workloads.sweep(5, "work")


def test_pools_keep_their_size_grid():
    cells = workloads.cell_cokernels(1, "w").queries
    cokernel_ranks = sorted(q.params["rank"] for q in cells if q.kind == "cokernel")
    assert cokernel_ranks == sorted(workloads.COKERNEL_RANKS)
    trees = workloads.deep_trees(1, "w").queries
    assert sum(q.params["past_limit"] for q in trees) == 3
    assert len(workloads.cold_cli(1, run.ROOT).queries) == 10


def tamper(value):
    """A copy of a JSON value with its first number or string changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return [tamper(value[0])] + value[1:] if value else [0]
    for key in sorted(value):
        if key != "schema_version":
            return {**value, key: tamper(value[key])}
    return value


def test_checker_accepts_real_and_rejects_tampered_answers(cli_main, queries):
    kinds = set()
    for query in queries:
        rc, out, _ = run.run_warm(cli_main, query.argv)
        assert check.check(query, rc, out), query.argv
        if query.kind == "bytes":
            bad = out.replace("\n", " \n", 1)
        else:
            payload = json.loads(out)
            bad = json.dumps(tamper(payload), indent=2, sort_keys=True) + "\n"
        verify = run.Verifier()
        assert not verify(0, query, rc, bad)
        assert (verify.failed, verify.wrong) == (1, 1)
        assert not check.check(query, 2, out)
        assert not check.check(query, None, None)
        kinds.add(query.kind)
    assert kinds == {"cokernel", "cohomology", "tree", "stratify_expr",
                     "stratify_file", "venn", "bytes"}


def test_past_limit_tree_fails_without_aborting(cli_main):
    query = next(q for q in workloads.deep_trees(1, "w").queries if q.params["past_limit"])
    rc, out, _ = run.run_warm(cli_main, query.argv)
    verify = run.Verifier()
    assert not verify(0, query, rc, out)
    assert (verify.failed, verify.wrong) == (1, 0)


def test_percentile_counts_failures_as_infinite():
    ok = [float(i) for i in range(1, 101)]
    assert run.percentile(ok, 50) == 50.0
    assert run.percentile(ok, 90) == 90.0
    failed = ok[:-9] + [math.inf] * 9
    assert run.percentile(failed, 90) == 90.0
    # turning a fast success into a failure can only raise a percentile
    worse = [math.inf] + ok[1:]
    assert run.percentile(worse, 50) >= run.percentile(ok, 50)
    assert run.percentile(worse, 90) >= run.percentile(ok, 90)
    assert run.percentile(ok[:89] + [math.inf] * 11, 90) == math.inf


def _bindings():
    """Every function-valued attribute of the package and its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "wittlinear" or name.startswith("wittlinear."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_restore_originals(cli_main):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        replaced = {key for key in before if during[key] is not before[key]}
        assert ("wittlinear.cli", "pretty") in replaced
        assert ("wittlinear.ranges", "range_level_with_rules") in replaced
        assert ("wittlinear.schemes", "ClosureOrder", "from_pairs") in replaced
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_and_untraced_stdout_match(cli_main, queries):
    tracer = Tracer()
    plain = [run.run_warm(cli_main, q.argv)[:2] for q in queries]
    tracer.install()
    try:
        traced = [run.run_warm(lambda argv: tracer.call("cli", cli_main, (argv,)), q.argv)[:2]
                  for q in queries]
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = set(tracer.self_ns())
    assert {"cli", "grammar.parse", "schemes.fold", "schemes.venn",
            "shifted.cokernel", "ranges.rccm"} <= layers


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 60, 0], ["b", 20, 30, 1]]
    assert dict(tracer.self_ns()) == {"a": 60, "b": 30, "c": 10}
