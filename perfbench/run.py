"""Benchmark for the wittlinear command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this
directory.  Each workload is a closed loop with one client: the warm
ones call wittlinear.cli.main(argv) in this process with stdout
captured, cold_cli starts `python -m wittlinear` children one at a time.
Every answer is checked against check.py.  The last line of stdout is
one JSON object: with --trace 0 it holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones, measured on a
separate traced pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 7
MIN_ATTEMPTS = 100  # so that p90 has at least ten samples beyond it
MAX_LOOP_SECONDS = 150
SWEEP_REPEATS = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 60


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; failures enter as +inf."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def import_cli():
    """Import wittlinear.cli afresh from src/ and return its main()."""
    for name in [n for n in sys.modules if n == "wittlinear" or n.startswith("wittlinear.")]:
        del sys.modules[name]
    cli = importlib.import_module("wittlinear.cli")
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "wittlinear").resolve():
        raise RuntimeError("wittlinear was imported from %s, not src/" % cli.__file__)
    return cli.main


def run_warm(main, argv) -> tuple[int | None, str | None, float]:
    """(exit code, stdout, seconds) of one in-process query.

    The exit code is None when an exception escaped main().
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc = None
        elapsed = time.perf_counter() - start
    return rc, (out.getvalue() if rc is not None else None), elapsed


def run_cold(argv, env) -> tuple[int | None, str | None, float]:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "wittlinear", *argv], cwd=ROOT, env=env,
                              capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, None, time.perf_counter() - start
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), time.perf_counter() - start


def digest(out: str | None) -> bytes | None:
    return hashlib.sha256(out.encode()).digest() if out is not None else None


class Verifier:
    """check.check() with a cache: a repeat of verified bytes is correct."""

    def __init__(self):
        self.verified: dict[int, bytes] = {}
        self.failed = 0
        self.wrong = 0  # exit 0 with a wrong answer

    def __call__(self, key: int, query, rc, out) -> bool:
        out_digest = digest(out)
        ok = rc == 0 and out_digest is not None and (
            self.verified.get(key) == out_digest or check.check(query, rc, out))
        if ok:
            self.verified[key] = out_digest
        else:
            self.failed += 1
            self.wrong += rc == 0
        return ok


def setup(name: str, seed: int, work: str, cold: bool):
    """Imports, input generation, input files and warm-up."""
    if cold:
        pool = workloads.cold_cli(seed, ROOT)
        env = child_env()
        for q in pool.warmup:
            run_cold(q.argv, env)
        return None, pool
    main = import_cli()
    pool = (workloads.cold_cli(seed, ROOT) if name == "cold_cli"
            else workloads.WARM[name](seed, work))
    workloads.write_files(pool.files, ROOT)
    for q in pool.warmup:
        run_warm(main, q.argv)
    return main, pool


def timed_run(pool, run_one, seconds: float, cold: bool) -> dict:
    verify = Verifier()
    latencies: list[float] = []
    busy = 0.0
    start = time.perf_counter()
    while True:
        key = len(latencies) % len(pool.queries)
        elapsed = time.perf_counter() - start
        # stop on a pass boundary, so every run weighs the pool's sizes alike
        if elapsed >= MAX_LOOP_SECONDS or (
                key == 0 and elapsed >= seconds and len(latencies) >= MIN_ATTEMPTS):
            break
        query = pool.queries[key]
        rc, out, dt = run_one(query.argv)
        busy += dt
        latencies.append(dt if verify(key, query, rc, out) else math.inf)
    attempted = len(latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    return {
        "attempted": attempted, "failed": verify.failed, "wrong": verify.wrong,
        "values": {
            "queries_per_s": attempted / busy,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "success_ratio": (attempted - verify.failed) / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        },
    }


def import_times(env: dict) -> tuple[float, float]:
    """Median ms of importing wittlinear.cli (-X importtime) and of a bare start."""
    package, interpreter = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wittlinear.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            # top-level entries only: nested ones are indented further
            if len(fields) == 3 and fields[2].startswith(" wittlinear"):
                us += int(fields[1])
        if proc.returncode != 0 or us == 0:
            raise RuntimeError("import wittlinear.cli failed: %s" % proc.stderr[-500:])
        package.append(us / 1e3)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                       capture_output=True, timeout=CHILD_TIMEOUT, check=True)
        interpreter.append((time.perf_counter() - start) * 1e3)
    return statistics.median(package), statistics.median(interpreter)


# per-layer time metrics: metric -> span layer
LAYER_TIMES = {
    "cli.self_ms": "cli",
    "grammar.parse_ms": "grammar.parse",
    "grammar.pretty_ms": "grammar.pretty",
    "schemes.fold_ms": "schemes.fold",
    "schemes.closure_ms": "schemes.closure",
    "schemes.split_ms": "schemes.split",
    "schemes.venn_ms": "schemes.venn",
    "cells.cohomology_ms": "cells.cohomology",
    "shifted.cokernel_ms": "shifted.cokernel",
    "shifted.describe_ms": "shifted.describe",
    "shifted.step_ms": "shifted.step",
    "ranges.sheaf_range_ms": "ranges.sheaf_range",
    "ranges.rccm_ms": "ranges.rccm",
}
COUNTS = ("grammar.input_chars", "schemes.rules_emitted", "schemes.closure_pairs",
          "schemes.venn_candidates", "schemes.venn_nonempty", "cells.summands",
          "shifted.cyclic_factors", "shifted.invariant_factors", "shifted.describe_chars")


def traced_run(main, pool, seed: int, work: str) -> dict:
    """Untraced and traced passes over the pool, then the size sweep.

    The work is fixed by the seed, so counts repeat exactly.  Layer
    sums cover the traced pass and the sweep.
    """
    points, files = workloads.sweep(seed, work)
    workloads.write_files(files, ROOT)
    verify = Verifier()
    tracer = Tracer()
    output_bytes = 0

    def traced_main(argv):
        return tracer.call("cli", main, (argv,))

    def plain_run(key, query):
        return run_warm(main, query.argv)[:2]

    def checked_run(key, query):
        nonlocal output_bytes
        rc, out, _ = run_warm(traced_main, query.argv)
        verify(key, query, rc, out)
        output_bytes += len(out.encode()) if out is not None else 0
        return rc, out

    def one_pass(run_one):
        results = []
        for key, query in enumerate(pool.queries):
            rc, out = run_one(key, query)
            results.append((rc, digest(out)))
        return results

    one_pass(plain_run)  # fills caches, so the untraced pass is not the first
    start = time.perf_counter()
    plain = one_pass(plain_run)
    untraced_wall = time.perf_counter() - start
    series: dict[str, list[float]] = {}
    tracer.install()
    try:
        start = time.perf_counter()
        traced = one_pass(checked_run)
        traced_wall = time.perf_counter() - start
        for key, (metric, layer, query) in enumerate(points, len(pool.queries)):
            for _ in range(SWEEP_REPEATS):
                mark = tracer.mark()
                checked_run(key, query)
                series.setdefault(metric, []).append(tracer.self_ns(mark)[layer] / 1e6)
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(plain, traced))
    self_ns = tracer.self_ns()
    counts = tracer.counts
    values = {metric: self_ns.get(layer, 0) / 1e6 for metric, layer in LAYER_TIMES.items()}
    values.update({name: counts[name] for name in COUNTS})
    values["cli.output_bytes"] = output_bytes
    values["schemes.venn_useful_ratio"] = (counts["schemes.venn_nonempty"]
                                           / counts["schemes.venn_candidates"])
    values.update({metric: statistics.median(ms) for metric, ms in series.items() if metric})
    values["trace_overhead_ratio"] = traced_wall / untraced_wall
    values["import.wittlinear_ms"], values["import.interpreter_ms"] = import_times(child_env())
    attempted = len(pool.queries) + len(points) * SWEEP_REPEATS
    if mismatched:
        print("perfbench: %d queries printed other bytes when traced" % mismatched,
              file=sys.stderr)
    return {"attempted": attempted, "failed": verify.failed,
            "wrong": verify.wrong + mismatched, "values": values}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wittlinear" / "__init__.py").is_file():
        print("perfbench: no package at %s" % (ROOT / "src" / "wittlinear"), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    cold = args.workload == "cold_cli" and not args.trace
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            main_fn, pool = setup(args.workload, args.seed, work_dir.name, cold)
            setup_seconds.append(time.perf_counter() - start)
        if args.trace:
            result = traced_run(main_fn, pool, args.seed, work_dir.name)
        else:
            env = child_env()
            run_one = ((lambda argv: run_cold(argv, env)) if cold
                       else (lambda argv: run_warm(main_fn, argv)))
            result = timed_run(pool, run_one, args.seconds, cold)
            result["values"]["setup_s"] = statistics.median(setup_seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = result["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(bool(args.trace))}
    print("workload %s  seed %d  attempted %d  failed %d  fail_ratio %.4f"
          % (args.workload, args.seed, result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
