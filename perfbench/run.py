"""Certification benchmark: run one workload against the library, report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: the next operation starts only after
the previous one returned.  The BLAS pool is pinned to one thread.  A run
repeats whole passes of the workload's operation list: at least
``round(seconds / nominal pass time)`` of them, and more while another pass
still fits into ``--seconds``.  Every operation's output is checked
against ``reference.json``.

``--trace 0`` reports the end-to-end metrics; set-up is timed first in
fresh child processes.  ``--trace 1`` alternates untraced and traced
passes over the same operation order and reports the per-layer metrics
from the traced ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from collections import defaultdict
from statistics import median

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import bootstrap  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
SHOWN_PROBLEMS = 5


def measure_setup(root: Path, runs: int) -> list:
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def tail(samples):
    """The highest-ranked sample with at least ten samples beyond it, and its percentile.

    With ten samples or fewer no such sample exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    pkg = root / "src" / bootstrap.PACKAGE
    for path in sorted(pkg.rglob("*.py")):
        digest.update(path.relative_to(pkg).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    """Machine, library versions, BLAS build and threads, and the code under test."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pinned": bootstrap.BLAS_THREADS,
        "blas_threads_in_use": bootstrap.blas_threads_in_use(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


class Tally:
    """Attempted, failed and verdict-flipped operations over a run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.verdict_flips = 0
        self.problems = []

    def add(self, results):
        for r in results:
            check = compare.check(self.reference[r.op.key], r.outcome)
            self.attempted += 1
            self.failed += not check.ok
            self.verdict_flips += check.verdict_flips
            self.problems.extend(f"{r.op.key}: {p}" for p in check.problems)


def timed_pass(runner, ops):
    t0 = time.perf_counter()
    results = runner.run_pass(ops)
    return time.perf_counter() - t0, results


def measure(runner, workload, tally, rng, seconds):
    """Untraced passes: pass wall times, and the seconds of each certification
    pass keyed by operation and round."""
    walls, op_seconds = [], defaultdict(list)
    start = time.perf_counter()
    while True:
        wall, results = timed_pass(runner, workload.pass_order(rng))
        walls.append(wall)
        for r in results:
            for i, s in enumerate(r.pass_seconds):
                op_seconds[r.op.key, i].append(s)
        tally.add(results)
        elapsed = time.perf_counter() - start
        if len(walls) >= workload.min_passes(seconds) and elapsed + median(walls) > seconds:
            return walls, op_seconds


def measure_traced(runner, workload, tally, rng, seconds, trace):
    """Pairs of an untraced and a traced pass over the same operation order."""
    plain, traced, pairs = [], [], []
    start = time.perf_counter()
    while True:
        ops = workload.pass_order(rng)
        wall, results = timed_pass(runner, ops)
        plain.append(wall)
        tally.add(results)
        with trace:
            wall, results = timed_pass(runner, ops)
        traced.append(wall)
        tally.add(results)
        pairs.append(plain[-1] + traced[-1])
        if time.perf_counter() - start + median(pairs) > seconds:
            return plain, traced


def emit(tally, metrics):
    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print(f"mismatch  {problem}")
    if len(tally.problems) > SHOWN_PROBLEMS:
        print(f"mismatch  ... {len(tally.problems) - SHOWN_PROBLEMS} more")
    print(
        f"{'fail_frac':<30} {tally.failed / tally.attempted:.6g}"
        f"  ({tally.failed} of {tally.attempted} operations)"
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(runner, workload, tally, rng, seconds, setup):
    walls, op_seconds = measure(runner, workload, tally, rng, seconds)
    samples = [s for repeats in op_seconds.values() for s in repeats]
    op_tail, pct = tail(samples)
    metrics = {
        "wall_s": (median(walls), "s"),
        "op_s.p50": (median(median(repeats) for repeats in op_seconds.values()), "s"),
        "op_s.tail": (op_tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup), "s"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes",
        "op_s.p50": f"median over {len(op_seconds)} certification passes of each one's median",
        "op_s.tail": f"p{pct:.1f} of {len(samples)} samples"
        + ("" if len(samples) > 10 else ": fewer than 11 samples, maximum"),
        "setup_s": f"median of {len(setup)} fresh processes",
    }
    return metrics, notes


def per_layer(runner, workload, tally, rng, seconds):
    import tracer

    trace = tracer.Trace()
    plain, traced = measure_traced(runner, workload, tally, rng, seconds, trace)
    passes = len(traced)
    metrics = trace.layer_metrics(passes)
    metrics["certify.verdict_flips"] = (tally.verdict_flips / (2 * passes), "count")
    metrics["trace.overhead_frac"] = (median(traced) / median(plain) - 1.0, "ratio")
    _, by_layer, root_s = trace.self_times()
    print("layer self-time shares: " + ", ".join(
        f"{layer} {100 * by_layer[layer] / root_s:.1f}%"
        for layer in sorted(by_layer, key=by_layer.get, reverse=True)
    ))
    notes = {"trace.overhead_frac": f"{passes} traced and {passes} untraced passes, {len(trace.spans)} spans"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.pin_blas()
    root = bootstrap.checkout_root()
    try:
        sc = bootstrap.import_package(root)
    except bootstrap.CheckoutError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally(compare.load_reference())
    rng = random.Random(args.seed)

    run_info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("provenance " + json.dumps({**run_info, **provenance(root)}, sort_keys=True))
    setup = [] if args.trace else measure_setup(root, SETUP_RUNS)
    runner = workloads.Runner(sc)
    runner.warm_up()
    if args.trace:
        metrics, notes = per_layer(runner, workload, tally, rng, args.seconds)
    else:
        metrics, notes = end_to_end(runner, workload, tally, rng, args.seconds, setup)

    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:<30} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if not args.trace:
        print(f"{'verdict flips':<30} {tally.verdict_flips} over {tally.attempted} operations"
              "  (verdict differs from the reference; not a failure)")
    emit(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
