"""Paired A/B timing of two checkouts in one process.

    python3 tools/ab_timing.py CHECKOUT_A CHECKOUT_B --workload certify-large --reps 40

Imports ``CHECKOUT_A/src/ssoc_certify`` and ``CHECKOUT_B/src/ssoc_certify``
under two distinct module names and times one pass of a perfbench workload
on each, alternating which side goes first, ``--reps`` times.  Both sides
then run on the same machine state, so slow drifts of the host (which move
separate benchmark runs by tens of percent) cancel in the per-pair ratio
B / A.  Prints the median pass time of each side with its quartiles
[q1, q3], the median of the per-pair ratios and the fraction of pairs in
which B was faster.  A median difference smaller than A's q3 - q1 lies
within A's own run-to-run spread.

The passes are those of ``perfbench/run.py``: the workload's operations,
their order shuffled from ``--seed`` (one order per pair, shared by both
sides), driven by perfbench's ``Runner``.  The BLAS pool is pinned to one
thread.  The outcomes of every pass are compared between the sides; a
mismatch is reported.
"""

import argparse
import importlib.util
import os
import random
import sys
import time
from pathlib import Path
from statistics import median

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402  (after the thread pins above)

from perfbench.workloads import WORKLOADS, Runner  # noqa: E402


def load_package(checkout: Path, name: str):
    """``checkout/src/ssoc_certify`` imported as the top-level package ``name``."""
    pkg_dir = checkout.resolve() / "src" / "ssoc_certify"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_runner(sc):
    """A perfbench ``Runner`` on package ``sc``.  The runner imports
    ``ssoc_certify`` by name, so that name points at ``sc`` while it is built."""
    saved = sys.modules.get("ssoc_certify")
    sys.modules["ssoc_certify"] = sc
    try:
        return Runner(sc)
    finally:
        if saved is None:
            del sys.modules["ssoc_certify"]
        else:
            sys.modules["ssoc_certify"] = saved


def outcomes(results):
    return [(r.op.key, repr(r.outcome)) for r in results]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    runners = [
        make_runner(load_package(root, f"ssoc_certify_{tag}"))
        for tag, root in (("a", args.checkout_a), ("b", args.checkout_b))
    ]
    for runner in runners:
        runner.warm_up()
    times = ([], [])
    differ = False
    for rep in range(args.reps):
        ops = workload.pass_order(rng)
        seen = []
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            results = runners[side].run_pass(ops)
            times[side].append(time.perf_counter() - t0)
            seen.append(outcomes(results))
        differ |= seen[0] != seen[1]
    ratios = [b / a for a, b in zip(*times)]
    print(f"workload {args.workload}, {args.reps} pairs")
    for tag, side, root in (("A", times[0], args.checkout_a), ("B", times[1], args.checkout_b)):
        q1, q3 = np.percentile(side, [25, 75])
        print(f"{tag} median pass  {median(side):.4f} s  [{q1:.4f}, {q3:.4f}]  ({root})")
    print(f"median ratio B/A  {median(ratios):.3f}")
    print(f"B faster in  {sum(r < 1.0 for r in ratios) / len(ratios):.0%} of pairs")
    if differ:
        print("outputs differ between A and B")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
