"""Write reference.json: the outputs of every benchmark operation.

Run once, on the commit the reference should describe, with the BLAS pool
pinned as in the benchmark:

    python3 perfbench/make_reference.py

Regenerating the reference to make a failing run pass defeats its
purpose; a change that moves a checked output on purpose says so and
shows the old and new values.
"""

import json
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import bootstrap  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    bootstrap.pin_blas()
    root = bootstrap.checkout_root()
    sc = bootstrap.import_package(root)
    runner = workloads.Runner(sc)
    runner.warm_up()
    ops = {op.key: op for w in workloads.WORKLOADS.values() for op in w.ops}
    reference = {}
    for result in runner.run_pass(list(ops.values())):
        if isinstance(result.outcome, BaseException):
            raise result.outcome
        reference[result.op.key] = result.outcome
    payload = {"generated_with": run.provenance(root), "rel_tol": compare.REL_TOL, "ops": reference}
    compare.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(reference)} operations to {compare.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
