"""Print the exit code and the sha256 digests of every CLI output over a fixed case matrix.

    python3 tools/output_digest.py [CHECKOUT]

Runs ``ssoc_certify.cli`` from ``CHECKOUT/src`` (default: the checkout holding
this script) in a temporary directory: ``certify`` over {quadrotor,
double-integrator-lq} x {trapezoidal, hermite-simpson} x N in {10, 35, 140},
one quadrotor ``certify`` at N = 280 (whose verdict rests on C_T * E near 1,
so round-off in E can flip it), one ``certify`` on the published constants with injected residuals and
curvature (the criterion-2 chain), one ``certify`` with non-default tube
radii, one ``certify`` with a loose solver tolerance, one ``sweep`` (whose
``convergence.csv`` holds alpha, threshold and the verdict per N), and three
forced-reject ``refine`` loops: one through an injected residual, one
through an injected curvature, and one that also sets the refinement
fraction and the interval cap.  ``FAILING_CASES`` must exit 1 before
writing any file, so they print their exit code alone.

A JSON output gets one digest per key path down to the second level
(``certificate.json:constants.formulas``), so a change confined to one
object shows as that line; any other file gets one digest.  Two checkouts
that print the same lines write the same certificates, trajectories,
residuals and reports.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = [
    ["certify", "--problem", problem, "--scheme", scheme, "--n", str(n)]
    for problem in ("quadrotor", "double-integrator-lq")
    for scheme in ("trapezoidal", "hermite-simpson")
    for n in (10, 35, 140)
] + [
    ["certify", "--problem", "quadrotor", "--n", "280"],
    ["certify", "--problem", "quadrotor", "--n", "35", "--paper-constants",
     "--inject-en2", "3.27e-14", "--inject-einf", "7.05e-14", "--inject-alpha", "6.29e-4"],
    ["certify", "--problem", "quadrotor", "--scheme", "trapezoidal", "--n", "35",
     "--tube-dx", "0.2", "--tube-du", "0.05", "--tube-dp", "0.2"],
    ["certify", "--problem", "double-integrator-lq", "--n", "10", "--tol", "1e-9"],
    ["sweep", "--problem", "quadrotor", "--scheme", "trapezoidal", "--n-list", "10,20"],
    ["refine", "--problem", "quadrotor", "--n", "10", "--max-rounds", "3", "--inject-en2", "1e-10"],
    ["refine", "--problem", "quadrotor", "--n", "10", "--max-rounds", "3", "--inject-alpha", "-1.0"],
    ["refine", "--problem", "quadrotor", "--n", "10", "--max-rounds", "3", "--fraction", "0.5",
     "--max-intervals", "20", "--inject-en2", "1e-10"],
]
# kept out of CASES, whose certify entries tests/test_cli.py reads certificates from
FAILING_CASES = [
    ["certify", "--problem", "quadrotor", "--tol", "0"],
    ["sweep", "--problem", "quadrotor", "--n", "5"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(path: Path):
    """(label, sha256) pairs of one output file."""
    if path.suffix != ".json":
        yield path.name, _sha(path.read_bytes())
        return
    for key, value in sorted(json.loads(path.read_text()).items()):
        items = sorted(value.items()) if isinstance(value, dict) and value else [(None, value)]
        for sub, item in items:
            label = f"{path.name}:{key}" if sub is None else f"{path.name}:{key}.{sub}"
            yield label, _sha(json.dumps(item, sort_keys=True).encode())


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        for k, case in enumerate(CASES + FAILING_CASES):
            out = Path(tmp) / str(k)
            proc = subprocess.run(
                [sys.executable, "-m", "ssoc_certify.cli", *case, "--out-dir", str(out)],
                env=env, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            print(" ".join(case), f"exit={proc.returncode}")
            for path in sorted(out.iterdir()) if out.exists() else []:
                for label, digest in digests(path):
                    print(f"  {digest}  {label}")


if __name__ == "__main__":
    main()
