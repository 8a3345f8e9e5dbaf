"""Print the exit code and the sha256 digests of every CLI output over a fixed case matrix.

    python3 tools/output_digest.py [CHECKOUT]
    python3 tools/output_digest.py CHECKOUT_A CHECKOUT_B

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

Given two checkouts, runs both and prints only the lines that differ: each
case line (its exit codes joined by ``/`` where they differ) followed by
its differing labels, ``-`` for A's digest and ``+`` for B's (``missing``
where one checkout wrote no such output).  Exits 1 on any difference and,
printing nothing, 0 when the outputs are identical.
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


def run(root: Path):
    """[(case, exit code, {label: digest})] of every case, run from ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, case in enumerate(CASES + FAILING_CASES):
            out = Path(tmp) / str(k)
            proc = subprocess.run(
                [sys.executable, "-m", "ssoc_certify.cli", *case, "--out-dir", str(out)],
                env=env, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            paths = sorted(out.iterdir()) if out.exists() else []
            labels = {label: digest for path in paths for label, digest in digests(path)}
            results.append((" ".join(case), proc.returncode, labels))
    return results


def diff(a, b):
    """The lines of :func:`run` results ``a`` and ``b`` that differ."""
    lines = []
    for (case, code_a, labels_a), (_, code_b, labels_b) in zip(a, b):
        changed = [
            f"  - {labels_a.get(label, 'missing')}  {label}\n"
            f"  + {labels_b.get(label, 'missing')}  {label}"
            for label in sorted(labels_a.keys() | labels_b.keys())
            if labels_a.get(label) != labels_b.get(label)
        ]
        if changed or code_a != code_b:
            code = code_a if code_a == code_b else f"{code_a}/{code_b}"
            lines += [f"{case} exit={code}", *changed]
    return lines


def main():
    roots = [Path(arg) for arg in sys.argv[1:]] or [Path(__file__).resolve().parent.parent]
    if len(roots) == 2:
        lines = diff(run(roots[0]), run(roots[1]))
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
    for case, code, labels in run(roots[0]):
        print(case, f"exit={code}")
        for label, digest in labels.items():
            print(f"  {digest}  {label}")


if __name__ == "__main__":
    main()
