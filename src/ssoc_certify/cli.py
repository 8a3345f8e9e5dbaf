"""Command line front end: list | certify | sweep | refine.

Exit codes: 0 accepted, 2 rejected, 1 any error (including usage errors).
File outputs are plain JSON and CSV; repeated runs with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import certify, model, refine, transcription
from .constants import TubeSpec
from .errors import SettingsError, SsocError

EXIT_ACCEPTED = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # "rejected" exit code; route everything through 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssoc-certify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin problems and schemes")

    def common(p):
        p.add_argument("--problem", required=True, help="builtin problem name")
        p.add_argument("--n", type=int, default=20, help="number of mesh intervals")
        p.add_argument(
            "--scheme",
            default="hermite-simpson",
            choices=sorted(transcription.SCHEMES),
        )
        p.add_argument("--tol", type=float, default=1e-12, help="solver KKT tolerance")
        p.add_argument("--tube-dx", type=float, default=0.1)
        p.add_argument("--tube-du", type=float, default=0.1)
        p.add_argument("--tube-dp", type=float, default=0.1)
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument(
            "--paper-constants",
            action="store_true",
            help="substitute the published benchmark constants for the estimated ones",
        )
        p.add_argument("--inject-en2", type=float, default=None,
                       help="use this value as the certified residual aggregate")
        p.add_argument("--inject-einf", type=float, default=None,
                       help="use this value as the sup residual in the proximity check")
        p.add_argument("--inject-alpha", type=float, default=None,
                       help="use this value as the discrete reduced curvature")

    p_cert = sub.add_parser("certify", help="one solve + certification pass")
    common(p_cert)

    p_sweep = sub.add_parser("sweep", help="certification across mesh sizes")
    common(p_sweep)
    p_sweep.add_argument(
        "--n-list",
        default="10,15,20,25,30,35",
        help="comma separated ascending interval counts",
    )

    p_ref = sub.add_parser("refine", help="certify-or-refine loop")
    common(p_ref)
    p_ref.add_argument("--fraction", type=float, default=0.3)
    p_ref.add_argument("--max-rounds", type=int, default=8)
    p_ref.add_argument("--max-intervals", type=int, default=400)
    return parser


def _settings_from_args(args):
    """The certification settings; SettingsError on bad values."""
    return certify.CertifySettings(
        tolerance=args.tol,
        tube=TubeSpec(dx=args.tube_dx, du=args.tube_du, dp=args.tube_dp),
        paper_constants=args.paper_constants,
        inject_e_n2=args.inject_en2,
        inject_e_inf=args.inject_einf,
        inject_alpha=args.inject_alpha,
    )


def _json_dump(payload, path: Path):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trajectory(run, path: Path, samples_per_interval=10):
    import numpy as np

    rec = run.rec
    nodes = rec.mesh.nodes
    ts = []
    for k in range(rec.mesh.n_intervals):
        ts.append(np.linspace(nodes[k], nodes[k + 1], samples_per_interval, endpoint=False))
    ts.append(np.array([nodes[-1]]))
    ts = np.concatenate(ts)
    X = rec.X.eval(ts)
    U = rec.U.eval(ts)
    P = rec.P.eval(ts)
    n, m = X.shape[1], U.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"u_{j + 1}" for j in range(m)]
            + [f"p_{i + 1}" for i in range(n)]
        )
        for row in range(ts.size):
            writer.writerow(
                [repr(float(ts[row]))]
                + [repr(float(v)) for v in X[row]]
                + [repr(float(v)) for v in U[row]]
                + [repr(float(v)) for v in P[row]]
            )


def _write_residuals(run, path: Path):
    nodes = run.rec.mesh.nodes
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "t_left", "t_right", "dyn_l2", "stat_l2"])
        for (k, dyn, stat) in run.residual_report.per_interval:
            writer.writerow(
                [k, repr(float(nodes[k])), repr(float(nodes[k + 1])), repr(dyn), repr(stat)]
            )


def cmd_list(_args) -> int:
    print("problems:")
    for name in model.builtin_names():
        print(f"  {name}")
    print("schemes:")
    for name in sorted(transcription.SCHEMES):
        print(f"  {name}")
    return EXIT_ACCEPTED


def _parse_n_list(text):
    try:
        n_list = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        n_list = []
    if not n_list or n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SettingsError(
            "--n-list must be comma separated ascending interval counts >= 1, "
            f"got {text!r}"
        )
    return n_list


def _run_single(prob, scheme, n, settings):
    mesh = transcription.Mesh.uniform(prob.T, n)
    return certify.run_certification(prob, mesh, scheme, settings=settings)


def cmd_certify(args) -> int:
    settings = _settings_from_args(args)
    prob = model.builtin_problem(args.problem)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_single(prob, args.scheme, args.n, settings)
    _json_dump(run.certificate.to_dict(), out / "certificate.json")
    _write_trajectory(run, out / "trajectory.csv")
    _write_residuals(run, out / "residuals.csv")
    return EXIT_ACCEPTED if run.certificate.accepted else EXIT_REJECTED


def cmd_sweep(args) -> int:
    # invalid input is an error of the whole command, not a rejected row
    n_list = _parse_n_list(args.n_list)
    settings = _settings_from_args(args)
    prob = model.builtin_problem(args.problem)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in n_list:
        try:
            run = _run_single(prob, args.scheme, n, settings)
            cert = run.certificate
            rows.append(
                [
                    n,
                    repr(run.residual_report.E_N2),
                    repr(run.residual_report.E_inf),
                    repr(cert.alpha_hat),
                    repr(cert.threshold),
                    str(cert.accepted).lower(),
                    "ok",
                ]
            )
        except SsocError as err:
            rows.append([n, "", "", "", "", "false", f"error: {err}"])
    with (out / "convergence.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "E_N2", "E_inf", "alpha_hat", "threshold", "accepted", "status"])
        writer.writerows(rows)
    all_ok = all(row[6] == "ok" and row[5] == "true" for row in rows)
    return EXIT_ACCEPTED if all_ok else EXIT_REJECTED


def cmd_refine(args) -> int:
    policy = refine.RefinePolicy(
        fraction=args.fraction,
        max_rounds=args.max_rounds,
        max_total_intervals=args.max_intervals,
    )
    settings = _settings_from_args(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prob = model.builtin_problem(args.problem)
    mesh = transcription.Mesh.uniform(prob.T, args.n)
    result = refine.certify_loop(prob, mesh, args.scheme, policy=policy, settings=settings)
    payload = {
        "termination": result.termination,
        "rounds": [s.to_dict() for s in result.history],
        "final_certificate": result.certificate.to_dict(),
    }
    _json_dump(payload, out / "report.json")
    return EXIT_ACCEPTED if result.certificate.accepted else EXIT_REJECTED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "list": cmd_list,
        "certify": cmd_certify,
        "sweep": cmd_sweep,
        "refine": cmd_refine,
    }
    try:
        return handlers[args.command](args)
    except SsocError as err:
        sys.stderr.write(f"error: {err}\n")
        if hasattr(err, "report"):
            sys.stderr.write(f"solver report: {err.report.to_dict()}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
