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
from dataclasses import fields
from pathlib import Path

import numpy as np

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


def _setting(p, flag, dest, type=float, **kwargs):
    # stored under the name of its settings field; the metavar stays the flag's
    metavar = flag[2:].replace("-", "_").upper()
    p.add_argument(flag, dest=dest, metavar=metavar, type=type, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssoc-certify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser

    sub.add_parser("list", help="list builtin problems and schemes")

    def command(name, help, one_mesh=True):
        # a flag without a default is stored only when given, so the settings
        # objects keep the one copy of each default; sweep takes its meshes
        # from --n-list instead of --n, which no abbreviation may reach
        p = sub.add_parser(
            name, help=help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        p.add_argument("--problem", required=True, help="builtin problem name")
        if one_mesh:
            p.add_argument("--n", type=int, default=20, help="number of mesh intervals")
        p.add_argument(
            "--scheme",
            default="hermite-simpson",
            choices=sorted(transcription.SCHEMES),
        )
        _setting(p, "--tol", "tolerance", help="solver KKT tolerance")
        _setting(p, "--tube-dx", "dx")
        _setting(p, "--tube-du", "du")
        _setting(p, "--tube-dp", "dp")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument(
            "--paper-constants",
            action="store_true",
            help="substitute the published benchmark constants for the estimated ones",
        )
        _setting(p, "--inject-en2", "inject_e_n2",
                 help="use this value as the certified residual aggregate")
        _setting(p, "--inject-einf", "inject_e_inf",
                 help="use this value as the sup residual in the proximity check")
        _setting(p, "--inject-alpha", "inject_alpha",
                 help="use this value as the discrete reduced curvature")
        return p

    command("certify", "one solve + certification pass")
    p_sweep = command("sweep", "certification across mesh sizes", one_mesh=False)
    p_sweep.add_argument(
        "--n-list",
        default="10,15,20,25,30,35",
        help="comma separated ascending interval counts",
    )
    p_ref = command("refine", "certify-or-refine loop")
    p_ref.add_argument("--fraction", type=float)
    p_ref.add_argument("--max-rounds", type=int)
    _setting(p_ref, "--max-intervals", "max_total_intervals", type=int)
    return parser


def _given(args, cls):
    """The fields of the dataclass ``cls`` that the command line set."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _json_dump(payload, path: Path):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trajectory(run, path: Path):
    rec = run.rec
    nodes = rec.mesh.nodes
    grid = np.linspace(nodes[:-1], nodes[1:], 10, endpoint=False, axis=1)  # 10 per interval
    ts = np.append(grid, nodes[-1])
    X, U, P = (f.eval(ts) for f in (rec.X, rec.U, rec.P))
    header = ["t"] + [
        f"{name}_{i + 1}" for name, f in (("x", X), ("u", U), ("p", P)) for i in range(f.shape[1])
    ]
    rows = np.column_stack([ts, X, U, P])
    _write_csv(path, header, ([repr(float(v)) for v in row] for row in rows))


def cmd_list() -> int:
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


def cmd_certify(args, prob, settings, out: Path) -> int:
    run = certify.run_certification(prob, args.mesh, args.scheme, settings=settings)
    _json_dump(run.certificate.to_dict(), out / "certificate.json")
    _write_trajectory(run, out / "trajectory.csv")
    nodes = run.rec.mesh.nodes
    rows = (
        [k, repr(float(nodes[k])), repr(float(nodes[k + 1])), repr(dyn), repr(stat)]
        for k, dyn, stat in run.residual_report.per_interval
    )
    _write_csv(out / "residuals.csv", ["k", "t_left", "t_right", "dyn_l2", "stat_l2"], rows)
    return EXIT_ACCEPTED if run.certificate.accepted else EXIT_REJECTED


def cmd_sweep(args, prob, settings, out: Path) -> int:
    rows = []
    for n in args.n_list:
        try:
            mesh = transcription.Mesh.uniform(prob.T, n)
            run = certify.run_certification(prob, mesh, args.scheme, settings=settings)
            rep, cert = run.residual_report, run.certificate
            values = (rep.E_N2, rep.E_inf, cert.alpha_hat, cert.threshold)
            rows.append([n, *map(repr, values), str(cert.accepted).lower(), "ok"])
        except SsocError as err:
            rows.append([n, "", "", "", "", "false", f"error: {err}"])
    header = ["N", "E_N2", "E_inf", "alpha_hat", "threshold", "accepted", "status"]
    _write_csv(out / "convergence.csv", header, rows)
    all_ok = all(row[6] == "ok" and row[5] == "true" for row in rows)
    return EXIT_ACCEPTED if all_ok else EXIT_REJECTED


def cmd_refine(args, prob, settings, out: Path) -> int:
    result = refine.certify_loop(
        prob, args.mesh, args.scheme, policy=args.policy, settings=settings
    )
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
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the subcommand's parser reports them, so its usage line shows
            parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "list":
        return cmd_list()
    handlers = {"certify": cmd_certify, "sweep": cmd_sweep, "refine": cmd_refine}
    try:
        # every input is checked before the output directory exists; invalid
        # input is an error of the whole command, not a rejected sweep row
        if args.command == "sweep":
            args.n_list = _parse_n_list(args.n_list)
        if args.command == "refine":
            args.policy = refine.RefinePolicy(**_given(args, refine.RefinePolicy))
        tube = TubeSpec(**_given(args, TubeSpec))
        settings = certify.CertifySettings(tube=tube, **_given(args, certify.CertifySettings))
        prob = model.builtin_problem(args.problem)
        if args.command != "sweep":
            args.mesh = transcription.Mesh.uniform(prob.T, args.n)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, prob, settings, out)
    except SsocError as err:
        sys.stderr.write(f"error: {err}\n")
        if hasattr(err, "report"):
            sys.stderr.write(f"solver report: {err.report.to_dict()}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
