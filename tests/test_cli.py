import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ssoc_certify import cli, solver
from ssoc_certify import constants as cn
from ssoc_certify.transcription import Mesh, parse_scheme

_DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _DIGEST)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

CERTIFICATE_KEYS = {
    "accepted", "alpha_cont", "alpha_hat", "alpha_hat_euclidean", "certified_e_n2",
    "certified_e_source", "constants", "lhs", "projection_margin", "provenance",
    "proximity", "reject_reason", "residuals", "threshold", "trust_radius",
}
SETTINGS_KEYS = {
    "inject_alpha", "inject_e_inf", "inject_e_n2", "paper_constants", "tolerance",
}
RESIDUALS_KEYS = {
    "E_N2", "E_N2_node", "E_inf", "E_inf_basic", "e_adj_inf", "e_bc", "e_dyn_L2",
    "e_dyn_inf", "e_dyn_node_L2", "e_stat_L2", "e_stat_inf", "e_stat_node_L2",
    "kkt_node_inf", "per_interval",
}
PROXIMITY_KEYS = {"C_close_E_inf", "e_inf_used", "ok"}
CONSTANTS_KEYS = {
    "A_inf", "B_inf", "C_T", "C_Tprime", "C_close_inf", "C_geo", "C_int",
    "C_quad", "C_u_inf", "C_xp_inf", "Gamma", "Gamma_tot", "H_up_inf", "H_ux_inf", "L2",
    "L21_H", "L21_K", "L21_L", "L21_f", "Lambda", "M2f", "P_max", "c_Pi",
    "formulas", "paper_constants", "rho", "safety_factor", "sigma_min_Mh", "tube",
}
FORMULA_KEYS = {
    "C_int", "L21_H", "C_geo", "C_T", "C_quad", "C_Tprime", "Gamma", "Lambda", "C_xp_inf",
    "C_u_inf", "C_close_inf", "Gamma_tot", "L21_f", "L21_L", "L21_K", "rho", "H_ux_inf",
    "P_max",
}


def run_cli(args):
    return cli.main(args)


def test_list_output_is_sorted(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    assert "double-integrator-lq" in out
    assert "quadrotor" in out
    problems = [l.strip() for l in out.splitlines()[1:3]]
    assert problems == sorted(problems)


def test_certify_writes_outputs_and_exit_zero(tmp_path):
    code = run_cli(
        ["certify", "--problem", "double-integrator-lq", "--n", "10",
         "--scheme", "hermite-simpson", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["accepted"] is True
    assert set(cert) == CERTIFICATE_KEYS
    assert set(cert["provenance"]["settings"]) == SETTINGS_KEYS
    assert set(cert["residuals"]) == RESIDUALS_KEYS
    assert set(cert["proximity"]) == PROXIMITY_KEYS
    assert set(cert["constants"]) == CONSTANTS_KEYS
    assert cert["constants"]["tube"] == {
        "dx": 0.1, "du": 0.1, "dp": 0.1,
    }
    assert cert["provenance"]["scheme"] == "hermite-simpson"
    with (tmp_path / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "u_1", "p_1", "p_2"]
    assert len(rows) == 1 + 10 * 10 + 1
    with (tmp_path / "residuals.csv").open() as fh:
        rrows = list(csv.reader(fh))
    assert rrows[0] == ["k", "t_left", "t_right", "dyn_l2", "stat_l2"]
    assert len(rrows) == 11


def test_certificate_json_round_trips(tmp_path):
    run_cli(["certify", "--problem", "double-integrator-lq", "--n", "8",
             "--out-dir", str(tmp_path)])
    raw = (tmp_path / "certificate.json").read_text()
    assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw


def test_repeat_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_cli(["certify", "--problem", "double-integrator-lq", "--n", "8",
                 "--out-dir", str(out)])
    for name in ("certificate.json", "trajectory.csv", "residuals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unknown_problem_exits_one(tmp_path, capsys):
    code = run_cli(["certify", "--problem", "foo", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "unknown problem" in capsys.readouterr().err


def test_invalid_flag_exits_one(capsys, tmp_path):
    # sweep takes its meshes from --n-list, and --n abbreviates nothing; the
    # usage line printed is that of the parser that did not recognise the flag
    out = tmp_path / "out"
    for args, usage in (
        (["certify", "--nope"], "certify "),
        (["sweep", "--problem", "quadrotor", "--n", "5"], "sweep "),
        (["--nope", "certify", "--problem", "quadrotor", "--n", "5", "--out-dir", str(out)], "[-h]"),
    ):
        assert run_cli(args) == 1
        assert f"usage: ssoc-certify {usage}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--n-list", "10,x"],
        ["sweep", "--n-list", "10,5"],
        ["refine", "--fraction", "0"],
        ["certify", "--tube-dx", "0"],
        ["certify", "--tol", "0"],
        ["sweep", "--n-list", "0,5"],
        ["sweep", "--problem", "foo", "--n-list", "5,6"],
        ["certify", "--tube-dp", "nan"],
        ["certify", "--tube-du", "inf"],
        ["certify", "--inject-en2", "-1"],
        ["certify", "--inject-einf", "nan"],
        ["certify", "--inject-alpha", "inf"],
        ["certify", "--tol", "inf"],
        ["certify", "--tol", "nan"],
        ["refine", "--tol", "inf"],
    ],
    ids=[
        "n-list-not-int", "n-list-unordered", "fraction-zero", "tube-dx-zero", "tol-zero",
        "n-list-zero", "sweep-unknown-problem", "tube-dp-nan", "tube-du-inf",
        "inject-en2-negative", "inject-einf-nan", "inject-alpha-inf", "tol-inf", "tol-nan",
        "refine-tol-inf",
    ],
)
def test_bad_input_reports_error_without_traceback(args, tmp_path, capsys, monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("bad input must be rejected before any solve")

    monkeypatch.setattr(solver, "solve", no_solve)
    if "--problem" not in args:
        args = args + ["--problem", "double-integrator-lq"]
    code = run_cli(args + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sweep_csv_layout(tmp_path):
    code = run_cli(
        ["sweep", "--problem", "double-integrator-lq", "--scheme", "hermite-simpson",
         "--n-list", "5,10,20", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    with (tmp_path / "convergence.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "E_N2", "E_inf", "alpha_hat", "threshold", "accepted", "status"]
    assert [r[0] for r in rows[1:]] == ["5", "10", "20"]
    assert all(r[5] == "true" and r[6] == "ok" for r in rows[1:])
    e = [float(r[1]) for r in rows[1:]]
    assert e[0] > e[1] > e[2]


def test_sweep_single_element(tmp_path):
    code = run_cli(
        ["sweep", "--problem", "double-integrator-lq", "--n-list", "6",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    with (tmp_path / "convergence.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2


def test_sweep_rejects_unordered_list(tmp_path):
    code = run_cli(
        ["sweep", "--problem", "double-integrator-lq", "--n-list", "10,5",
         "--out-dir", str(tmp_path)]
    )
    assert code == 1


def test_refine_report(tmp_path):
    code = run_cli(
        ["refine", "--problem", "quadrotor", "--n", "10", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] == "accepted"
    assert len(report["rounds"]) == 1
    assert report["final_certificate"]["accepted"] is True


def test_paper_constants_injection_chain(tmp_path):
    code = run_cli(
        ["certify", "--problem", "quadrotor", "--n", "35", "--paper-constants",
         "--inject-en2", "3.27e-14", "--inject-einf", "7.05e-14",
         "--inject-alpha", "6.29e-4", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert 3.2e-11 <= cert["threshold"] <= 4.7e-11
    assert abs(cert["alpha_cont"] - 6.29e-4) <= 1e-6
    assert cert["proximity"]["ok"] is True
    assert cert["constants"]["paper_constants"] is True


@pytest.mark.parametrize(
    "case", [c for c in output_digest.CASES if c[0] == "certify"], ids=" ".join
)
def test_recorded_formulas_reproduce_recorded_constants(case, tmp_path):
    # every derived constant of certificate.json follows from the JSON alone:
    # its recorded formula over its recorded constants and the mesh
    run_cli([*case, "--out-dir", str(tmp_path)])
    cert = json.loads((tmp_path / "certificate.json").read_text())
    constants, prov = cert["constants"], cert["provenance"]
    assert constants["formulas"] == {**cn.SAMPLED, **cn.FORMULAS}
    assert set(constants["formulas"]) == FORMULA_KEYS
    nodes = prov["mesh_nodes"]
    values = dict(constants, T=nodes[-1], h_max=float(np.max(np.diff(nodes))),
                  p=parse_scheme(prov["scheme"]).degree)
    paper = constants["paper_constants"]
    # the published values replace their entries after the table ran, so
    # C_xp_inf was derived from the estimated C_geo, not the recorded one
    skipped = set(cn.PAPER_CONSTANTS) | {"C_xp_inf"} if paper else set()
    for name in set(cn.FORMULAS) - skipped:
        got = cn.evaluate(constants["formulas"][name], values)
        assert got.hex() == float(constants[name]).hex(), name
    # the whole table over the sampled constants alone
    derived = cn.derive(
        {k: v for k, v in constants.items() if k not in cn.FORMULAS},
        Mesh(nodes), prov["scheme"], paper,
    )
    for name, value in derived.items():
        assert value.hex() == float(constants[name]).hex(), name


def test_output_digest_hashes_each_second_level_key(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"a": {"x": 1, "y": [2]}, "b": 3.0, "c": {}}))
    got = dict(output_digest.digests(path))
    assert sorted(got) == ["report.json:a.x", "report.json:a.y", "report.json:b", "report.json:c"]
    assert got["report.json:a.y"] == output_digest._sha(b"[2]")
    (tmp_path / "rows.csv").write_text("N\n1\n")
    assert list(output_digest.digests(tmp_path / "rows.csv")) == [
        ("rows.csv", output_digest._sha(b"N\n1\n"))
    ]


@pytest.mark.parametrize(
    "command, bad",
    [
        (command, bad)
        for command in ("certify", "sweep", "refine")
        for bad in (["--problem", "foo"], ["--problem", "quadrotor", "--tube-dx", "0"])
    ]
    + [(command, ["--problem", "quadrotor", "--n", "0"]) for command in ("certify", "refine")],
    ids=[
        f"{bad}-{command}"
        for command in ("certify", "sweep", "refine")
        for bad in ("unknown-problem", "bad-setting")
    ]
    + ["n-zero-certify", "n-zero-refine"],
)
def test_bad_input_creates_no_output_directory(command, bad, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli([command, *bad, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
