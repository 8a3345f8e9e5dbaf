import csv
import json

import pytest

from ssoc_certify import cli

CERTIFICATE_KEYS = {
    "accepted", "alpha_cont", "alpha_hat", "alpha_hat_euclidean", "certified_e_n2",
    "certified_e_source", "constants", "lhs", "projection_margin", "provenance",
    "proximity", "reject_reason", "residuals", "simplified_accepted",
    "simplified_test_used", "threshold", "trust_radius",
}
SETTINGS_KEYS = {
    "inject_alpha", "inject_e_inf", "inject_e_n2", "paper_constants", "quad_points",
    "tolerance",
}
CONSTANTS_KEYS = {
    "A_inf", "B_inf", "C_T", "C_Tprime", "C_close_inf", "C_geo", "C_int",
    "C_quad", "C_u_inf", "C_xp_inf", "Gamma", "Gamma_tot", "H_up_inf", "H_ux_inf", "L2",
    "L21_H", "L21_K", "L21_L", "L21_f", "Lambda", "M2f", "P_max", "c_Pi",
    "formulas", "paper_constants", "rho", "safety_factor", "sigma_min_Mh", "tube",
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
    assert set(cert["constants"]) == CONSTANTS_KEYS
    assert cert["constants"]["tube"] == {
        "dx": 0.1, "du": 0.1, "dp": 0.1, "samples_per_axis": 3, "time_samples": None,
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


def test_invalid_flag_exits_one(capsys):
    assert run_cli(["certify", "--nope"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


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
    ],
    ids=[
        "n-list-not-int", "n-list-unordered", "fraction-zero", "tube-dx-zero", "tol-zero",
        "n-list-zero", "sweep-unknown-problem", "tube-dp-nan", "tube-du-inf",
        "inject-en2-negative", "inject-einf-nan", "inject-alpha-inf",
    ],
)
def test_bad_input_reports_error_without_traceback(args, tmp_path, capsys):
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
