import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssoc_certify as sc
from oracles import nullspace_basis
from ssoc_certify import certify, constants as cn, transcription as tr
from ssoc_certify.errors import ConstraintQualificationError, ContractError, SettingsError


def test_pencil_proportional_matrices():
    rng = np.random.default_rng(3)
    M = np.diag(rng.uniform(0.1, 3.0, 8))
    W = 2.0 * M
    J = rng.normal(size=(3, 8))
    out = sc.reduced_curvature(W, J, M)
    assert out.alpha_hat == pytest.approx(2.0, rel=1e-10)


def test_unconstrained_curvature_is_full_space_pencil():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(9, 9))
    M = np.diag(rng.uniform(0.1, 3.0, 9))
    # indefinite, definite, and zero (no margin is relative to a zero W)
    for W in (0.5 * (B + B.T), B @ B.T + np.eye(9), np.zeros((9, 9))):
        out = sc.reduced_curvature(W, np.zeros((0, 9)), M)
        assert out.null_dim == 9
        assert out.alpha_hat == pytest.approx(scipy.linalg.eigh(W, M, eigvals_only=True)[0], rel=1e-10)
        assert out.alpha_hat_euclidean == pytest.approx(np.linalg.eigvalsh(W)[0], rel=1e-10)


@pytest.mark.parametrize("diag", [[3.0, 2.0, 1.0], [3.0, -2.0, 1.0]], ids=["definite", "indefinite"])
def test_curvature_scale_free_across_the_double_range(diag):
    W = np.diag(diag) + 0.3 * (np.eye(3, k=1) + np.eye(3, k=-1))
    J = np.array([[1.0, 0.0, 1.0]])
    M = np.diag([0.5, 1.5, 2.0])
    base = sc.reduced_curvature(W, J, M)
    for scale in (1e-290, 1e290):
        out = sc.reduced_curvature(scale * W, J, M)
        assert out.alpha_hat == pytest.approx(scale * base.alpha_hat, rel=1e-10)
        assert out.alpha_hat_euclidean == pytest.approx(scale * base.alpha_hat_euclidean, rel=1e-10)


@pytest.mark.parametrize(
    "M",
    [
        np.diag([1.0, 2.0, 1.0, 1.0]) + 0.1 * np.eye(4, k=1) + 0.1 * np.eye(4, k=-1),
        np.diag([1.0, 0.0, 1.0, 1.0]),
        np.diag([1.0, 1.0, -2.0, 1.0]),
        np.diag([1.0, 1.0, np.nan, 1.0]),
    ],
    ids=["non-diagonal", "zero-weight", "negative-weight", "nan-weight"],
)
def test_curvature_metric_must_be_positive_diagonal(M):
    with pytest.raises(ContractError):
        sc.reduced_curvature(np.eye(4), np.array([[1.0, 1.0, 0.0, 0.0]]), M)


def test_pencil_scale_invariance(lq_run):
    run = lq_run
    layout = run.dkkt.layout
    prob = sc.builtin_problem("double-integrator-lq")
    J, W = run.dkkt.kkt_matrices(prob)
    M = tr.variation_gram_sparse(layout)
    a1 = sc.reduced_curvature(W, J, M).alpha_hat
    a2 = sc.reduced_curvature(7.3 * W, J, 7.3 * M).alpha_hat
    assert a2 == pytest.approx(a1, rel=1e-10)


def test_rank_deficient_jacobian_raises():
    W = np.eye(4)
    J = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ConstraintQualificationError):
        sc.reduced_curvature(W, J, np.eye(4))


def _planted_jacobian(sigma_min):
    """A dense 4 x 6 J with singular values 100, 3, 1 and sigma_min."""
    rng = np.random.default_rng(41)
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    return U @ np.diag([100.0, 3.0, 1.0, sigma_min]) @ V.T


def test_rank_test_is_relative_to_the_scale_of_j():
    # 5e-10 clears an absolute 1e-10 floor but sits below 1e-10 * sigma_max
    with pytest.raises(ConstraintQualificationError):
        sc.reduced_curvature(np.eye(6), _planted_jacobian(5e-10), np.eye(6))
    assert sc.reduced_curvature(np.eye(6), _planted_jacobian(1e-5), np.eye(6)).null_dim == 2


def test_near_duplicate_jacobian_row_raises(quad_run, quad_problem):
    # the extra row differs from row 0 by 1e-13 on its nonzeros: the saddle
    # factorization is not exactly singular, so only the relative rank test
    # on sigma_min(J) catches it
    layout = quad_run.dkkt.layout
    J, W = quad_run.dkkt.kkt_matrices(quad_problem)
    J = J.toarray()
    row = J[0].copy()
    row[row != 0.0] += 1e-13
    with pytest.raises(ConstraintQualificationError):
        sc.reduced_curvature(W, np.vstack([J, row]), tr.variation_gram_sparse(layout))


def test_curvature_stays_matrix_free(quad_problem, monkeypatch):
    """At certify-large's mesh (quadrotor Hermite-Simpson, N=140) the reduced
    curvature builds no dense null-space basis (2248 x 562, 10.1 MB): no QR,
    no dense eigensolve, and a traced peak far below one basis."""
    mesh = sc.Mesh.uniform(quad_problem.T, 140)
    dkkt, rep = sc.solve(quad_problem, mesh, "hermite-simpson")
    assert rep.converged
    J, W = dkkt.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(dkkt.layout)
    calls = []
    for module, name in ((scipy.linalg, "qr"), (np.linalg, "eigvalsh")):

        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    tracemalloc.start()
    try:
        curv = sc.reduced_curvature(W, J, M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curv.null_dim == J.shape[1] - J.shape[0] == 562
    assert calls == []
    assert peak < 8 * 2**20, peak


def test_repeat_certification_is_bitwise_equal(quad_run, quad_problem):
    run = sc.run_certification(
        quad_problem, sc.Mesh.uniform(quad_problem.T, 35), "hermite-simpson"
    )
    assert run.certificate.alpha_hat == quad_run.certificate.alpha_hat
    assert run.bundle.sigma_min_Mh == quad_run.bundle.sigma_min_Mh
    assert np.array_equal(run.dkkt.z, quad_run.dkkt.z)


def test_lq_alpha_is_unit_and_stable_across_meshes(lq_problem):
    values = []
    for n in (10, 20, 40):
        run = sc.run_certification(lq_problem, sc.Mesh.uniform(1.0, n), "hermite-simpson")
        values.append(run.certificate.alpha_hat)
    assert all(abs(v - 1.0) <= 1e-9 for v in values)
    spread = max(values) / min(values) - 1.0
    assert spread <= 0.02


def test_lq_alpha_equals_rayleigh_sampling_oracle(lq_run):
    run = lq_run
    layout = run.dkkt.layout
    prob = sc.builtin_problem("double-integrator-lq")
    J, W = (a.toarray() for a in run.dkkt.kkt_matrices(prob))
    M = tr.variation_gram_sparse(layout).toarray()
    Z = nullspace_basis(J)
    A = Z.T @ W @ Z
    B = Z.T @ M @ Z
    rng = np.random.default_rng(123)
    Y = rng.normal(size=(10_000, Z.shape[1]))
    num = np.einsum("bi,ij,bj->b", Y, A, Y)
    den = np.einsum("bi,ij,bj->b", Y, B, Y)
    sampled_min = float(np.min(num / den))
    alpha = run.certificate.alpha_hat
    assert alpha <= sampled_min + 1e-9
    assert sampled_min - alpha <= 1e-6


def _verdict(alpha_hat, bundle, e_n2):
    """The certificate of a hand-set curvature, constants bundle and E."""
    curv = certify.CurvatureResult(alpha_hat, alpha_hat, 3)
    rep = dataclasses.replace(_dummy_report(), E_N2_node=e_n2)
    return sc.finalize_certificate(curv, bundle, rep, sc.CertifySettings(), {})


def test_acceptance_zero_residual_limit():
    bundle = cn.ConstantsBundle(C_T=123.0, Gamma_tot=1e3, Lambda=1.0, rho=1.0)
    out = _verdict(0.5, bundle, 0.0)
    assert out.threshold == 0.0
    assert out.accepted
    out2 = _verdict(0.0, bundle, 0.0)
    assert not out2.accepted  # strict inequality
    assert out2.reject_reason == "curvature below residual threshold"


def test_acceptance_hand_rejection():
    bundle = cn.ConstantsBundle(C_T=0.0, Gamma_tot=1e3, Lambda=1.0, rho=1.0)
    out = _verdict(1e-6, bundle, 1e-8)
    assert out.threshold == pytest.approx(1e-5)
    assert not out.accepted
    assert out.reject_reason == "curvature below residual threshold"


def test_projection_stability_loss_rejects():
    bundle = cn.ConstantsBundle(C_T=1e3, Gamma_tot=1.0, Lambda=1.0, rho=1.0)
    out = _verdict(1.0, bundle, 1e-2)  # C_T * E = 10 > 1
    assert out.projection_margin < 0.0
    assert not out.accepted
    assert out.reject_reason == "projection stability lost"
    assert out.trust_radius is None


@pytest.mark.parametrize("C_T", [1e170, math.inf])
def test_huge_or_infinite_c_t_rejects_without_overflow(C_T):
    # |1 - C_T E| > 1.34e154 overflows a float square; it reads as inf
    bundle = cn.ConstantsBundle(C_T=C_T, Gamma_tot=1.0, Lambda=1.0, rho=1.0)
    out = _verdict(1.0, bundle, 1e-14)
    assert out.projection_margin == 1.0 - C_T * 1e-14
    assert out.lhs == math.inf
    assert not out.accepted
    assert out.reject_reason == "projection stability lost"
    assert out.trust_radius is None


def _reference_verdict(alpha_hat, bundle, e_n2):
    """(accepted, reject_reason, trust_radius) by the two-stage rule: a scalar
    test lhs > threshold, then the certificate's own checks on alpha_cont."""
    margin = 1.0 - bundle.C_T * e_n2
    threshold = bundle.Gamma_tot * e_n2
    # a square above the largest float is inf
    lhs = alpha_hat * (margin**2 if abs(margin) < 1e150 else math.inf)
    projection_ok = margin > 0.0
    accepted_inequality = projection_ok and (lhs > threshold)
    alpha_cont = lhs - threshold
    trust_radius = None
    if alpha_cont > 0.0 and projection_ok:
        trust_radius = alpha_cont / (2.0 * bundle.Lambda) if bundle.Lambda > 0.0 else math.inf
    accepted = accepted_inequality and alpha_cont > 0.0 and bundle.rho > 0.0
    reason = None
    if not accepted:
        if not projection_ok:
            reason = "projection stability lost"
        elif not accepted_inequality or alpha_cont <= 0.0:
            reason = "curvature below residual threshold"
    return accepted, reason, trust_radius


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    alpha_hat=st.floats(allow_nan=False),
    C_T=st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e300)),
    Gamma_tot=st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e300)),
    Lambda=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    rho=st.floats(-1.0, 1.0),
    e_n2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(alpha_hat=math.inf, C_T=1.0, Gamma_tot=1.0, Lambda=1.0, rho=1.0, e_n2=0.5)
@example(alpha_hat=math.inf, C_T=1.0, Gamma_tot=1e300, Lambda=0.0, rho=1.0, e_n2=1.0)
@example(alpha_hat=1.0, C_T=10.0, Gamma_tot=0.0, Lambda=1.0, rho=1.0, e_n2=0.5)
@example(alpha_hat=1.0, C_T=1e300, Gamma_tot=1.0, Lambda=1.0, rho=1.0, e_n2=1e-14)
@example(alpha_hat=-1.0, C_T=1e300, Gamma_tot=0.0, Lambda=1.0, rho=1.0, e_n2=1.0)
@example(alpha_hat=1.0, C_T=0.0, Gamma_tot=0.0, Lambda=0.0, rho=1.0, e_n2=0.0)
@example(alpha_hat=1.0, C_T=0.0, Gamma_tot=0.0, Lambda=1.0, rho=0.0, e_n2=0.0)
@example(alpha_hat=1.0, C_T=0.0, Gamma_tot=0.0, Lambda=1.0, rho=-1.0, e_n2=0.0)
def test_verdict_matches_two_stage_rule_property(alpha_hat, C_T, Gamma_tot, Lambda, rho, e_n2):
    bundle = cn.ConstantsBundle(C_T=C_T, Gamma_tot=Gamma_tot, Lambda=Lambda, rho=rho)
    cert = _verdict(alpha_hat, bundle, e_n2)
    assert (cert.accepted, cert.reject_reason, cert.trust_radius) == _reference_verdict(
        alpha_hat, bundle, e_n2
    )


@pytest.mark.parametrize("name", ["inject_e_n2", "inject_e_inf", "inject_alpha"])
@pytest.mark.parametrize("value", ["1e-8", True], ids=["str", "bool"])
def test_settings_reject_strings_and_bools(name, value):
    with pytest.raises(SettingsError):
        sc.CertifySettings(**{name: value})


@pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), "1e-8", True])
def test_settings_reject_bad_tolerance(value):
    with pytest.raises(SettingsError):
        sc.CertifySettings(tolerance=value)


def test_loose_tolerance_reaches_the_solver(quad_problem):
    settings = sc.CertifySettings(tolerance=1e-2)
    run = sc.run_certification(
        quad_problem, sc.Mesh.uniform(quad_problem.T, 10), "hermite-simpson", settings=settings
    )
    rep = run.solve_report
    assert rep.converged
    assert max(rep.kkt_residual, rep.constraint_residual) > 1e-9
    assert run.certificate.provenance["settings"]["tolerance"] == 1e-2


def test_paper_arithmetic_chain_values(quad_problem):
    settings = sc.CertifySettings(
        paper_constants=True,
        inject_e_n2=3.27e-14,
        inject_e_inf=7.05e-14,
        inject_alpha=6.29e-4,
    )
    run = sc.run_certification(
        quad_problem, sc.Mesh.uniform(2.0, 35), "hermite-simpson", settings=settings
    )
    cert = run.certificate
    assert 3.2e-11 <= cert.threshold <= 4.7e-11
    assert cert.alpha_cont == pytest.approx(6.29e-4, rel=5e-4)
    assert cert.trust_radius == pytest.approx(2.885e-4, abs=1e-7)
    assert cert.proximity["C_close_E_inf"] == pytest.approx(4.18e-12, abs=1e-14)
    assert cert.proximity["ok"]
    assert cert.accepted


def test_certificate_arithmetic_identities(quad_run):
    cert = quad_run.certificate
    b = quad_run.bundle
    e = cert.certified_e_n2
    assert cert.lhs == cert.alpha_hat * (1.0 - b.C_T * e) ** 2
    assert cert.threshold == b.Gamma_tot * e
    assert cert.alpha_cont == cert.lhs - cert.threshold
    assert cert.trust_radius == cert.alpha_cont / (2.0 * b.Lambda)
    assert cert.accepted == (
        (cert.lhs > cert.threshold) and cert.alpha_cont > 0 and b.rho > 0
    )


def test_flat_second_variation_gives_unbounded_radius(lq_run):
    cert = lq_run.certificate
    assert lq_run.bundle.Lambda == 0.0
    assert cert.trust_radius == math.inf
    assert cert.proximity["ok"]


def test_rejected_certificate_has_no_radius():
    bundle = cn.ConstantsBundle(
        C_T=0.0, Gamma_tot=1e3, Lambda=1.0, rho=1.0, C_close_inf=1.0
    )
    curv = certify.CurvatureResult(1e-6, 1e-6, 3)
    rep = dataclasses.replace(_dummy_report(), E_N2_node=1e-8, E_inf=1e-8)
    cert = sc.finalize_certificate(curv, bundle, rep, sc.CertifySettings(), {})
    assert not cert.accepted
    assert cert.trust_radius is None
    assert cert.reject_reason == "curvature below residual threshold"


def _dummy_report():
    from ssoc_certify.residuals import ResidualReport

    return ResidualReport(
        e_dyn_L2=0.0, e_stat_L2=0.0, e_bc=0.0, E_N2=0.0,
        e_dyn_node_L2=0.0, e_stat_node_L2=0.0, E_N2_node=0.0, kkt_node_inf=0.0,
        e_dyn_inf=0.0, e_adj_inf=0.0, e_stat_inf=0.0, E_inf=0.0, E_inf_basic=0.0,
        per_interval=[],
    )


def test_certificate_json_round_trip(quad_run):
    payload = quad_run.certificate.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
