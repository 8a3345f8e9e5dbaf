import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ssoc_certify as sc
from ssoc_certify import constants as cn
from ssoc_certify import ad, model
from ssoc_certify.errors import (
    ContractError,
    EvaluationDomainError,
    LegendreViolationError,
    SettingsError,
    StrongRegularityError,
)
from ssoc_certify.transcription import parse_scheme
from oracles import unpruned_sup


def test_tube_spec_validation():
    for kwargs in (
        {"dx": 0.0},
        {"dp": math.nan},
        {"du": math.inf},
        {"dx": -0.1},
        {"dx": "0.1"},
        {"du": True},
        {"dp": "0.1"},
    ):
        with pytest.raises(SettingsError):
            cn.TubeSpec(**kwargs)


def test_lq_lipschitz_constants_vanish(lq_run):
    b = lq_run.bundle
    assert b.L21_f == 0.0
    assert b.L21_L == 0.0
    assert b.L21_K == 0.0
    assert b.M2f == 0.0
    assert b.Lambda == 0.0
    assert b.rho == pytest.approx(1.0, rel=1e-12)


def test_quadrotor_rho_is_control_weight(quad_run):
    assert quad_run.bundle.rho == pytest.approx(0.01, rel=1e-10)


def _derive(T=1.0, scheme="trapezoidal", n_intervals=10, **fields):
    """The derived constants of a bundle holding ``fields`` on the uniform
    mesh of ``n_intervals`` intervals over [0, T]."""
    bundle = cn.ConstantsBundle(c_Pi=parse_scheme(scheme).lebesgue, **fields)
    return cn.derive(bundle.to_dict(), sc.Mesh.uniform(T, n_intervals), scheme)


def test_compute_c_t_plug_in_values():
    d = _derive(A_inf=0.0, B_inf=0.0, rho=1.0, scheme="hermite-simpson")
    assert d["C_T"] == pytest.approx(2.0)
    val = _derive(A_inf=1.0, B_inf=0.01, rho=0.01)["C_T"]
    assert val == pytest.approx(4.0 * math.e, rel=1e-12)
    assert val == pytest.approx(10.873, rel=1e-4)


def test_overflowing_bounds_read_inf():
    # exp(A_inf T) and growth^2 beyond the largest float read inf, not
    # OverflowError; C_geo = 1 / sigma_min_Mh = 2 and L21_H = L21_L = 2
    b = dict(A_inf=400.0, B_inf=1.0, rho=0.5, sigma_min_Mh=0.5, H_ux_inf=1.0, H_up_inf=1.0)
    d = _derive(T=2.0, **b)
    assert d["C_T"] == math.inf
    assert (d["C_xp_inf"], d["C_u_inf"], d["C_close_inf"]) == (math.inf, math.inf, math.inf)
    h = float(np.max(sc.Mesh.uniform(1.0, 10).h))
    d = _derive(A_inf=1e160, B_inf=1.0, rho=0.5, L21_L=2.0, P_max=0.0, L21_f=0.0, L2=3.0)
    assert d["C_quad"] == math.inf
    assert d["C_Tprime"] == pytest.approx(2.0 * 3.0 * h, rel=1e-15)  # trapezoidal: O(h)
    # finite values are the plain formulas' bitwise
    b = dict(A_inf=350.0, B_inf=1.0, rho=0.5, sigma_min_Mh=0.5, L21_L=2.0, P_max=0.0,
             L21_f=0.0, L2=3.0, H_ux_inf=1.0, H_up_inf=1.0)
    assert _derive(T=2.0, **b)["C_T"] == 2.0 * math.exp(700.0) * 3.0
    d = _derive(**b)
    assert d["C_xp_inf"] == 2.0 * 2.0 * math.exp(351.0)
    assert d["C_quad"] == (h**2 / 12.0) * 2.0 * (1.0 + 350.0 + 2.0) ** 2


def test_zero_times_overflowed_bound_reads_zero():
    # an inf stands for a finite bound past the float range, so the zero
    # coefficient H_ux_inf + H_up_inf times C_xp_inf = inf is 0, not NaN
    d = _derive(T=2.0, A_inf=400.0, B_inf=0.0, rho=1.0, sigma_min_Mh=1.0, H_ux_inf=0.0,
                H_up_inf=0.0)
    assert (d["C_xp_inf"], d["C_u_inf"], d["C_close_inf"]) == (math.inf, 1.0, math.inf)


def test_quadrature_constant_scaling_with_mesh():
    b = dict(A_inf=1.0, B_inf=1.0, rho=0.5, L21_L=2.0, P_max=0.0, L21_f=0.0, L2=3.0,
             scheme="hermite-simpson")
    coarse, fine = _derive(n_intervals=10, **b), _derive(n_intervals=20, **b)
    assert fine["C_quad"] == pytest.approx(coarse["C_quad"] / 4.0, rel=1e-12)
    assert fine["C_Tprime"] == pytest.approx(coarse["C_Tprime"] / 8.0, rel=1e-12)


def test_quadrature_constant_vanishes_without_third_derivatives(lq_run):
    assert lq_run.bundle.C_quad == 0.0


def test_lambda_hand_value():
    d = _derive(T=2.0, L21_L=1.0, P_max=2.0, L21_f=0.5, M2f=1.0, L21_K=0.0)
    assert (d["C_int"], d["L21_H"]) == (2.0, 2.0)
    assert d["Lambda"] == pytest.approx(2.0 * (2.0 + 1.0))


def test_c_close_hand_value_and_monotonicity():
    b = dict(A_inf=0.0, B_inf=0.0, sigma_min_Mh=1.0, H_ux_inf=0.0, H_up_inf=0.0)
    d = _derive(rho=1.0, **b)
    assert d["C_close_inf"] == pytest.approx(3.0)
    assert d["C_close_inf"] == d["C_xp_inf"] + d["C_u_inf"]
    assert _derive(rho=2.0, **b)["C_u_inf"] < d["C_u_inf"]


def test_evaluator_arithmetic():
    assert cn.evaluate("-max(T, 1)**2 / 4 - exp(0) + 2 * T", {"T": 3.0}) == -9.0 / 4.0 - 1.0 + 6.0
    assert cn.evaluate("exp(T) + 10**T", {"T": 1000.0}) == math.inf
    assert cn.evaluate("0 * exp(T) - exp(T) * 0", {"T": 1000.0}) == 0.0


@pytest.mark.parametrize(
    "formula",
    ["T.real", "v[0]", "abs(T)", "__import__('os')", "exp(x=T)", "exp(*v)", "U", "T < 1",
     "'T'", "True * T", "lambda: T", "T if T else 1"],
)
def test_evaluator_rejects_other_terms(formula):
    with pytest.raises(ContractError):
        cn.evaluate(formula, {"T": 2.0, "v": [1.0]})


def test_readme_formula_table_is_the_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|$", readme, re.M)
    assert rows == list(cn.FORMULAS.items())


def test_c_geo_identity_and_lift_override():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(6, 6))
    spd = A @ A.T + np.eye(6)
    smin = cn.estimate_C_geo(spd)
    assert smin == pytest.approx(np.linalg.svd(spd, compute_uv=False)[-1], rel=1e-12)
    assert cn.estimate_C_geo(np.eye(4)) == pytest.approx(1.0)


def test_c_geo_rejects_singular():
    with pytest.raises(StrongRegularityError):
        cn.estimate_C_geo(np.zeros((3, 3)))


def test_legendre_violation_detected():
    prob = sc.OcpProblem(
        name="concave", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: -u[0] * u[0] + x[0] * x[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        x0=np.array([0.0]),
    )
    mesh = sc.Mesh.uniform(1.0, 3)
    layout = sc.assemble(prob, mesh, "hermite-simpson")
    dkkt = sc.DiscreteKkt(
        layout=layout, z=np.zeros(layout.n_z), nu=np.zeros(layout.n_c), converged=True
    )
    rec = sc.reconstruct(prob, dkkt)
    with pytest.raises(LegendreViolationError):
        cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec())


def test_nan_endpoint_hessian_names_the_constants(quad_problem, quad_run, monkeypatch):
    # a NaN in the centre endpoint Hessian reaches L2 and every L21_K quotient
    inner = model.endpoint_hessian_batch

    def nan_centre(prob, X0, XT):
        K_hess = inner(prob, X0, XT)
        K_hess[0, 0, 0] = math.nan
        return K_hess

    monkeypatch.setattr(model, "endpoint_hessian_batch", nan_centre)
    with pytest.raises(EvaluationDomainError, match=r"\(L2 = nan, L21_K = nan\)"):
        cn.estimate_curvature_bounds(quad_problem, quad_run.rec, cn.TubeSpec())


def test_nan_half_radius_running_cost_hessian_names_l21_l(quad_problem, quad_run, monkeypatch):
    # one block per model batch: with a running cost curved along every
    # axis, its last batch is a half-radius block, which only the L21_L
    # quotient reads
    prob = _curved_on_every_axis(quad_problem, dynamics=False)
    monkeypatch.setattr(cn, "TUBE_BATCH_ROWS", 1)
    inner = model.running_cost_batch
    batches = 1 + 4 * (prob.n + prob.m)
    calls = []

    def nan_last(prob, t, X, U, order=0):
        parts = inner(prob, t, X, U, order=order)
        calls.append(order)
        if len(calls) == batches:
            parts[2][0, quad_problem.n, quad_problem.n] = math.nan
        return parts

    monkeypatch.setattr(model, "running_cost_batch", nan_last)
    with pytest.raises(EvaluationDomainError, match=r"\(L21_L = nan\)"):
        cn.estimate_curvature_bounds(prob, quad_run.rec, cn.TubeSpec())
    assert calls == [2] * batches


def test_bundle_identities(quad_run):
    b = quad_run.bundle
    assert b.Gamma == b.C_geo * b.L2
    assert b.Gamma_tot == b.Gamma + b.C_quad + b.C_Tprime
    assert b.Lambda == b.C_int * (b.L21_H + b.M2f) + 2.0 * b.L21_K
    assert b.L21_H == b.L21_L + b.P_max * b.L21_f
    assert b.C_close_inf == b.C_xp_inf + b.C_u_inf
    assert b.C_int == 2.0


def test_tube_growth_monotonicity(quad_problem, quad_run):
    small = quad_run.bundle  # radii 0.1
    big_tube = cn.TubeSpec(dx=0.2, du=0.2, dp=0.2)
    big = cn.estimate_curvature_bounds(quad_problem, quad_run.rec, big_tube)
    for fieldname in ("L2", "M2f", "L21_f", "L21_L", "L21_K", "P_max"):
        assert getattr(big, fieldname) >= getattr(small, fieldname) - 1e-12


def test_sampling_refinement_stability(quad_problem, quad_run):
    coarse = quad_run.bundle  # full-radius axis offsets, 140 time samples
    n_t = 4 * 35 * 2 - 1  # nests the coarse uniform time grid
    fine = _per_offset_curvature_bounds(
        quad_problem, quad_run.rec, cn.TubeSpec(), (-1.0, -0.5, 0.5, 1.0), n_t
    )  # 5 samples per axis
    for fieldname in ("L2", "M2f", "L21_f", "L21_L", "P_max", "A_inf", "B_inf"):
        c = getattr(coarse, fieldname)
        f = fine[fieldname]
        assert f >= c - 1e-12  # sups grow under refinement
        assert f <= c * 1.2 + 1e-12


def test_quadrotor_quadrature_terms_small_next_to_gamma(quad_run):
    b = quad_run.bundle
    assert b.C_quad + b.C_Tprime <= 0.10 * b.Gamma
    assert b.C_Tprime <= 1e-3 * b.Gamma


def _svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _fixed_grid(rec):
    """The tube's grid: full-radius axis offsets, 4 times per interval."""
    return (-1.0, 1.0), cn.TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals


def _tube_batch(prob, rec, tube, scales, n_t):
    """The time grid, centre values and (t, x, u, p) batch of the tube that
    offsets by each of ``scales`` times the radius along every axis at
    ``n_t`` uniform times."""
    n, m = prob.n, prob.m
    ts = np.linspace(0.0, rec.T, n_t)
    Xc, Uc, Pc = rec.X.eval(ts), rec.U.eval(ts), rec.P.eval(ts)
    xu_radii = np.concatenate([np.full(n, tube.dx), np.full(m, tube.du)])
    offsets = cn._axis_offsets(xu_radii, scales)
    X_all = np.concatenate([Xc[None], Xc + offsets[:, None, :n]]).reshape(-1, n)
    U_all = np.concatenate([Uc[None], Uc + offsets[:, None, n:]]).reshape(-1, m)
    t_all = np.tile(ts, len(offsets) + 1)
    P_all = np.tile(Pc, (len(offsets) + 1, 1))
    return ts, Xc, Uc, Pc, xu_radii, t_all, X_all, U_all, P_all


def _per_offset_curvature_bounds(prob, rec, tube, scales, n_t, safety_factor=1.5):
    """The tube on a given grid with one model call per endpoint offset and
    an SVD per norm."""
    n = prob.n
    ts, Xc, Uc, Pc, xu_radii, t_all, X_all, U_all, P_all = _tube_batch(
        prob, rec, tube, scales, n_t
    )
    end_radii = np.full(2 * n, tube.dx)
    _, Fx, Fu, Hf = model.dynamics_batch(prob, t_all, X_all, U_all, order=2)
    _, _, Lh = model.running_cost_batch(prob, t_all, X_all, U_all, order=2)
    M2f = float(np.max(cn._sym_spectral_norms(Hf)))
    sup_L = float(np.max(cn._sym_spectral_norms(Lh)))
    x0v, xTv = rec.X.eval(0.0), rec.X.eval(rec.T)
    sup_K = max(
        float(cn._sym_spectral_norms(
            sc.eval_endpoint_terms(prob, x0v + d0[:n], xTv + d0[n:]).K_hess[None]
        )[0])
        for d0 in np.vstack([np.zeros(2 * n), cn._axis_offsets(end_radii, (1.0, -1.0))])
    )
    rho, H_ux_inf = math.inf, 0.0
    for dp in np.vstack([np.zeros(n), cn._axis_offsets(np.full(n, tube.dp), scales)]):
        Hfull = Lh + np.einsum("bi,bijk->bjk", P_all + dp, Hf)
        rho = min(rho, float(np.min(np.linalg.eigvalsh(Hfull[:, n:, n:])[..., 0])))
        H_ux_inf = max(H_ux_inf, float(np.max(_svd_norms(Hfull[:, n:, :n]))))
    _, Fx_c, Fu_c = model.dynamics_batch(prob, ts, Xc, Uc, order=1)
    B0 = ts.size
    L21_f = L21_L = L21_K = 0.0
    for off in cn._axis_offsets(xu_radii, (0.5, -0.5)):
        step = float(np.linalg.norm(off))
        _, _, _, Hf_o = model.dynamics_batch(prob, ts, Xc + off[:n], Uc + off[n:], order=2)
        _, _, Lh_o = model.running_cost_batch(prob, ts, Xc + off[:n], Uc + off[n:], order=2)
        L21_f = max(L21_f, float(np.max(cn._sym_spectral_norms(Hf_o - Hf[:B0]))) / step)
        L21_L = max(L21_L, float(np.max(cn._sym_spectral_norms(Lh_o - Lh[:B0]))) / step)
    K_c = sc.eval_endpoint_terms(prob, x0v, xTv).K_hess
    for off in cn._axis_offsets(end_radii, (0.5, -0.5)):
        K_o = sc.eval_endpoint_terms(prob, x0v + off[:n], xTv + off[n:]).K_hess
        step = float(np.linalg.norm(off))
        L21_K = max(L21_K, float(cn._sym_spectral_norms((K_o - K_c)[None])[0]) / step)
    P_max = float(np.max(np.linalg.norm(Pc, axis=1))) + tube.dp
    return {
        "rho": rho, "L2": max(sup_L, M2f, sup_K), "M2f": M2f,
        "L21_f": L21_f * safety_factor, "L21_L": L21_L * safety_factor,
        "L21_K": L21_K * safety_factor, "P_max": P_max,
        "A_inf": float(np.max(_svd_norms(Fx_c))), "B_inf": float(np.max(_svd_norms(Fu_c))),
        "H_ux_inf": H_ux_inf, "H_up_inf": float(np.max(_svd_norms(np.swapaxes(Fu, 1, 2)))),
    }


def _costate_box_bounds(prob, rec, tube):
    """Extremes of lambda_min(H_uu) and ||H_ux|| over the costate box, and
    their Weyl bounds.

    H(p) = Lh + sum_i p_i Hf_i is affine in p, so ||H_ux(p)|| is convex and
    lambda_min(H_uu(p)) concave in p: over the box |p_i - Pc_i| <= dp their
    max and min sit at the 2^n corners, which makes the corner values exact.
    """
    n = prob.n
    *_, t_all, X_all, U_all, P_all = _tube_batch(prob, rec, tube, *_fixed_grid(rec))
    _, _, _, Hf = model.dynamics_batch(prob, t_all, X_all, U_all, order=2)
    _, _, Lh = model.running_cost_batch(prob, t_all, X_all, U_all, order=2)

    def hamiltonian_hessian(P):
        return Lh + np.einsum("bi,bijk->bjk", P, Hf)

    corners = tube.dp * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    H_ux_corner_max = H_uu_corner_min = None
    for corner in corners:
        H = hamiltonian_hessian(P_all + corner)
        ux = float(np.max(_svd_norms(H[:, n:, :n])))
        uu = float(np.min(np.linalg.eigvalsh(H[:, n:, n:])[:, 0]))
        H_ux_corner_max = ux if H_ux_corner_max is None else max(H_ux_corner_max, ux)
        H_uu_corner_min = uu if H_uu_corner_min is None else min(H_uu_corner_min, uu)
    H = hamiltonian_hessian(P_all)
    spread_ux = tube.dp * np.sum(_svd_norms(Hf[:, :, n:, :n]), axis=1)
    spread_uu = tube.dp * np.sum(_svd_norms(Hf[:, :, n:, n:]), axis=1)
    return {
        "H_ux_corner_max": H_ux_corner_max,
        "H_uu_corner_min": H_uu_corner_min,
        "H_ux_weyl": float(np.max(_svd_norms(H[:, n:, :n]) + spread_ux)),
        "rho_weyl": float(np.min(np.linalg.eigvalsh(H[:, n:, n:])[:, 0] - spread_uu)),
        "uu_affine": not np.any(Hf[:, :, n:, n:]),
    }


def _coupled_quadrotor(quad, control=False):
    """The quadrotor plus terms that make every endpoint offset and tube row
    count; with ``control`` its dynamics are also nonlinear in u, so that
    (Hf_i)_uu is nonzero."""

    def dynamics(t, x, u):
        f = quad.dynamics(t, x, u)
        f[3] = f[3] + 0.1 * ad.sin(x[0]) * x[2]
        if control:
            f[3] = f[3] + 0.1 * ad.sin(u[0]) * x[1]
        return f

    def endpoint_cost(x0, xT):
        return quad.endpoint_cost(x0, xT) + ad.sin(x0[0]) * ad.cos(xT[0]) * xT[2]

    return dataclasses.replace(
        quad, name="quadrotor-coupled", dynamics=dynamics, endpoint_cost=endpoint_cost
    )


@pytest.mark.parametrize(
    "case",
    [
        "trapezoidal",
        "hermite-simpson",
        "coupled-hermite-simpson",
        "control-coupled-hermite-simpson",
    ],
)
def test_curvature_bounds_match_per_offset_reference(quad_problem, quad_run, case):
    prob = quad_problem
    if case == "trapezoidal":
        rec = sc.run_certification(prob, sc.Mesh.uniform(prob.T, 35), case).rec
    else:
        rec = quad_run.rec
    if "coupled" in case:
        # the tube only samples the problem's functions around rec
        prob = _coupled_quadrotor(prob, control=case.startswith("control"))
    got = cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec())
    box = _assert_matches_per_offset_reference(prob, rec, got)
    assert box["uu_affine"] == (case != "control-coupled-hermite-simpson")


def _assert_matches_per_offset_reference(prob, rec, got):
    """Compare the tube's bounds with the per-offset reference and the
    costate-box extremes; returns the latter."""
    ref = _per_offset_curvature_bounds(prob, rec, cn.TubeSpec(), *_fixed_grid(rec))
    box = _costate_box_bounds(prob, rec, cn.TubeSpec())
    # the costate direction is bounded over the whole dp-box by Weyl's
    # inequality, not sampled at the 2n + 1 axis offsets of the reference;
    # the bound is attained when the curved components' blocks are aligned
    # (the quadrotor's H_ux blocks are rank one along the same direction),
    # so the corner comparisons allow rounding
    assert got.H_ux_inf == pytest.approx(box["H_ux_weyl"], rel=1e-13)
    assert got.H_ux_inf >= box["H_ux_corner_max"] * (1.0 - 1e-13)
    assert got.rho == pytest.approx(box["rho_weyl"], rel=1e-13)
    assert got.rho <= box["H_uu_corner_min"] + 1e-13 * abs(box["H_uu_corner_min"])
    for name, value in ref.items():
        if name == "H_ux_inf" or (name == "rho" and not box["uu_affine"]):
            continue
        if name in ("A_inf", "B_inf", "H_up_inf"):
            # spectral norms from the Gram eigenvalue, not the SVD
            assert getattr(got, name) == pytest.approx(value, rel=1e-13), name
        else:
            assert getattr(got, name) == value, name
    return box


def _curved_on_every_axis(prob, dynamics=True):
    """``prob`` plus a small term in the running cost, and with ``dynamics``
    in the dynamics, whose Hessian changes along every state and control axis."""

    def bump(x, u):
        return ad.cos(sum(x) + sum(u))

    def running_cost(t, x, u):
        return prob.running_cost(t, x, u) + 1e-4 * bump(x, u)

    def dynamics_(t, x, u):
        f = prob.dynamics(t, x, u)
        f[-2] = f[-2] + 1e-3 * bump(x, u)
        return f

    return dataclasses.replace(
        prob, running_cost=running_cost, dynamics=dynamics_ if dynamics else prob.dynamics
    )


def _curved_in_gradient_only(prob):
    """``prob`` plus 1e-3 x0 u0 in f[0]: its gradient reads x0 and u0, its
    Hessian is constant."""

    def dynamics(t, x, u):
        f = prob.dynamics(t, x, u)
        f[0] = f[0] + 1e-3 * x[0] * u[0]
        return f

    return dataclasses.replace(prob, dynamics=dynamics)


@pytest.mark.parametrize("case", ["lq", "lq-curved-cost", "every-axis", "gradient-only"])
def test_tube_skips_blocks_that_repeat_the_centre(
    case, lq_problem, lq_run, quad_problem, quad_run, monkeypatch
):
    # A bound reads a block only when the AD's input masks say the array it
    # reads can change along the block's axis: Fu when the axis is in the
    # dynamics' gradient mask (full-radius blocks only), Hf when it is in
    # their Hessian mask, Lh when it is in the running cost's.  The centre
    # block reaches the norms 7 times (the sups A_inf, B_inf, H_up_inf, M2f,
    # sup_L and H_ux_inf, and rho's Weyl sum), a full-radius block at most 5
    # times (all but A_inf and B_inf) and a half-radius block at most twice
    # (the L21_f and L21_L quotients); every tube stack holds one block.  A
    # sup counts once, whichever norms it reads; a norm computed outside a
    # sup counts on its own.
    if case == "every-axis":
        prob = _curved_on_every_axis(_coupled_quadrotor(quad_problem, control=True))
        rec = quad_run.rec
    else:
        prob = {
            "lq": lq_problem,
            "lq-curved-cost": _curved_on_every_axis(lq_problem, dynamics=False),
            "gradient-only": _curved_in_gradient_only(lq_problem),
        }[case]
        rec = lq_run.rec
    n, d = prob.n, prob.n + prob.m
    n_t = cn.TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals
    rows, in_sup = [], []

    def counting_sup(norms, stack, floor, bounds=None, inner=cn._sup):
        rows.append(len(stack))
        in_sup.append(True)
        try:
            return inner(norms, stack, floor, bounds)
        finally:
            in_sup.pop()

    def counting_norms(a, inner):
        if not in_sup:
            rows.append(len(a))
        return inner(a)

    monkeypatch.setattr(cn, "_sup", counting_sup)
    for name in ("_sym_spectral_norms", "_spectral_norms"):
        inner = getattr(cn, name)
        monkeypatch.setattr(cn, name, lambda a, inner=inner: counting_norms(a, inner))
    got, dyn_rows, cost_rows = _tube_rows(prob, rec, monkeypatch)
    # the endpoint tube: its centre and full-radius offsets, then its quotients
    assert set(rows) == {n_t, 1 + 4 * n, 4 * n}
    axes, per_full, per_half = {
        # linear dynamics and a quadratic cost: no mask holds an axis
        "lq": (0, 0, 0),
        # Lh changes along every axis: sup_L, the Weyl sum, H_ux_inf; L21_L
        "lq-curved-cost": (d, 3, 1),
        # every array changes along every axis
        "every-axis": (d, 5, 2),
        # Fu can change along x0 and u0, Hf and Lh nowhere: the four
        # full-radius blocks of these axes reach H_up_inf alone
        "gradient-only": (2, 1, 0),
    }[case]
    assert rows.count(n_t) == 7 + 2 * axes * (per_full + per_half)
    if case == "gradient-only":
        assert (sum(dyn_rows), sum(cost_rows)) == (5 * n_t, n_t)
    monkeypatch.undo()
    _assert_matches_per_offset_reference(prob, rec, got)


@st.composite
def _sup_cases(draw):
    """(symmetric, stack, floor) with ties, zero and tiny matrices, empty
    stacks, and now and then one entry that is NaN, inf or past the pruned
    range."""
    symmetric = draw(st.booleans())
    lead = draw(st.sampled_from([(0,), (1,), (2,), (6,), (4, 3), (3, 0)]))
    k = draw(st.integers(1, 4))
    shape = (*lead, k, k if symmetric else draw(st.integers(1, 4)))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-160]) | st.floats(-4.0, 4.0)
    stack = draw(arrays(float, shape, elements=values))
    if symmetric:
        stack = stack + np.swapaxes(stack, -1, -2)
    if lead[0] > 1 and draw(st.booleans()):
        stack[1] = stack[0]
    if stack.size and draw(st.booleans()):
        index = draw(st.integers(0, stack.size - 1))
        stack.flat[index] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e200]))
    floor = draw(st.sampled_from([0.0, -math.inf, 1e9, math.nan]) | st.floats(0.0, 10.0))
    return symmetric, stack, floor


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sup_cases())
def test_sup_equals_the_unpruned_max_bitwise(case):
    symmetric, stack, floor = case
    norms = cn._sym_spectral_norms if symmetric else cn._spectral_norms
    with np.errstate(over="ignore", invalid="ignore"):  # the Gram of 1e200
        got, want = cn._sup(norms, stack, floor), unpruned_sup(norms, stack, floor)
    assert float.hex(got) == float.hex(want), (got, want)


def test_sup_reads_only_the_entries_that_can_reach_it():
    sizes = []

    def norms(stack):
        sizes.append(len(stack))
        return cn._sym_spectral_norms(stack)

    stack = np.stack([np.diag([float(i), 0.0]) for i in range(1, 11)])
    assert cn._sup(norms, stack, 0.0) == 10.0
    assert sizes == [1]  # diag(10) first; every other bound is below 10
    # diag(1, 1) has the largest bound, sqrt(2), and norm 1: then only
    # diag(1.3, 0) can reach the sup, and diag(0.5, 0) is skipped
    sizes.clear()
    stack = np.stack([np.diag(d) for d in ([0.5, 0.0], [1.0, 1.0], [1.3, 0.0])])
    assert cn._sup(norms, stack, 0.0) == 1.3
    assert sizes == [1, 1]
    # a floor above every bound skips all but the first entry
    sizes.clear()
    assert cn._sup(norms, stack, 5.0) == 5.0
    assert sizes == [1]
    # past PRUNE_RANGE every entry is read, in one call
    sizes.clear()
    assert cn._sup(norms, 1e150 * stack, 0.0) == 1.3e150
    assert sizes == [3]


def test_sup_reads_every_entry_below_the_pruned_range():
    # the square of 1.006e-161 underflows to a subnormal, so its Frobenius
    # norm reads 1.2 % low, while LAPACK scales the eigenvalue problem and
    # returns the norm exactly: a bound that falls short of the norm
    x = 1.006e-161
    stack = np.zeros((2, 2, 2))
    stack[0] = np.diag([0.999 * x, 0.999 * x])  # the largest bound, norm 0.999 x
    stack[1, 0, 0] = x
    assert cn._frobenius(stack)[1] < 0.999 * x < cn._sym_spectral_norms(stack)[1]
    assert cn._sup(cn._sym_spectral_norms, stack, 0.0) == x


@pytest.mark.parametrize("n_intervals", [10, 35])
@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
@pytest.mark.parametrize("problem", ["quadrotor", "double-integrator-lq"])
def test_pruned_tube_equals_the_unpruned_reference(problem, scheme, n_intervals, monkeypatch):
    prob = sc.builtin_problem(problem)
    rec = sc.run_certification(prob, sc.Mesh.uniform(prob.T, n_intervals), scheme).rec

    def bits(bundle):
        return {k: float.hex(v) for k, v in bundle.to_dict().items() if isinstance(v, float)}

    got = cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec())
    monkeypatch.setattr(cn, "_sup", unpruned_sup)
    assert bits(got) == bits(cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec()))


def _tube_rows(prob, rec, monkeypatch):
    """The tube's bounds and the row counts of its dynamics and its
    running-cost model batches."""
    rows = {"dynamics_batch": [], "running_cost_batch": []}
    with monkeypatch.context() as patch:
        for name, calls in rows.items():
            inner = getattr(model, name)

            def recording(prob, t, X, U, order=0, inner=inner, calls=calls):
                calls.append(len(t))
                return inner(prob, t, X, U, order=order)

            patch.setattr(model, name, recording)
        got = cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec())
    return got, rows["dynamics_batch"], rows["running_cost_batch"]


def test_tube_batch_rows_change_no_bound(quad_run, quad_problem, monkeypatch):
    # every tube bound is a max or min over rows, so the row cap per model
    # batch, which bounds the tube's peak memory, leaves each bound bitwise equal
    names = ["rho", "L2", "M2f", "L21_f", "L21_L", "L21_K", "P_max",
             "A_inf", "B_inf", "H_ux_inf", "H_up_inf"]
    n_t = cn.TIME_SAMPLES_PER_INTERVAL * quad_run.rec.mesh.n_intervals
    whole = None
    for cap in (10**9, 1, 300):
        monkeypatch.setattr(cn, "TUBE_BATCH_ROWS", cap)
        got, dyn_rows, cost_rows = _tube_rows(quad_problem, quad_run.rec, monkeypatch)
        # every batch holds whole blocks of n_t rows, at most max(n_t, cap)
        # rows; the dynamics' Hessians read theta, u1 and u2, so their
        # blocks are the centre and the four offsets along each of these
        # axes, and the running cost's Hessian is constant: its centre alone
        for rows in (dyn_rows, cost_rows):
            assert all(r % n_t == 0 and r <= max(n_t, cap) for r in rows), (cap, rows)
        assert (sum(dyn_rows), sum(cost_rows)) == (13 * n_t, n_t)
        whole = got if whole is None else whole
        for name in names:
            assert getattr(got, name) == getattr(whole, name), (cap, name)


@pytest.mark.parametrize("case", ["lq", "every-axis"])
def test_tube_evaluates_only_blocks_its_masks_can_move(
    case, lq_problem, lq_run, quad_problem, quad_run, monkeypatch
):
    # linear dynamics and a quadratic cost read no input in their Hessians:
    # one block of each; a bump in both along every axis: all 1 + 4d blocks
    if case == "lq":
        prob, rec, blocks = lq_problem, lq_run.rec, 1
    else:
        prob, rec = _curved_on_every_axis(quad_problem), quad_run.rec
        blocks = 1 + 4 * (prob.n + prob.m)
    n_t = cn.TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals
    _, dyn_rows, cost_rows = _tube_rows(prob, rec, monkeypatch)
    assert sum(dyn_rows) == sum(cost_rows) == blocks * n_t


@pytest.mark.parametrize(
    "case",
    ["quadrotor", "lq", "coupled", "control-coupled", "every-axis", "every-axis-lq-cost",
     "gradient-only"],
)
def test_probe_lists_exactly_the_outputs_with_a_nonzero_hessian_in_the_tube(
    case, lq_problem, lq_run, quad_problem, quad_run
):
    # the tube reads the dynamics Hessians of the probe's curved outputs
    # only; every other output's Hessian must be zero in every tube block
    prob, rec = {
        "quadrotor": (quad_problem, quad_run.rec),
        "lq": (lq_problem, lq_run.rec),
        "coupled": (_coupled_quadrotor(quad_problem), quad_run.rec),
        "control-coupled": (_coupled_quadrotor(quad_problem, control=True), quad_run.rec),
        "every-axis": (_curved_on_every_axis(quad_problem), quad_run.rec),
        "every-axis-lq-cost": (_curved_on_every_axis(lq_problem, dynamics=False), lq_run.rec),
        "gradient-only": (_curved_in_gradient_only(lq_problem), lq_run.rec),
    }[case]
    n_t = cn.TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals
    ts, Xc, Uc, *_, t_all, X_all, U_all, _ = _tube_batch(
        prob, rec, cn.TubeSpec(), (-1.0, 1.0, 0.5, -0.5), n_t
    )
    *_, curved = model.dependency_masks(prob, ts[0], Xc[0], Uc[0])
    Hf = model.dynamics_batch(prob, t_all, X_all, U_all, order=2)[3]
    assert curved.tolist() == np.flatnonzero(np.any(Hf != 0, axis=(0, 2, 3))).tolist()
    assert curved.size == {"lq": 0, "every-axis-lq-cost": 0, "gradient-only": 1}.get(case, 2)
