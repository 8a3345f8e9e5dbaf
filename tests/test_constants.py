import dataclasses
import itertools
import math

import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify import constants as cn
from ssoc_certify import ad, model
from ssoc_certify.errors import LegendreViolationError, SettingsError, StrongRegularityError


def test_tube_spec_validation():
    for kwargs in (
        {"dx": 0.0},
        {"samples_per_axis": 1},
        {"dp": math.nan},
        {"du": math.inf},
        {"dx": -0.1},
        {"time_samples": 0},
        {"time_samples": 1},
        {"time_samples": -3},
        {"time_samples": 8.0},
    ):
        with pytest.raises(SettingsError):
            cn.TubeSpec(**kwargs)
    assert cn.TubeSpec(time_samples=2).time_samples == 2


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


def test_compute_c_t_plug_in_values():
    b = cn.ConstantsBundle(A_inf=0.0, B_inf=0.0, rho=1.0)
    assert cn.compute_C_T(b, "hermite-simpson", 1.0) == pytest.approx(2.0)
    b = cn.ConstantsBundle(A_inf=1.0, B_inf=0.01, rho=0.01)
    val = cn.compute_C_T(b, "trapezoidal", 1.0)
    assert val == pytest.approx(4.0 * math.e, rel=1e-12)
    assert val == pytest.approx(10.873, rel=1e-4)


def test_quadrature_constant_scaling_with_mesh():
    b = cn.ConstantsBundle(A_inf=1.0, B_inf=1.0, rho=0.5, L21_H=2.0, L2=3.0)
    coarse = cn.compute_quadrature_and_conformity(b, "hermite-simpson", sc.Mesh.uniform(1.0, 10))
    fine = cn.compute_quadrature_and_conformity(b, "hermite-simpson", sc.Mesh.uniform(1.0, 20))
    assert fine["C_quad"] == pytest.approx(coarse["C_quad"] / 4.0, rel=1e-12)
    assert fine["C_Tprime"] == pytest.approx(coarse["C_Tprime"] / 8.0, rel=1e-12)


def test_quadrature_constant_vanishes_without_third_derivatives(lq_run):
    assert lq_run.bundle.C_quad == 0.0


def test_lambda_hand_value():
    b = cn.ConstantsBundle(L21_L=1.0, P_max=2.0, L21_f=0.5, M2f=1.0, L21_K=0.0, C_int=2.0)
    b.L21_H = b.L21_L + b.P_max * b.L21_f
    assert cn.compute_Lambda(b) == pytest.approx(2.0 * (2.0 + 1.0))


def test_c_close_hand_value_and_monotonicity():
    b = cn.ConstantsBundle(A_inf=0.0, B_inf=0.0, rho=1.0, C_geo=1.0, H_ux_inf=0.0, H_up_inf=0.0)
    out = cn.compute_C_close(b, 1.0)
    assert out["C_close_inf"] == pytest.approx(3.0)
    b2 = cn.ConstantsBundle(A_inf=0.0, B_inf=0.0, rho=2.0, C_geo=1.0, H_ux_inf=0.0, H_up_inf=0.0)
    assert cn.compute_C_close(b2, 1.0)["C_u_inf"] < out["C_u_inf"]


def test_c_geo_identity_and_lift_override():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(6, 6))
    spd = A @ A.T + np.eye(6)
    out = cn.estimate_C_geo(spd)
    assert out["C_geo"] * out["sigma_min_Mh"] == pytest.approx(1.0, rel=1e-12)
    out2 = cn.estimate_C_geo(np.eye(4))
    assert out2["sigma_min_Mh"] == pytest.approx(1.0)


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
    S = layout.n_samples
    dkkt = sc.DiscreteKkt(
        layout=layout, z=np.zeros(layout.n_z),
        x=np.zeros((S, 1)), u=np.zeros((S, 1)),
        nu=np.zeros(layout.n_c), lam=np.zeros(0), eta=np.zeros(1),
        p_station=np.zeros((S, 1)), p_nodes=np.zeros((4, 1)),
        costate_jump=0.0, converged=True,
    )
    rec = sc.reconstruct(prob, dkkt)
    with pytest.raises(LegendreViolationError):
        cn.estimate_curvature_bounds(prob, rec, cn.TubeSpec())


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
    coarse = quad_run.bundle  # 3 samples/axis, 140 time samples
    n_t = 4 * 35 * 2 - 1  # nests the coarse uniform time grid
    fine_tube = cn.TubeSpec(samples_per_axis=5, time_samples=n_t)
    fine = cn.estimate_curvature_bounds(quad_problem, quad_run.rec, fine_tube)
    for fieldname in ("L2", "M2f", "L21_f", "L21_L", "P_max", "A_inf", "B_inf"):
        c = getattr(coarse, fieldname)
        f = getattr(fine, fieldname)
        assert f >= c - 1e-12  # sups grow under refinement
        assert f <= c * 1.2 + 1e-12


def test_quadrotor_quadrature_terms_small_next_to_gamma(quad_run):
    b = quad_run.bundle
    assert b.C_quad + b.C_Tprime <= 0.10 * b.Gamma
    assert b.C_Tprime <= 1e-3 * b.Gamma


def _svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _tube_batch(prob, rec, tube):
    """The tube's time grid, centre values and its (t, x, u, p) batch."""
    n, m = prob.n, prob.m
    ts = np.linspace(0.0, rec.T, tube.time_samples or 4 * rec.mesh.n_intervals)
    Xc, Uc, Pc = rec.X.eval(ts), rec.U.eval(ts), rec.P.eval(ts)
    scales = np.linspace(-1.0, 1.0, tube.samples_per_axis)
    scales = scales[scales != 0.0]
    xu_radii = np.concatenate([np.full(n, tube.dx), np.full(m, tube.du)])
    offsets = cn._axis_offsets(xu_radii, scales)
    X_all = np.concatenate([Xc[None], Xc + offsets[:, None, :n]]).reshape(-1, n)
    U_all = np.concatenate([Uc[None], Uc + offsets[:, None, n:]]).reshape(-1, m)
    t_all = np.tile(ts, len(offsets) + 1)
    P_all = np.tile(Pc, (len(offsets) + 1, 1))
    return ts, Xc, Uc, Pc, scales, xu_radii, t_all, X_all, U_all, P_all


def _per_offset_curvature_bounds(prob, rec, tube, safety_factor=1.5):
    """The tube with one model call per endpoint offset and an SVD per norm."""
    n = prob.n
    ts, Xc, Uc, Pc, scales, xu_radii, t_all, X_all, U_all, P_all = _tube_batch(prob, rec, tube)
    end_radii = np.full(2 * n, tube.dx)
    _, Fx, Fu, Hf = model.dynamics_batch(prob, t_all, X_all, U_all, order=2)
    _, _, Lh = model.running_cost_batch(prob, t_all, X_all, U_all, order=2)
    M2f = float(np.max(cn._sym_spectral_norms(Hf)))
    sup_L = float(np.max(cn._sym_spectral_norms(Lh)))
    x0v, xTv = rec.X.eval(0.0), rec.X.eval(rec.T)
    sup_K = max(
        float(cn._sym_spectral_norms(
            sc.eval_endpoint_terms(prob, x0v + d0[:n], xTv + d0[n:], rec.lam).K_hess[None]
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
    K_c = sc.eval_endpoint_terms(prob, x0v, xTv, rec.lam).K_hess
    for off in cn._axis_offsets(end_radii, (0.5, -0.5)):
        K_o = sc.eval_endpoint_terms(prob, x0v + off[:n], xTv + off[n:], rec.lam).K_hess
        step = float(np.linalg.norm(off))
        L21_K = max(L21_K, float(cn._sym_spectral_norms((K_o - K_c)[None])[0]) / step)
    P_max = float(np.max(np.linalg.norm(Pc, axis=1))) + tube.dp
    return {
        "rho": rho, "L2": max(sup_L, M2f, sup_K), "M2f": M2f,
        "L21_f": L21_f * safety_factor, "L21_L": L21_L * safety_factor,
        "L21_K": L21_K * safety_factor,
        "L21_H": L21_L * safety_factor + P_max * L21_f * safety_factor,
        "P_max": P_max,
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
    *_, t_all, X_all, U_all, P_all = _tube_batch(prob, rec, tube)
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
    ref = _per_offset_curvature_bounds(prob, rec, cn.TubeSpec())
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
    assert box["uu_affine"] == (case != "control-coupled-hermite-simpson")
    for name, value in ref.items():
        if name == "H_ux_inf" or (name == "rho" and not box["uu_affine"]):
            continue
        if name in ("A_inf", "B_inf", "H_up_inf"):
            # spectral norms from the Gram eigenvalue, not the SVD
            assert getattr(got, name) == pytest.approx(value, rel=1e-13), name
        else:
            assert getattr(got, name) == value, name



def test_tube_batch_rows_change_no_bound(quad_run, quad_problem, monkeypatch):
    # every tube bound is a max or min over rows, so the row cap per model
    # batch, which bounds the tube's peak memory, leaves each bound bitwise equal
    names = ["rho", "L2", "M2f", "L21_f", "L21_L", "L21_K", "L21_H", "P_max",
             "A_inf", "B_inf", "H_ux_inf", "H_up_inf"]
    rows = []
    inner = model.dynamics_batch

    def recording(prob, t, X, U, order=0):
        rows.append(len(t))
        return inner(prob, t, X, U, order=order)

    monkeypatch.setattr(model, "dynamics_batch", recording)
    n_t = 4 * quad_run.rec.mesh.n_intervals
    d = quad_problem.n + quad_problem.m
    monkeypatch.setattr(cn, "TUBE_BATCH_ROWS", 10**9)
    whole = cn.estimate_curvature_bounds(quad_problem, quad_run.rec, cn.TubeSpec())
    assert rows[0] == (1 + 2 * d) * n_t
    for cap in (1, 300):
        monkeypatch.setattr(cn, "TUBE_BATCH_ROWS", cap)
        rows.clear()
        got = cn.estimate_curvature_bounds(quad_problem, quad_run.rec, cn.TubeSpec())
        assert max(rows) == max(cap, n_t)
        assert sum(rows) == (1 + 4 * d) * n_t  # centre, full- and half-radius offsets
        for name in names:
            assert getattr(got, name) == getattr(whole, name), (cap, name)
