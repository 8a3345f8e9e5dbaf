"""Acceptance suite: one test per criterion, one pass/fail line each.

Each criterion checks its clauses at the stated tolerances and prints
``CRITERION <k>: PASS|FAIL [failed clauses]``, followed by one line per clause
with its measured value, so the run log shows the full scorecard.  Clause
values come from fresh pipeline runs or the shared session fixtures; every
expected number is either a published benchmark value or computed by an
independent oracle inside the test.
"""

import csv
import dataclasses
import json
import time

import numpy as np

import ssoc_certify as sc
from oracles import nullspace_basis, sigma_min, sym_eig_min
from ssoc_certify import cli, constants as cn, model, transcription as tr
from ssoc_certify.errors import ConstraintQualificationError


def _report(criterion, clauses):
    failures = [f"{name}: {detail}" for name, ok, detail in clauses if not ok]
    status = "PASS" if not failures else "FAIL"
    line = f"CRITERION {criterion}: {status}"
    if failures:
        line += "  [" + " | ".join(failures) + "]"
    print(line)
    for name, ok, detail in clauses:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    assert not failures, line


# -- criterion 1: quadrotor end-to-end -----------------------------------------


def test_criterion_1_quadrotor_end_to_end(tmp_path, quad_run_70):
    t0 = time.time()
    code = cli.main(
        ["certify", "--problem", "quadrotor", "--n", "35",
         "--scheme", "hermite-simpson", "--tol", "1e-12",
         "--out-dir", str(tmp_path)]
    )
    elapsed = time.time() - t0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    res = cert["residuals"]
    alpha = cert["alpha_hat"]
    # alpha_hat is measured in the L2 product norm, so it must not drift with h
    alpha_70 = quad_run_70.certificate.alpha_hat
    mesh_drift = abs(alpha_70 / alpha - 1.0)
    # the certified E is the node-quadrature aggregate; the dense-grid L2
    # defect of the reconstruction is second order in h
    e_cert = cert["certified_e_n2"]
    e_ratio = res["E_N2"] / quad_run_70.residual_report.E_N2
    prox = cert["proximity"]
    clauses = [
        ("solver converged at 1e-12", cert["provenance"]["solver"]["converged"],
         f"residual {cert['provenance']['solver']['kkt_residual']:.2e}"),
        ("alpha_hat mesh-independent: |alpha_hat(70) / alpha_hat(35) - 1| <= 1e-2",
         mesh_drift <= 1e-2,
         f"alpha_hat(35) {alpha:.6e} alpha_hat(70) {alpha_70:.6e} drift {mesh_drift:.2e}"),
        ("node-sampled KKT residuals <= 1e-10",
         res["kkt_node_inf"] <= 1e-10, f"{res['kkt_node_inf']:.2e}"),
        ("certified E <= 1e-6 from node quadrature",
         e_cert <= 1e-6 and cert["certified_e_source"] == "node-quadrature",
         f"certified_e_n2 {e_cert:.2e} ({cert['certified_e_source']}), "
         f"E_N2_node {res['E_N2_node']:.2e}"),
        ("dense-grid E_N2 second order: E_N2(35) / E_N2(70) in [3.5, 4.5]",
         3.5 <= e_ratio <= 4.5,
         f"E_N2(35) {res['E_N2']:.3e} E_N2(70) "
         f"{quad_run_70.residual_report.E_N2:.3e} ratio {e_ratio:.2f}"),
        ("alpha_cont > 0", cert["alpha_cont"] > 0.0, f"{cert['alpha_cont']:.3e}"),
        ("accepted", cert["accepted"] and code == 0, f"exit {code}"),
        ("proximity flag true", prox["ok"],
         f"product {prox['C_close_E_inf']:.2e} = C_close "
         f"{cert['constants']['C_close_inf']:.2e} * E_inf {prox['e_inf_used']:.2e} "
         f"vs r {cert['trust_radius']}"),
        ("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f}s"),
    ]
    _report(1, clauses)


# -- criterion 2: published arithmetic chain -----------------------------------


def test_criterion_2_paper_arithmetic_chain(tmp_path):
    code = cli.main(
        ["certify", "--problem", "quadrotor", "--n", "35", "--paper-constants",
         "--inject-en2", "3.27e-14", "--inject-einf", "7.05e-14",
         "--inject-alpha", "6.29e-4", "--out-dir", str(tmp_path)]
    )
    cert = json.loads((tmp_path / "certificate.json").read_text())
    r = cert["trust_radius"]
    prox = cert["proximity"]["C_close_E_inf"]
    clauses = [
        ("threshold in [3.2e-11, 4.7e-11]",
         3.2e-11 <= cert["threshold"] <= 4.7e-11, f"{cert['threshold']:.3e}"),
        ("alpha_cont = 6.29e-4 to 3 digits",
         abs(cert["alpha_cont"] - 6.29e-4) <= 0.5e-6, f"{cert['alpha_cont']:.6e}"),
        ("r = 2.885e-4 +- 1e-7", abs(r - 2.885e-4) <= 1e-7, f"{r:.6e}"),
        ("proximity product = 4.18e-12 +- 1e-14",
         abs(prox - 4.18e-12) <= 1e-14, f"{prox:.6e}"),
        ("accepted", cert["accepted"] and code == 0, f"exit {code}"),
    ]
    _report(2, clauses)


# -- criterion 3: mesh sweep ----------------------------------------------------


def test_criterion_3_mesh_sweep(tmp_path):
    code = cli.main(
        ["sweep", "--problem", "quadrotor", "--scheme", "hermite-simpson",
         "--n-list", "10,15,20,25,30,35", "--out-dir", str(tmp_path)]
    )
    with (tmp_path / "convergence.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    accepted = [r[5] == "true" for r in rows]
    e_n2 = [float(r[1]) for r in rows]
    monotone = all(b <= 1.1 * a for a, b in zip(e_n2, e_n2[1:]))
    clauses = [
        ("all rows accepted", all(accepted) and code == 0,
         f"accepted={accepted}"),
        ("E_N2 non-increasing within 10 percent", monotone, f"{e_n2}"),
    ]
    _report(3, clauses)


# -- criterion 4: constants reproduction ----------------------------------------


# Closed-form curvature of the builtin quadrotor.  Only f4 = -S sin(th) / m and
# f5 = S cos(th) / m - g, with S = u1 + u2, are nonlinear.  On the coordinates
# (th, u1, u2) each of their Hessians, and each derivative of a Hessian along
# th or u, has the pattern [[a, b, b], [b, 0, 0], [b, 0, 0]] / m, whose
# spectral norm is (|a| / 2 + sqrt(a^2 / 4 + 2 b^2)) / m.
QUAD_MASS = 1.0
TH, U1, U2 = 2, 6, 7  # positions of th, u1, u2 in the (x, u) vector


def _pattern(ab):
    """(B, 8, 8) stack with the [[a, b, b], [b, 0, 0], [b, 0, 0]] / m block."""
    a, b = ab
    H = np.zeros(np.shape(a) + (8, 8))
    H[:, TH, TH] = a
    for j in (U1, U2):
        H[:, TH, j] = H[:, j, TH] = b
    return H / QUAD_MASS


def _pattern_norm(a, b):
    return (np.abs(a) / 2.0 + np.sqrt(a * a / 4.0 + 2.0 * b * b)) / QUAD_MASS


def _quad_hessian_ab(th, S):
    """(a, b) of the f4 and f5 Hessians."""
    return [(S * np.sin(th), -np.cos(th)), (-S * np.cos(th), -np.sin(th))]


def _quad_third_ab(th, S):
    """(a, b) of the derivatives of the f4 and f5 Hessians along th and along u1."""
    s, c, zero = np.sin(th), np.cos(th), np.zeros_like(th)
    along_th = [(S * c, s), (S * s, -c)]
    along_u = [(s, zero), (-c, zero)]
    return along_th, along_u


def _quad_oracle_self_check(prob, n_points=64, seed=11):
    """Max errors of the closed forms against the program's AD Hessians:
    second derivatives directly, third derivatives by central differences."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_points, prob.n))
    U = rng.uniform(0.0, 15.0, size=(n_points, prob.m))

    def hessians(X, U):
        return model.dynamics_batch(prob, np.zeros(n_points), X, U, order=2)[3]

    def closed_form(ab_pairs):
        H = np.zeros((n_points, prob.n, 8, 8))
        H[:, 3], H[:, 4] = (_pattern(ab) for ab in ab_pairs)  # rows of f4, f5
        return H

    th, S = X[:, TH], U.sum(axis=1)
    H_ad = hessians(X, U)
    err2 = np.abs(H_ad - closed_form(_quad_hessian_ab(th, S))).max()
    err2 /= max(1.0, np.abs(H_ad).max())
    along_th, along_u = _quad_third_ab(th, S)
    h = 1e-5
    e_th, e_u = np.zeros(prob.n), np.zeros(prob.m)
    e_th[TH], e_u[0] = h, h
    fd_th = (hessians(X + e_th, U) - hessians(X - e_th, U)) / (2 * h)
    fd_u = (hessians(X, U + e_u) - hessians(X, U - e_u)) / (2 * h)
    err3 = max(np.abs(fd_th - closed_form(along_th)).max(),
               np.abs(fd_u - closed_form(along_u)).max())
    return err2, err3


def _quad_tube_enclosures(rec, bundle):
    """Closed-form enclosures of the sampled M2f and L21_f on the tube's time grid.

    M2f: the maximum over the grid centres is sampled, so it is a lower end;
    over the tube box |a| <= |S| + 2 du and |b| <= 1, so the pattern norm at
    those values is an upper end.  L21_f: the (th, th) entry of the
    half-radius quotient along th, |S| |sin(th +- s) - sin th| / s with
    s = dx / 2, is at most the quotient's norm; by the mean value theorem the
    quotient is at most the sup of the third-derivative patterns, whose
    (a, b) are bounded like those of M2f along th and by (1, 0) along u.
    """
    tube = bundle.tube
    n_t = cn.TIME_SAMPLES_PER_INTERVAL * rec.mesh.n_intervals
    ts = np.linspace(0.0, rec.T, n_t)
    th = rec.X.eval(ts)[:, TH]
    S = rec.U.eval(ts).sum(axis=1)
    box_norm = float(np.max(_pattern_norm(np.abs(S) + 2.0 * tube.du, 1.0)))
    m2f = (max(float(np.max(_pattern_norm(a, b))) for a, b in _quad_hessian_ab(th, S)),
           box_norm)
    s = tube.dx / 2.0
    entry = max(
        float(np.max(np.abs(S) * np.abs(np.sin(th + sign * s) - np.sin(th)) / s))
        for sign in (1.0, -1.0)
    ) / QUAD_MASS
    sf = bundle.safety_factor
    l21 = (sf * entry, sf * max(box_norm, 1.0 / QUAD_MASS))
    return m2f, l21


def test_criterion_4_constants_reproduction(quad_run, quad_problem):
    b = quad_run.bundle
    err2, err3 = _quad_oracle_self_check(quad_problem)
    (m2f_lo, m2f_hi), (l21_lo, l21_hi) = _quad_tube_enclosures(quad_run.rec, b)
    clauses = [
        ("sigma_min in 1.87e-2 */ 1.15",
         1.87e-2 / 1.15 <= b.sigma_min_Mh <= 1.87e-2 * 1.15,
         f"{b.sigma_min_Mh:.4e}"),
        ("C_geo <= 65", b.C_geo <= 65.0, f"{b.C_geo:.2f}"),
        ("oracle Hessians = dynamics_batch order 2 within 1e-12", err2 <= 1e-12,
         f"{err2:.2e}"),
        ("oracle third derivatives = central differences within 1e-6", err3 <= 1e-6,
         f"{err3:.2e}"),
        ("M2f in closed-form tube enclosure", m2f_lo <= b.M2f <= m2f_hi,
         f"M2f {b.M2f:.4f} enclosure [{m2f_lo:.4f}, {m2f_hi:.4f}]"),
        ("L21_f in closed-form tube enclosure", l21_lo <= b.L21_f <= l21_hi,
         f"L21_f {b.L21_f:.4f} enclosure [{l21_lo:.4f}, {l21_hi:.4f}]"),
        ("Lambda reported finite", np.isfinite(b.Lambda) and b.Lambda >= 0,
         f"{b.Lambda:.3e}"),
        ("C_close reported finite", np.isfinite(b.C_close_inf) and b.C_close_inf > 0,
         f"{b.C_close_inf:.3e}"),
    ]
    _report(4, clauses)


# -- criterion 5: oracle equivalence ---------------------------------------------


def test_criterion_5_oracle_equivalence(lq_run, lq_problem):
    clauses = []
    # (a) pencil eigenvalue vs Rayleigh-quotient sampling on the LQ builtin
    layout = lq_run.dkkt.layout
    J, W = (a.toarray() for a in lq_run.dkkt.kkt_matrices(lq_problem))
    M = tr.variation_gram_sparse(layout).toarray()
    Z = nullspace_basis(J)
    A, B = Z.T @ W @ Z, Z.T @ M @ Z
    rng = np.random.default_rng(2024)
    Y = rng.normal(size=(10_000, Z.shape[1]))
    quotients = np.einsum("bi,ij,bj->b", Y, A, Y) / np.einsum(
        "bi,ij,bj->b", Y, B, Y
    )
    sampled = float(np.min(quotients))
    alpha = lq_run.certificate.alpha_hat
    clauses.append(
        ("pencil <= sampled minimum", alpha <= sampled + 1e-12,
         f"alpha {alpha:.2e} sampled {sampled:.2e}")
    )
    clauses.append(
        ("sampling gap <= 1e-6", sampled - alpha <= 1e-6,
         f"gap {sampled - alpha:.2e}")
    )
    # (b) sigma_min vs explicit inverse norm
    rng = np.random.default_rng(77)
    worst_b = 0.0
    for _ in range(50):
        Amat = rng.normal(size=(8, 8))
        worst_b = max(
            worst_b,
            abs(sigma_min(Amat) * np.linalg.norm(np.linalg.inv(Amat), 2) - 1.0),
        )
    clauses.append(("sigma_min * ||A^-1|| = 1 +- 1e-8", worst_b <= 1e-8, f"{worst_b:.2e}"))
    # (c) sym_eig_min vs characteristic-polynomial roots
    from test_numerics import char_poly_roots

    worst_c = 0.0
    for _ in range(20):
        Bmat = rng.normal(size=(8, 8))
        S = 0.5 * (Bmat + Bmat.T)
        worst_c = max(
            worst_c, abs(sym_eig_min(S) - np.min(char_poly_roots(S).real))
        )
    clauses.append(("sym_eig_min vs char-poly roots <= 1e-8", worst_c <= 1e-8, f"{worst_c:.2e}"))
    _report(5, clauses)


# -- criterion 6: derivative correctness -----------------------------------------


def _hamiltonian_values(prob, t, X, U, P):
    F = model.dynamics_batch(prob, t, X, U)
    L = model.running_cost_batch(prob, t, X, U)
    return L + np.einsum("bi,bi->b", P, F)


def _fd_check_problem(prob, n_points=100, seed=5):
    rng = np.random.default_rng(seed)
    n, m = prob.n, prob.m
    d = n + m
    t = rng.uniform(0, prob.T, size=n_points)
    X = rng.normal(size=(n_points, n))
    U = rng.normal(size=(n_points, m))
    P = rng.normal(size=(n_points, n))
    _, H_x, H_u = model.hamiltonian_batch(prob, t, X, U, P)
    grad_ad = np.concatenate([H_x, H_u], axis=1)
    # Hessian of H = L + p.f over (x, u): Lh + sum_i p_i Hf_i
    Hf = model.dynamics_batch(prob, t, X, U, order=2)[3]
    Lh = model.running_cost_batch(prob, t, X, U, order=2)[2]
    hess_ad = Lh + np.einsum("bi,bijk->bjk", P, Hf)

    def shifted(delta):
        return _hamiltonian_values(prob, t, X + delta[:, :n], U + delta[:, n:], P)

    h = 1e-5
    grad_err = 0.0
    grad_scale = max(1.0, np.abs(grad_ad).max())
    for i in range(d):
        e = np.zeros((n_points, d))
        e[:, i] = h
        fd = (shifted(e) - shifted(-e)) / (2 * h)
        grad_err = max(grad_err, np.abs(grad_ad[:, i] - fd).max())
    h2 = 1e-3
    hess_err = 0.0
    hess_scale = max(1.0, np.abs(hess_ad).max())
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros((n_points, d))
            ej = np.zeros((n_points, d))
            ei[:, i] = h2
            ej[:, j] = h2
            fd = (
                shifted(ei + ej) - shifted(ei - ej) - shifted(-ei + ej)
                + shifted(-ei - ej)
            ) / (4 * h2 * h2)
            hess_err = max(hess_err, np.abs(hess_ad[:, i, j] - fd).max())
    return grad_err / grad_scale, hess_err / hess_scale


def test_criterion_6_derivative_correctness():
    clauses = []
    for name in ("quadrotor", "double-integrator-lq"):
        prob = sc.builtin_problem(name)
        ge, he = _fd_check_problem(prob)
        clauses.append((f"{name} gradients <= 1e-6", ge <= 1e-6, f"{ge:.2e}"))
        clauses.append((f"{name} Hessians <= 1e-4", he <= 1e-4, f"{he:.2e}"))
    _report(6, clauses)


# -- criterion 7: analytic solution check ------------------------------------------


def test_criterion_7_lq_closed_form(lq_run, lq_oracle):
    dkkt = lq_run.dkkt
    layout = dkkt.layout
    xerr = perr = 0.0
    for k, t in enumerate(layout.mesh.nodes):
        x_exact, p_exact, _ = lq_oracle(t)
        xerr = max(xerr, np.abs(dkkt.x[layout.node_sample(k)] - x_exact).max())
        perr = max(perr, np.abs(lq_run.rec.p_nodes[k] - p_exact).max())
    clauses = [
        ("states at nodes <= 1e-6 (N=20)", xerr <= 1e-6, f"{xerr:.2e}"),
        ("reconstructed costate <= 1e-5", perr <= 1e-5, f"{perr:.2e}"),
    ]
    _report(7, clauses)


# -- criterion 8: residual identities ----------------------------------------------


def test_criterion_8_residual_identities(quad_run, lq_run, lq_problem):
    clauses = []
    for label, run, T in (("quadrotor", quad_run, 2.0), ("lq", lq_run, 1.0)):
        rep = run.residual_report
        dyn = np.sqrt(sum(d * d for (_, d, _) in rep.per_interval))
        stat = np.sqrt(sum(s * s for (_, _, s) in rep.per_interval))
        ok_dec = abs(dyn - rep.e_dyn_L2) <= 1e-12 * max(1.0, rep.e_dyn_L2) and abs(
            stat - rep.e_stat_L2
        ) <= 1e-12 * max(1.0, rep.e_stat_L2)
        clauses.append((f"{label} decomposition identity", ok_dec, f"{dyn:.3e}"))
        clauses.append(
            (f"{label} relation E_N2 <= sqrt(T) E_inf + e_bc",
             sc.residual_relation_check(rep, T), f"E_N2 {rep.E_N2:.2e}")
        )
    # perturbation linearity on a fine LQ mesh
    from ssoc_certify import reconstruction as rc

    dkkt, rep = sc.solve(lq_problem, sc.Mesh.uniform(1.0, 80), "hermite-simpson")
    rec = sc.reconstruct(lq_problem, dkkt)
    vals = []
    for eps in (1e-4, 1e-3, 1e-2):
        u_pert = rec.u_samples + eps * np.sin(np.pi * rec.sample_times / rec.T)[:, None]
        pert = dataclasses.replace(
            rec, U=rc.piecewise_linear(rec.sample_times, u_pert), u_samples=u_pert
        )
        vals.append(sc.compute_residuals(lq_problem, pert).e_stat_L2)
    ratios = [hi / lo for lo, hi in zip(vals, vals[1:])]
    clauses.append(
        ("perturbation response linear (ratios in [8, 12])",
         all(8.0 <= r <= 12.0 for r in ratios), f"{ratios}")
    )
    _report(8, clauses)


# -- criterion 9: negative controls --------------------------------------------------


def test_criterion_9_negative_controls(quad_run, quad_problem):
    clauses = []
    baseline = quad_run.certificate
    dkkt = quad_run.dkkt
    layout = dkkt.layout
    t = layout.sample_times
    u_pert = dkkt.u + 1e-2 * np.sin(np.pi * t / quad_problem.T)[:, None]
    dkkt_p = dataclasses.replace(dkkt, z=layout.pack(dkkt.x, u_pert))
    rec = sc.reconstruct(quad_problem, dkkt_p)
    rep = sc.compute_residuals(quad_problem, rec)
    bundle = cn.estimate_all(quad_problem, rec, dkkt_p)
    J, W = (a.toarray() for a in dkkt_p.kkt_matrices(quad_problem))
    M = tr.variation_gram_sparse(layout)
    curv = sc.reduced_curvature(W, J, M)
    cert_p = sc.finalize_certificate(curv, bundle, rep, sc.CertifySettings(), {})
    flipped = not cert_p.accepted
    halved = cert_p.alpha_cont <= 0.5 * baseline.alpha_cont
    clauses.append(
        ("perturbation rejects or halves alpha_cont", flipped or halved,
         f"accepted={cert_p.accepted} alpha_cont={cert_p.alpha_cont:.3e}")
    )
    # rank-deficient constraint Jacobian aborts instead of certifying
    Jbad = np.vstack([J, J[0]])
    try:
        sc.reduced_curvature(W, Jbad, M)
        cq_ok = False
    except ConstraintQualificationError:
        cq_ok = True
    clauses.append(("rank deficiency raises qualification error", cq_ok, ""))
    _report(9, clauses)
