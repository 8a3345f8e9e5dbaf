import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify import model, reconstruction as rc
from ssoc_certify.errors import ConvergenceError, PolyDomainError


def test_piecewise_poly_eval_hand_cubic():
    # single piece: 1 + 2 s - s^2 + 0.5 s^3 on [0, 2]
    poly = rc.PiecewisePoly(
        breaks=np.array([0.0, 2.0]),
        coeffs=np.array([[[1.0], [2.0], [-1.0], [0.5]]]),
    )
    s = 0.5
    assert poly.eval(0.5)[0] == pytest.approx(1 + 2 * s - s**2 + 0.5 * s**3, rel=1e-15)
    assert poly.eval_derivative(0.5)[0] == pytest.approx(2 - 2 * s + 1.5 * s**2, rel=1e-15)


def test_constant_poly_has_zero_derivative():
    poly = rc.piecewise_linear(np.array([0.0, 1.0, 2.0]), np.full((3, 2), 3.3))
    ts = np.linspace(0.0, 2.0, 7)
    assert np.max(np.abs(poly.eval_derivative(ts))) == 0.0


def test_eval_outside_domain_raises():
    poly = rc.piecewise_linear(np.array([0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(PolyDomainError):
        poly.eval(-0.1)
    with pytest.raises(PolyDomainError):
        poly.eval(1.1)


def test_derivative_matches_finite_differences(lq_run):
    X = lq_run.rec.X
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.05, 0.95, size=40)
    h = 1e-6
    fd = (X.eval(ts + h) - X.eval(ts - h)) / (2 * h)
    dd = X.eval_derivative(ts)
    assert np.max(np.abs(fd - dd)) <= 1e-7 * max(1.0, np.abs(dd).max())


def test_reconstruction_interpolates_all_samples(quad_run):
    rec = quad_run.rec
    vals = rec.X.eval(rec.sample_times)
    assert np.max(np.abs(vals - rec.x_samples)) <= 1e-12
    uv = rec.U.eval(rec.sample_times)
    assert np.max(np.abs(uv - rec.u_samples)) <= 1e-12


def test_state_slopes_equal_dynamics_at_nodes(quad_run):
    prob = sc.builtin_problem("quadrotor")
    rec = quad_run.rec
    nodes = rec.mesh.nodes
    dX = rec.X.eval_derivative(nodes)
    layout = quad_run.dkkt.layout
    idx = [layout.node_sample(k) for k in range(rec.mesh.n_intervals + 1)]
    F = model.dynamics_batch(prob, nodes, rec.x_samples[idx], rec.u_samples[idx])
    assert np.max(np.abs(dX - F)) <= 1e-11


def test_continuity_at_breakpoints(quad_run):
    rec = quad_run.rec
    interior = rec.mesh.nodes[1:-1]
    left = np.array([rec.X.coeffs[k] for k in range(rec.mesh.n_intervals)])
    # evaluate the left piece at its right endpoint and compare
    for k, t in enumerate(interior):
        h = rec.mesh.h[k]
        c = rec.X.coeffs[k]
        left_val = c[0] + c[1] * h + c[2] * h * h + c[3] * h**3
        right_val = rec.X.eval(t)
        assert np.max(np.abs(left_val - right_val)) <= 1e-11


def test_cubic_hermite_reproduces_exact_quadratic():
    # xdot = u with piecewise-linear u: the reconstruction must be the exact
    # quadratic trajectory
    prob = model.OcpProblem(
        name="int", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: 0.0 * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        x0=np.array([0.0]),
    )
    mesh = sc.Mesh.uniform(1.0, 4)
    layout = sc.assemble(prob, mesh, "hermite-simpson")
    t = layout.sample_times
    U = (2.0 * t + 1.0)[:, None]
    X = (t**2 + t)[:, None]
    dkkt = sc.DiscreteKkt(
        layout=layout, z=layout.pack(X, U), nu=np.zeros(layout.n_c), converged=True
    )
    rec = sc.reconstruct(prob, dkkt)
    ts = np.linspace(0, 1, 101)
    assert np.max(np.abs(rec.X.eval(ts)[:, 0] - (ts**2 + ts))) <= 1e-12


def test_reconstruct_refuses_nonconverged(lq_problem):
    mesh = sc.Mesh.uniform(lq_problem.T, 5)
    layout = sc.assemble(lq_problem, mesh, "trapezoidal")
    dkkt = sc.DiscreteKkt(
        layout=layout, z=np.zeros(layout.n_z), nu=np.zeros(layout.n_c), converged=False
    )
    with pytest.raises(ConvergenceError):
        sc.reconstruct(lq_problem, dkkt)


def test_terminal_costate_anchored(quad_run):
    prob = sc.builtin_problem("quadrotor")
    rec = quad_run.rec
    ept = model.eval_endpoint_terms(
        prob, rec.X.eval(0.0), rec.X.eval(rec.T), quad_run.dkkt.lam
    )
    target = ept.K_xT
    assert np.linalg.norm(rec.P.eval(rec.T) - target) <= 1e-10
    assert rec.anchor_shift <= 1e-10  # raw terminal costate already matches
    assert rec.costate_jump <= 1e-10


def test_costate_nodes_match_lq_oracle(lq_run, lq_oracle):
    rec = lq_run.rec
    worst = 0.0
    for k, t in enumerate(rec.mesh.nodes):
        _, p_exact, _ = lq_oracle(t)
        worst = max(worst, np.abs(rec.p_nodes[k] - p_exact).max())
    assert worst <= 1e-5


def test_costate_curve_matches_lq_oracle_between_nodes(lq_run, lq_oracle):
    rec = lq_run.rec
    ts = np.linspace(0.0, 1.0, 101)
    P = rec.P.eval(ts)
    exact = np.array([lq_oracle(t)[1] for t in ts])
    assert np.max(np.abs(P - exact)) <= 1e-5


def _trapezoidal_lq_costate_error(prob, oracle, n_intervals):
    dkkt, _ = sc.solve(prob, sc.Mesh.uniform(prob.T, n_intervals), "trapezoidal")
    rec = sc.reconstruct(prob, dkkt)
    return max(
        np.abs(rec.p_nodes[k] - oracle(t)[1]).max() for k, t in enumerate(rec.mesh.nodes)
    )


def test_trapezoidal_node_costates_agree_from_both_sides(quad_problem):
    dkkt, _ = sc.solve(quad_problem, sc.Mesh.uniform(quad_problem.T, 35), "trapezoidal")
    assert sc.reconstruct(quad_problem, dkkt).costate_jump <= 1e-10


def test_trapezoidal_costate_nodes_converge_to_lq_oracle(lq_problem, lq_oracle):
    # trapezoidal node costates are second-order accurate
    e20 = _trapezoidal_lq_costate_error(lq_problem, lq_oracle, 20)
    e40 = _trapezoidal_lq_costate_error(lq_problem, lq_oracle, 40)
    assert e20 <= 2e-3
    assert e20 / e40 >= 3.0
