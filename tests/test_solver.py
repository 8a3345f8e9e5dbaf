import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify import model, solver, transcription
from ssoc_certify.errors import SolverBreakdownError


def test_newton_step_solves_equality_qp_in_one_step():
    # min 1/2 z.z subject to sum(z) = 1, from the origin
    W = np.eye(3)
    J = np.ones((1, 3))
    z0 = np.zeros(3)
    dz, nu, delta = solver.newton_step(W, J, z0, J @ z0 - 1.0)
    assert np.allclose(z0 + dz, np.full(3, 1.0 / 3.0), atol=1e-14)
    assert delta == 0.0
    # at the optimum the step vanishes (Lagrangian gradient z + J^T nu)
    z1 = z0 + dz
    dz2, _, _ = solver.newton_step(W, J, z1 + J.T @ nu, J @ z1 - 1.0)
    assert np.max(np.abs(dz2)) <= 1e-14


def test_newton_step_linear_solve_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        W = rng.normal(size=(6, 6))
        W = W @ W.T + 6 * np.eye(6)
        J = rng.normal(size=(2, 6))
        g = rng.normal(size=6)
        c = rng.normal(size=2)
        dz, nu, _ = solver.newton_step(W, J, g, c)
        assert np.max(np.abs(W @ dz + J.T @ nu + g)) <= 1e-10
        assert np.max(np.abs(J @ dz + c)) <= 1e-10


def test_newton_step_regularizes_indefinite_reduced_hessian():
    # curvature -1 along the null space of J forces delta escalation
    W = np.diag([1.0, -1.0])
    J = np.array([[1.0, 0.0]])
    dz, nu, delta = solver.newton_step(W, J, np.array([0.1, 0.1]), np.array([0.0]))
    assert delta > 1.0


def test_newton_step_breakdown_after_max_regularization():
    W = np.zeros((2, 2))
    J = np.zeros((1, 2))  # rank deficient: no regularization can fix it
    with pytest.raises(SolverBreakdownError):
        solver.newton_step(W, J, np.ones(2), np.ones(1))


def test_lq_solve_converges_and_is_deterministic(lq_problem):
    mesh = sc.Mesh.uniform(lq_problem.T, 10)
    d1, r1 = sc.solve(lq_problem, mesh, "hermite-simpson")
    d2, r2 = sc.solve(lq_problem, mesh, "hermite-simpson")
    assert r1.converged and r2.converged
    assert np.array_equal(d1.z, d2.z)
    assert np.array_equal(d1.nu, d2.nu)
    assert r1.iterations == r2.iterations


def test_lq_nodes_match_boundary_value_oracle(lq_problem, lq_oracle):
    mesh = sc.Mesh.uniform(lq_problem.T, 20)
    dkkt, rep = sc.solve(lq_problem, mesh, "hermite-simpson")
    assert rep.converged
    layout = dkkt.layout
    worst = 0.0
    for k, t in enumerate(mesh.nodes):
        x_exact, _, _ = lq_oracle(t)
        worst = max(worst, np.abs(dkkt.x[layout.node_sample(k)] - x_exact).max())
    assert worst <= 1e-6


def test_quadrotor_converges_to_tight_tolerance(quad_problem):
    mesh = sc.Mesh.uniform(quad_problem.T, 35)
    dkkt, rep = sc.solve(quad_problem, mesh, "hermite-simpson")
    assert rep.converged
    assert max(rep.kkt_residual, rep.constraint_residual) <= 1e-12
    assert np.all(np.isfinite(dkkt.z))


@pytest.mark.parametrize("n", [35, 140])
def test_one_polish_step_reaches_the_round_off_floor(quad_problem, n, monkeypatch):
    calls = []
    eval_kkt = transcription.eval_kkt

    def counting_kkt(*args):
        calls.append(1)
        return eval_kkt(*args)

    monkeypatch.setattr(transcription, "eval_kkt", counting_kkt)
    _, rep = sc.solve(quad_problem, sc.Mesh.uniform(quad_problem.T, n), "hermite-simpson")
    assert rep.converged
    # the start, one per iteration, then the polish evaluations
    assert len(calls) - 1 - rep.iterations <= 1
    assert max(rep.kkt_residual, rep.constraint_residual) <= 1e-14


def test_merit_history_monotone_nonincreasing(quad_problem):
    mesh = sc.Mesh.uniform(quad_problem.T, 10)
    _, rep = sc.solve(quad_problem, mesh, "hermite-simpson")
    hist = rep.merit_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))


def test_report_records_guess_policy(lq_problem):
    mesh = sc.Mesh.uniform(lq_problem.T, 5)
    _, rep = sc.solve(lq_problem, mesh, "trapezoidal")
    assert rep.guess == "linear-interpolation"
    layout = sc.assemble(lq_problem, mesh, "trapezoidal")
    _, rep2 = sc.solve(
        lq_problem, mesh, "trapezoidal", initial_guess=np.zeros(layout.n_z)
    )
    assert rep2.guess == "user"


def test_one_model_batch_per_newton_step(quad_problem, monkeypatch):
    """Every KKT evaluation of the solver is one order-2 dynamics batch, the
    solve makes no costate batch, the objective is evaluated only at line
    search trials (with the constraints), and certification reuses the
    solver's last J and W."""
    calls = {"derivative": 0, "kkt": [], "hamiltonian": 0, "objective": 0, "defects": 0}
    dynamics_batch = model.dynamics_batch
    hamiltonian_batch = model.hamiltonian_batch
    eval_kkt = transcription.eval_kkt
    eval_objective = transcription.eval_objective
    eval_defects = transcription.eval_defects

    def counting_objective(*args):
        calls["objective"] += 1
        return eval_objective(*args)

    def counting_defects(*args):
        calls["defects"] += 1
        return eval_defects(*args)

    def counting_dynamics(prob, t, X, U, order=0):
        calls["derivative"] += order >= 1
        return dynamics_batch(prob, t, X, U, order=order)

    def counting_hamiltonian(*args):
        calls["hamiltonian"] += 1
        return hamiltonian_batch(*args)

    def counting_kkt(*args):
        before = calls["derivative"]
        out = eval_kkt(*args)
        calls["kkt"].append(calls["derivative"] - before)
        return out

    monkeypatch.setattr(model, "dynamics_batch", counting_dynamics)
    monkeypatch.setattr(model, "hamiltonian_batch", counting_hamiltonian)
    monkeypatch.setattr(transcription, "eval_kkt", counting_kkt)
    monkeypatch.setattr(transcription, "eval_objective", counting_objective)
    monkeypatch.setattr(transcription, "eval_defects", counting_defects)

    mesh = sc.Mesh.uniform(quad_problem.T, 20)
    dkkt, rep = sc.solve(quad_problem, mesh, "hermite-simpson")
    assert rep.converged
    kkt_calls = len(calls["kkt"])
    assert calls["kkt"] == [1] * kkt_calls
    assert calls["derivative"] == kkt_calls
    assert calls["hamiltonian"] == 0
    assert rep.iterations <= calls["objective"] == calls["defects"]
    assert rep.iterations + 1 <= kkt_calls <= rep.iterations + 2  # one polish step
    assert dkkt.J is not None and dkkt.W is not None

    calls["kkt"].clear()
    run = sc.run_certification(quad_problem, mesh, "hermite-simpson")
    assert len(calls["kkt"]) == kkt_calls  # the solve's own, none after it
    assert run.solve_report.iterations == rep.iterations
