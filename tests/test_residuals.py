import math

import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify import model, reconstruction as rc, residuals as rs


def _zero_problem():
    return model.OcpProblem(
        name="null", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [0.0 * x[0]],
        running_cost=lambda t, x, u: 0.0 * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        x0=np.array([0.7]),
    )


def _constant_reconstruction(prob, scheme="hermite-simpson"):
    mesh = sc.Mesh.uniform(prob.T, 4)
    layout = sc.assemble(prob, mesh, scheme)
    S = layout.n_samples
    X = np.full((S, 1), 0.7)
    U = np.zeros((S, 1))
    dkkt = sc.DiscreteKkt(
        layout=layout, z=layout.pack(X, U), x=X, u=U,
        nu=np.zeros(layout.n_c), lam=np.zeros(0), eta=np.zeros(1),
        p_station=np.zeros((S, 1)), p_nodes=np.zeros((5, 1)),
        costate_jump=0.0, converged=True,
    )
    return sc.reconstruct(prob, dkkt)


def test_identically_satisfied_problem_has_zero_residuals():
    prob = _zero_problem()
    rec = _constant_reconstruction(prob)
    rep = sc.compute_residuals(prob, rec)
    assert rep.E_N2 == 0.0
    assert rep.E_inf == 0.0
    assert rep.E_N2_node == 0.0
    assert rep.e_bc == 0.0


def test_minimum_quadrature_points_enforced(lq_run, lq_problem):
    with pytest.raises(Exception):
        sc.compute_residuals(lq_problem, lq_run.rec, quad_points_per_interval=2)


def test_decomposition_matches_global_l2(quad_run):
    rep = quad_run.residual_report
    dyn_sq = sum(d * d for (_, d, _) in rep.per_interval)
    stat_sq = sum(s * s for (_, _, s) in rep.per_interval)
    assert math.sqrt(dyn_sq) == pytest.approx(rep.e_dyn_L2, rel=1e-12)
    assert math.sqrt(stat_sq) == pytest.approx(rep.e_stat_L2, rel=1e-12)
    assert rep.E_N2 == rep.e_dyn_L2 + rep.e_stat_L2 + rep.e_bc


def test_one_model_pass_per_point_set(quad_problem, quad_run, monkeypatch):
    """compute_residuals evaluates the model once on the dense grid (which
    holds the quadrature points) and once at the samples; reconstruct once at
    the nodes.  Every dynamics batch comes from inside hamiltonian_batch."""
    calls = []
    inside = [0]
    dynamics_batch, hamiltonian_batch = model.dynamics_batch, model.hamiltonian_batch

    def counting_hamiltonian(prob, t, X, U, P):
        calls.append(("hamiltonian", np.array(t, copy=True)))
        inside[0] += 1
        try:
            return hamiltonian_batch(prob, t, X, U, P)
        finally:
            inside[0] -= 1

    def counting_dynamics(prob, t, X, U, order=0):
        if not inside[0]:
            calls.append(("dynamics", None))
        return dynamics_batch(prob, t, X, U, order=order)

    monkeypatch.setattr(model, "dynamics_batch", counting_dynamics)
    monkeypatch.setattr(model, "hamiltonian_batch", counting_hamiltonian)

    rec = quad_run.rec
    rep = rs.compute_residuals(quad_problem, rec)
    assert [name for name, _ in calls] == ["hamiltonian", "hamiltonian"]
    t_dense, t_nodes = calls[0][1], calls[1][1]
    assert t_dense.size == np.unique(t_dense).size
    a, b = rec.U.breaks[:-1, None], rec.U.breaks[1:, None]
    gl_x = np.polynomial.legendre.leggauss(rep.quad_points)[0]
    assert np.isin(0.5 * (a + b) + 0.5 * (b - a) * gl_x, t_dense).all()
    assert np.array_equal(t_nodes, rec.sample_times)

    calls.clear()
    rc.reconstruct(quad_problem, quad_run.dkkt)
    assert [name for name, _ in calls] == ["hamiltonian"]
    assert np.array_equal(calls[0][1], rec.mesh.nodes)


def test_relation_check_on_pipeline_runs(quad_run, lq_run):
    assert sc.residual_relation_check(quad_run.residual_report, 2.0)
    assert sc.residual_relation_check(lq_run.residual_report, 1.0)


def test_relation_check_negative_control(quad_run):
    import dataclasses

    broken = dataclasses.replace(
        quad_run.residual_report, E_N2=1.0, e_bc=0.0, E_inf_basic=1e-6
    )
    assert not sc.residual_relation_check(broken, 2.0)


def test_quadrature_refinement_stability(lq_problem, lq_run):
    r5 = sc.compute_residuals(lq_problem, lq_run.rec, 5)
    r10 = sc.compute_residuals(lq_problem, lq_run.rec, 10)
    assert r10.E_N2 == pytest.approx(r5.E_N2, rel=1e-2)


def test_lq_dense_residual_halves_at_least_four_fold(lq_problem):
    values = {}
    for n in (20, 40):
        run = sc.run_certification(lq_problem, sc.Mesh.uniform(1.0, n), "hermite-simpson")
        values[n] = run.residual_report.E_N2
    assert values[40] <= values[20] / 4.0


def test_node_sampled_residuals_near_machine(lq_run, quad_run):
    assert lq_run.residual_report.kkt_node_inf <= 1e-12
    assert quad_run.residual_report.kkt_node_inf <= 1e-10


def _perturbed_stat_norm(prob, rec, eps):
    t = rec.sample_times
    u_pert = rec.u_samples + eps * np.sin(np.pi * t / rec.T)[:, None]
    import dataclasses

    pert = dataclasses.replace(
        rec, U=rc.piecewise_linear(t, u_pert), u_samples=u_pert
    )
    return sc.compute_residuals(prob, pert).e_stat_L2


def test_control_perturbation_response_is_linear(lq_problem):
    # fine mesh keeps the baseline stationarity residual well below the
    # perturbation signal across the tested epsilon range
    run = sc.run_certification(lq_problem, sc.Mesh.uniform(1.0, 80), "hermite-simpson")
    eps = [1e-4, 1e-3, 1e-2]
    vals = [_perturbed_stat_norm(lq_problem, run.rec, e) for e in eps]
    for lo, hi in zip(vals, vals[1:]):
        assert 8.0 <= hi / lo <= 12.0
    slopes = [v / e for v, e in zip(vals, eps)]
    assert max(slopes) / min(slopes) <= 1.3


def test_worst_intervals_tie_break_and_spike():
    rep = rs.ResidualReport(
        e_dyn_L2=0.0, e_stat_L2=0.0, e_bc=0.0, E_N2=0.0,
        e_dyn_node_L2=0.0, e_stat_node_L2=0.0, E_N2_node=0.0, kkt_node_inf=0.0,
        e_dyn_inf=0.0, e_adj_inf=0.0, e_stat_inf=0.0, E_inf=0.0, E_inf_basic=0.0,
        e_bc_weighted=None,
        per_interval=[(0, 1.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 0.0)],
        quad_points=5, inf_samples_per_cell=21,
    )
    assert sc.worst_intervals(rep, 0.5) == [0, 1]
    rep.per_interval[2] = (2, 5.0, 0.0)
    assert sc.worst_intervals(rep, 0.25) == [2]
    with pytest.raises(Exception):
        sc.worst_intervals(rep, 0.0)


def test_worst_intervals_flag_coarse_region(lq_problem):
    # coarse left half, fine right half: the coarse intervals dominate
    nodes = np.concatenate([np.linspace(0, 0.5, 3), np.linspace(0.5, 1.0, 17)[1:]])
    run = sc.run_certification(lq_problem, sc.Mesh(nodes), "hermite-simpson")
    worst = sc.worst_intervals(run.residual_report, 0.1)
    assert all(k in (0, 1) for k in worst)
