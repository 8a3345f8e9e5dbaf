import numpy as np
import pytest

import ssoc_certify as sc
from ssoc_certify import ad, model
from ssoc_certify.errors import DimensionError, RegistryError


def test_registry_lists_builtins():
    assert sc.builtin_names() == ["double-integrator-lq", "quadrotor"]
    prob = sc.builtin_problem("quadrotor")
    assert (prob.n, prob.m, prob.T) == (6, 2, 2.0)
    lq = sc.builtin_problem("double-integrator-lq")
    assert (lq.n, lq.m) == (2, 1)


def test_registry_error_for_unknown_name():
    with pytest.raises(RegistryError, match="quadrotor"):
        sc.builtin_problem("foo")


def _hamiltonian(prob, t, x, u, p):
    """H = L + p.f and its Hessian Lh + sum_i p_i Hf_i over (x, u) at one point."""
    t, X, U = np.array([t]), x[None], u[None]
    F, _, _, Hf = model.dynamics_batch(prob, t, X, U, order=2)
    L, _, Lh = model.running_cost_batch(prob, t, X, U, order=2)
    return L[0] + p @ F[0], Lh[0] + np.einsum("i,ijk->jk", p, Hf[0])


def test_quadrotor_hover_equilibrium():
    prob = sc.builtin_problem("quadrotor")
    x = np.zeros((1, 6))
    u = np.array([[4.905, 4.905]])  # each rotor carries half the weight
    xdot = model.dynamics_batch(prob, 0.0, x, u)
    assert np.max(np.abs(xdot)) <= 1e-12


def test_quadrotor_angular_acceleration():
    prob = sc.builtin_problem("quadrotor")
    xdot = model.dynamics_batch(prob, 0.0, np.zeros((1, 6)), np.array([[5.0, 4.0]]))[0]
    assert xdot[5] == pytest.approx((0.3 / 0.2) * (5.0 - 4.0), abs=1e-14)


def test_dynamics_dimension_mismatch():
    # the callbacks unpack columns by position: a narrow batch must not reach
    # them (IndexError), nor a wide one be cut to the first n columns
    prob = sc.builtin_problem("quadrotor")
    t, X, U = np.zeros(3), np.zeros((3, 6)), np.zeros((3, 2))
    for X_bad in (np.zeros((3, 5)), np.zeros((3, 7))):
        with pytest.raises(DimensionError, match="state batch"):
            model.dynamics_batch(prob, t, X_bad, U)
        with pytest.raises(DimensionError, match="state batch"):
            model.running_cost_batch(prob, t, X_bad, U, order=2)
    for U_bad in (np.zeros((3, 3)), np.zeros((2, 2))):
        with pytest.raises(DimensionError, match="control batch"):
            model.dynamics_batch(prob, t, X, U_bad)
    for P in (np.zeros((3, 5)), np.zeros((2, 6))):
        with pytest.raises(DimensionError, match="costate batch"):
            model.hamiltonian_batch(prob, t, X, U, P)


@pytest.mark.parametrize(
    "field, value",
    [("x0", [1.0]), ("x_target", [5.0]), ("x_target", [0.0, 0.0, 0.0]), ("u_guess", [0.0, 0.0])],
)
def test_problem_vectors_must_match_dimensions(field, value):
    # a short x_target used to broadcast against the terminal state
    fields = dict(vars(sc.builtin_problem("double-integrator-lq")), **{field: value})
    with pytest.raises(DimensionError, match=field):
        model.OcpProblem(**fields)


def test_hamiltonian_with_zero_costate_is_running_cost_bitwise():
    prob = sc.builtin_problem("quadrotor")
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=6)
        u = rng.normal(size=2)
        t = np.array([0.3])
        F, H_x, H_u = model.hamiltonian_batch(prob, t, x[None], u[None], np.zeros((1, 6)))
        _, Lg = model.running_cost_batch(prob, t, x[None], u[None], order=1)
        assert np.array_equal(H_x, Lg[:, :6]) and np.array_equal(H_u, Lg[:, 6:])
        assert np.array_equal(F, model.dynamics_batch(prob, t, x[None], u[None]))


def test_quadrotor_h_uu_is_control_weight_matrix():
    prob = sc.builtin_problem("quadrotor")
    rng = np.random.default_rng(1)
    for _ in range(10):
        _, hess = _hamiltonian(
            prob, rng.uniform(0, 2), rng.normal(size=6), rng.normal(size=2),
            rng.normal(size=6),
        )
        H_uu, H_xx = hess[6:, 6:], hess[:6, :6]
        assert np.allclose(H_uu, np.diag([0.01, 0.01]), atol=1e-14)
        assert np.max(np.abs(H_uu - H_uu.T)) <= 1e-12
        assert np.max(np.abs(H_xx - H_xx.T)) <= 1e-12


def _fd_hx(prob, t, x, u, p, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        hp = _hamiltonian(prob, t, x + e, u, p)[0]
        hm = _hamiltonian(prob, t, x - e, u, p)[0]
        g[i] = (hp - hm) / (2 * h)
    return g


@pytest.mark.parametrize("name", ["quadrotor", "double-integrator-lq"])
def test_hamiltonian_gradient_matches_finite_differences(name):
    prob = sc.builtin_problem(name)
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = rng.uniform(0, prob.T)
        x = rng.normal(size=prob.n)
        u = rng.normal(size=prob.m)
        p = rng.normal(size=prob.n)
        H_x = model.hamiltonian_batch(prob, np.array([t]), x[None], u[None], p[None])[1][0]
        fd = _fd_hx(prob, t, x, u, p)
        assert np.max(np.abs(H_x - fd)) <= 1e-6 * max(1.0, np.abs(fd).max())


def test_endpoint_terms_quadrotor():
    prob = sc.builtin_problem("quadrotor")
    x_f = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    ept = sc.eval_endpoint_terms(prob, prob.x0, x_f)
    assert ept.K == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(ept.K_xT)) <= 1e-12  # gradient vanishes at the target
    assert np.allclose(ept.K_hess[6:, 6:], 100.0 * np.eye(6))
    assert np.max(np.abs(ept.K_hess[:6, :6])) == 0.0
    # no boundary map: empty blocks
    assert ept.b.shape == (0,)
    assert ept.b_x0.shape == (0, 6)


def test_endpoint_terms_with_boundary_map():
    def boundary(x0, xT):
        return [xT[0] - 2.0 * x0[1], x0[0] * xT[1]]

    prob = model.OcpProblem(
        name="bc", n=2, m=1, T=1.0,
        dynamics=lambda t, x, u: [x[1], u[0]],
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        boundary=boundary, n_b=2,
    )
    x0 = np.array([0.3, -0.7])
    xT = np.array([1.1, 0.5])
    ept = sc.eval_endpoint_terms(prob, x0, xT, np.array([2.0, -1.0]))
    assert np.allclose(ept.b, [1.1 + 1.4, 0.15])
    assert np.allclose(ept.b_x0, [[0.0, -2.0], [0.5, 0.0]])
    assert np.allclose(ept.b_xT, [[1.0, 0.0], [0.0, 0.3]])
    # lagr_hess picks up lam . b second derivatives: b_2 has d2/dx0[0] dxT[1] = 1
    assert ept.lagr_hess[0, 3] == pytest.approx(-1.0)


def _endpoint_batch_problems():
    bc = model.OcpProblem(
        name="bc", n=2, m=1, T=1.0,
        dynamics=lambda t, x, u: [x[1], u[0]],
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0],
        endpoint_cost=lambda x0, xT: x0[1] * xT[0] + ad.sin(xT[1]) * x0[0],
        boundary=lambda x0, xT: [xT[0] - 2.0 * x0[1], x0[0] * xT[1]],
        n_b=2,
    )
    constant_endpoint = model.OcpProblem(
        name="concave", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: -u[0] * u[0] + x[0] * x[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
    )
    return [sc.builtin_problem("quadrotor"), sc.builtin_problem("double-integrator-lq"),
            bc, constant_endpoint]


@pytest.mark.parametrize("prob", _endpoint_batch_problems(), ids=lambda p: p.name)
def test_endpoint_hessian_batch_rows_equal_single_point_bitwise(prob):
    rng = np.random.default_rng(5)
    X0 = rng.normal(size=(7, prob.n))
    XT = rng.normal(size=(7, prob.n))
    K_hess = model.endpoint_hessian_batch(prob, X0, XT)
    assert K_hess.shape == (7, 2 * prob.n, 2 * prob.n)
    for b in range(7):
        assert np.array_equal(K_hess[b], sc.eval_endpoint_terms(prob, X0[b], XT[b]).K_hess)
