import dataclasses
import math

import numpy as np
import pytest
from oracles import dense_ad

import ssoc_certify as sc
from ssoc_certify import ad, model
from ssoc_certify.errors import (
    ContractError,
    DimensionError,
    EvaluationDomainError,
    RegistryError,
)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["x0", "x_target", "u_guess"])
def test_problem_vectors_must_be_finite(field, bad):
    # the solve used to fail on them with "non-finite value in running
    # cost" or "... in dynamics", blaming a callback for the bad input
    lq = sc.builtin_problem("double-integrator-lq")
    value = np.zeros(lq.m if field == "u_guess" else lq.n)
    value[0] = bad
    with pytest.raises(DimensionError, match=f"{field} must be finite"):
        dataclasses.replace(lq, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("T", math.nan),("T", math.inf), ("T", 0.0), ("T", -1.0), ("n", 1.5), ("n", True)],
)
def test_problem_rejects_bad_horizon_and_dimensions(field, value):
    # inf > inf is False, so an infinite T would pass the mesh's horizon
    # check and certify on a mesh of any length
    fields = dict(vars(sc.builtin_problem("double-integrator-lq")), **{field: value})
    with pytest.raises(DimensionError, match="horizon" if field == "T" else "dimensions"):
        model.OcpProblem(**fields)


def _reach_half(x0, xT):
    return [xT[0] - 0.5]


def test_boundary_map_without_n_b_is_rejected():
    # with n_b = 0 the transcription never read the map: the solve ended at
    # x(T)_0 = 0.806 and certified a problem without the boundary equation
    lq = sc.builtin_problem("double-integrator-lq")
    with pytest.raises(DimensionError, match="n_b=0 with a boundary map"):
        dataclasses.replace(lq, boundary=_reach_half)
    prob = dataclasses.replace(lq, boundary=_reach_half, n_b=1)
    run = sc.run_certification(prob, sc.Mesh.uniform(prob.T, 10), "trapezoidal")
    assert run.rec.X.eval(prob.T)[0] == pytest.approx(0.5, abs=1e-9)


def test_n_b_without_boundary_map_is_rejected():
    # the solve used to call None and leak a TypeError
    lq = sc.builtin_problem("double-integrator-lq")
    with pytest.raises(DimensionError, match="n_b=1 without a boundary map"):
        dataclasses.replace(lq, n_b=1)


def test_dependency_masks_list_no_plain_or_affine_output_as_curved():
    # outputs: a plain constant, a seed, an affine combination, a product
    # of two seeds (constant nonzero Hessian) and a curved scalar function
    def dynamics(t, x, u):
        return [1.5, x[0], 2.0 * x[1] - u[0] + 3.0, x[0] * u[0], ad.sin(x[1])]

    prob = model.OcpProblem(
        name="mixed", n=5, m=1, T=1.0, dynamics=dynamics,
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
    )
    _, _, curved = model.dependency_masks(prob, 0.0, np.full(5, 0.3), np.array([0.2]))
    assert curved.tolist() == [3, 4]
    affine = dataclasses.replace(prob, dynamics=lambda t, x, u: [1.5, x[0], 2.0 * x[1], x[3], u[0]])
    assert model.dependency_masks(affine, 0.0, np.zeros(5), np.zeros(1))[2].size == 0


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


@pytest.mark.parametrize("name", ["quadrotor", "double-integrator-lq"])
def test_first_order_calls_equal_second_order_parts_bitwise(name):
    # order 1 seeds first-order AD values, which form no Hessian; every
    # first-derivative entry must still come out as in the order-2 call
    prob = sc.builtin_problem(name)
    rng = np.random.default_rng(4)
    B = 9
    t = np.linspace(0.0, prob.T, B)
    X, U, P = rng.normal(size=(B, prob.n)), rng.normal(size=(B, prob.m)), rng.normal(size=(B, prob.n))
    F, Fx, Fu, _ = model.dynamics_batch(prob, t, X, U, order=2)
    for got, want in zip(model.dynamics_batch(prob, t, X, U, order=1), (F, Fx, Fu)):
        assert np.array_equal(got, want)
    _, Lg, _ = model.running_cost_batch(prob, t, X, U, order=2)
    F1, H_x, H_u = model.hamiltonian_batch(prob, t, X, U, P)
    assert np.array_equal(F1, F)
    assert np.array_equal(H_x, Lg[:, : prob.n] + np.einsum("bi,bij->bj", P, Fx))
    assert np.array_equal(H_u, Lg[:, prob.n :] + np.einsum("bi,bij->bj", P, Fu))

    d = prob.n + prob.m
    xs = ad.seed_vector(X, 0, d, first_order=True)
    us = ad.seed_vector(U, prob.n, d, first_order=True)
    for c in [*prob.dynamics(t, xs, us), prob.running_cost(t, xs, us)]:
        if isinstance(c, ad.AdScalar2):
            assert c.first_order
            with pytest.raises(ContractError):
                c.hess


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


def _bc_problem(fns=ad):
    """Endpoint cost and boundary map written against the AD namespace ``fns``."""
    return model.OcpProblem(
        name="bc", n=2, m=1, T=1.0,
        dynamics=lambda t, x, u: [x[1], u[0]],
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0],
        endpoint_cost=lambda x0, xT: x0[1] * xT[0] + fns.sin(xT[1]) * x0[0],
        boundary=lambda x0, xT: [xT[0] - 2.0 * x0[1], x0[0] * xT[1]],
        n_b=2,
    )


def _endpoint_batch_problems():
    bc = _bc_problem()
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


def test_boundary_map_terms_equal_dense_rules_bitwise():
    """The boundary-map path, which no builtin exercises, against a
    per-component reading of the dense reference rules."""
    rng = np.random.default_rng(8)
    x0, xT, lam = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
    ept = sc.eval_endpoint_terms(_bc_problem(), x0, xT, lam)
    dense = _bc_problem(dense_ad)
    x0s, xTs = dense_ad.seed_vector(x0[None], 0, 4), dense_ad.seed_vector(xT[None], 2, 4)
    K = dense.endpoint_cost(x0s, xTs)
    out = dense.boundary(x0s, xTs)
    lagr_hess = K.hess[0].copy()
    for lam_i, c in zip(lam, out):
        lagr_hess += lam_i * c.hess[0]
    want = {
        "b": [c.val[0] for c in out],
        "b_x0": [c.grad[0, :2] for c in out],
        "b_xT": [c.grad[0, 2:] for c in out],
        "K_hess": K.hess[0],
        "lagr_hess": lagr_hess,
    }
    for name, value in want.items():
        assert np.array_equal(getattr(ept, name), np.array(value)), name
    assert np.any(ept.lagr_hess != ept.K_hess)


@pytest.mark.parametrize("prob", _endpoint_batch_problems(), ids=lambda p: p.name)
def test_lower_order_endpoint_fields_equal_order_2_bitwise(prob):
    rng = np.random.default_rng(6)
    x0, xT, lam = rng.normal(size=prob.n), rng.normal(size=prob.n), rng.normal(size=prob.n_b)
    full = sc.eval_endpoint_terms(prob, x0, xT, lam)
    filled_at = {"K", "b"}, {"K", "b", "K_x0", "K_xT", "b_x0", "b_xT"}
    for order, filled in enumerate(filled_at):
        ept = sc.eval_endpoint_terms(prob, x0, xT, lam, order=order)
        for field in dataclasses.fields(ept):
            got = getattr(ept, field.name)
            if field.name in filled:
                assert np.array_equal(got, getattr(full, field.name)), field.name
            else:
                assert got is None, field.name


@pytest.mark.parametrize("order", [0, 1, 2])
def test_non_finite_output_names_its_component(order):
    prob = model.OcpProblem(
        name="pole", n=2, m=1, T=1.0,
        dynamics=lambda t, x, u: [x[1], u[0] / x[0]],
        running_cost=lambda t, x, u: 1.0 / x[0],
        endpoint_cost=lambda x0, xT: 1.0 / xT[1],
    )
    X = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    U = np.ones((3, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for call, what, comp in (
            (lambda: model.dynamics_batch(prob, np.zeros(3), X, U, order), "dynamics", 1),
            (lambda: model.running_cost_batch(prob, np.zeros(3), X, U, order), "running", 0),
            (lambda: sc.eval_endpoint_terms(prob, X[0], X[2], order=order), "endpoint", 0),
        ):
            with pytest.raises(EvaluationDomainError, match=what) as err:
                call()
            assert err.value.component == comp


def test_non_finite_derivative_at_finite_value_names_its_part():
    # |x| = sqrt(x^2) is finite at x = 0, its derivative is not
    prob = model.OcpProblem(
        name="kink", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0] + 1e-3 * ad.sqrt(x[0] * x[0]),
        endpoint_cost=lambda x0, xT: 0.5 * xT[0] * xT[0],
        x0=np.zeros(1),
    )
    what = "non-finite gradient in running cost"
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationDomainError, match=what) as err:
            model.running_cost_batch(prob, np.zeros(2), np.zeros((2, 1)), np.ones((2, 1)), 2)
        assert err.value.component == 0
        with pytest.raises(EvaluationDomainError, match=what):
            sc.run_certification(prob, sc.Mesh.uniform(prob.T, 5), "hermite-simpson")
