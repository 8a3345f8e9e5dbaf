import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ssoc_certify as sc
from ssoc_certify import model, transcription as tr
from ssoc_certify.errors import MeshError

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def test_mesh_validation():
    with pytest.raises(MeshError):
        sc.Mesh([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(MeshError):
        sc.Mesh([0.1, 0.5, 1.0])
    mesh = sc.Mesh.uniform(2.0, 4)
    assert mesh.n_intervals == 4
    assert mesh.T == 2.0
    fine = mesh.bisect([1, 3])
    assert fine.n_intervals == 6
    assert set(np.round(mesh.nodes, 12)).issubset(set(np.round(fine.nodes, 12)))


def test_parse_scheme_accepts_only_registered_schemes(lq_problem):
    hs = tr.SCHEMES[tr.HERMITE_SIMPSON]
    assert tr.parse_scheme(tr.HERMITE_SIMPSON) is hs
    assert tr.parse_scheme(hs) is hs
    assert tr.parse_scheme(dataclasses.replace(hs)) == hs
    # the compressed collocation Jacobian assumes the registered block
    # order: with the two blocks swapped, double-integrator-lq at N=10
    # certified with sigma_min(M_h) 0.890 instead of 0.118
    swapped = dataclasses.replace(hs, state=hs.state[::-1], flow=hs.flow[::-1])
    for kind in (swapped, dataclasses.replace(hs, lebesgue=1.0), "simpson", None, ["trapezoidal"]):
        with pytest.raises(MeshError):
            tr.parse_scheme(kind)
    with pytest.raises(MeshError):
        sc.run_certification(lq_problem, sc.Mesh.uniform(lq_problem.T, 10), swapped)


def test_mesh_rejects_non_finite_nodes():
    # a NaN node would pass the ordering check and assemble, and surface
    # only as a non-finite dynamics value during the solve
    for make in (
        lambda: sc.Mesh([0.0, math.nan, 2.0]),
        lambda: sc.Mesh([0.0, 1.0, math.inf]),
        lambda: sc.Mesh.uniform(math.nan, 3),
    ):
        with pytest.raises(MeshError, match="finite"):
            make()


@pytest.mark.parametrize("count", [2.5, True, "3", 0, -1])
def test_uniform_mesh_rejects_a_count_that_is_not_a_positive_integer(count):
    # 2.5 used to leak a TypeError from linspace, True to build one interval
    with pytest.raises(MeshError, match="integer count"):
        sc.Mesh.uniform(1.0, count)


def test_uniform_mesh_accepts_numpy_integers():
    assert np.array_equal(sc.Mesh.uniform(1.0, np.int64(3)).nodes, sc.Mesh.uniform(1.0, 3).nodes)


def test_bisect_splits_duplicates_once_and_names_bad_indices():
    mesh = sc.Mesh.uniform(1.0, 4)
    assert np.array_equal(mesh.bisect([1, 1]).nodes, mesh.bisect([1]).nodes)
    assert np.array_equal(mesh.bisect([]).nodes, mesh.nodes)
    for bad, named in (([-1], r"\[-1\]"), ([4], r"\[4\]"), ([0, 7, -2, 7], r"\[-2, 7\]")):
        with pytest.raises(MeshError, match=named):
            mesh.bisect(bad)
    with pytest.raises(MeshError, match="integers"):
        mesh.bisect([0.5])


@st.composite
def _meshes(draw):
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12))
    return sc.Mesh(np.concatenate([[0.0], np.cumsum(steps)]))


@SETTINGS
@given(_meshes(), st.data())
def test_bisect_round_trip(mesh, data):
    picked = data.draw(
        st.lists(st.integers(0, mesh.n_intervals - 1), max_size=2 * mesh.n_intervals)
    )
    fine = mesh.bisect(picked)
    split = np.unique(np.asarray(picked, dtype=int))
    assert fine.n_intervals == mesh.n_intervals + split.size
    assert fine.T == mesh.T
    assert np.all(np.isin(mesh.nodes, fine.nodes))
    midpoints = 0.5 * (mesh.nodes[split] + mesh.nodes[split + 1])
    assert np.array_equal(np.setdiff1d(fine.nodes, mesh.nodes), np.sort(midpoints))


@SETTINGS
@given(
    st.sampled_from(["quadrotor", "double-integrator-lq"]),
    st.sampled_from(sorted(tr.SCHEMES)),
    st.integers(1, 6),
    st.data(),
)
def test_pack_unpack_round_trip_property(name, scheme, n_intervals, data):
    prob = sc.builtin_problem(name)
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, n_intervals), scheme)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    X = data.draw(arrays(float, (layout.n_samples, prob.n), elements=finite))
    U = data.draw(arrays(float, (layout.n_samples, prob.m), elements=finite))
    z = layout.pack(X, U)
    assert z.shape == (layout.n_z,)
    X2, U2 = layout.unpack(z)
    assert np.array_equal(X2, X) and np.array_equal(U2, U)
    assert np.array_equal(layout.pack(X2, U2), z)
    j = data.draw(st.integers(0, layout.n_samples - 1))
    assert np.array_equal(z[layout.state_slice(j)], X[j])


def _dividing_problem():
    """Callbacks that divide by constants and by AD values."""
    return model.OcpProblem(
        name="divide", n=2, m=1, T=1.5,
        dynamics=lambda t, x, u: [x[1] / 3.0, u[0] / (1.5 + x[0] * x[0])],
        running_cost=lambda t, x, u: (x[0] * x[0] + u[0] * u[0]) / 7.0
        + 1.0 / (2.0 + x[1] * x[1]),
        endpoint_cost=lambda x0, xT: xT[0] * xT[0] / 3.0 + xT[1] / (4.0 + xT[0] * xT[0]),
        boundary=lambda x0, xT: [x0[0] / 3.0 - xT[1] / (2.0 + x0[1] * x0[1])],
        n_b=1,
    )


@pytest.mark.parametrize("name", ["quadrotor", "double-integrator-lq", "divide"])
@pytest.mark.parametrize("scheme", sorted(tr.SCHEMES))
def test_eval_kkt_equals_single_purpose_evaluators_bitwise(name, scheme):
    # the line search evaluates f and c alone through eval_objective and
    # eval_defects; the Newton step takes them from eval_kkt, and the two
    # must agree exactly, also where the callbacks divide: an AD quotient
    # rounds as the plain one
    prob = _dividing_problem() if name == "divide" else sc.builtin_problem(name)
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 7), scheme)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.normal(size=layout.n_z)
        nu = rng.normal(size=layout.n_c)
        f, _, c, _, _ = tr.eval_kkt(prob, layout, z, nu)
        assert f == tr.eval_objective(prob, layout, z)
        assert np.array_equal(c, tr.eval_defects(prob, layout, z))


def _dense_kkt(prob, layout, z, nu=None):
    """(g, c, J, W) from eval_kkt, with J and W as dense arrays."""
    nu = np.zeros(layout.n_c) if nu is None else nu
    _, g, c, J, W = tr.eval_kkt(prob, layout, z, nu)
    return g, c, J.toarray(), W.toarray()


def test_layout_counts_lq_trapezoidal():
    prob = sc.builtin_problem("double-integrator-lq")
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 2), "trapezoidal")
    # 3 state nodes x 2 + 3 control nodes x 1
    assert layout.n_z == 9
    # 2 intervals x 2 defects + 2 fixed-initial-state rows
    assert layout.n_c == 6


def test_layout_counts_quadrotor_hermite_simpson():
    prob = sc.builtin_problem("quadrotor")
    N = 35
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, N), "hermite-simpson")
    samples = 2 * N + 1
    assert layout.n_z == samples * (prob.n + prob.m)
    assert layout.n_c == N * 2 * prob.n + prob.n
    assert layout.sample_times.size == samples


def test_single_interval_layout_is_valid():
    prob = sc.builtin_problem("double-integrator-lq")
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 1), "hermite-simpson")
    assert layout.n_z == 3 * 3
    assert layout.n_c == 2 * 2 + 2


def test_pack_unpack_round_trip():
    prob = sc.builtin_problem("quadrotor")
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 5), "hermite-simpson")
    rng = np.random.default_rng(5)
    X = rng.normal(size=(layout.n_samples, prob.n))
    U = rng.normal(size=(layout.n_samples, prob.m))
    X2, U2 = layout.unpack(layout.pack(X, U))
    assert np.array_equal(X, X2)
    assert np.array_equal(U, U2)


def _integrator_problem():
    # xdot = u with zero cost; used for exactness checks
    return model.OcpProblem(
        name="int", n=1, m=1, T=1.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: 0.0 * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        x0=np.array([0.0]),
    )


def test_trapezoidal_defect_exact_for_linear_integrand():
    prob = _integrator_problem()
    mesh = sc.Mesh.uniform(1.0, 4)
    layout = sc.assemble(prob, mesh, "trapezoidal")
    t = layout.sample_times
    U = (2.0 * t - 0.5)[:, None]  # piecewise-linear control
    X = (t**2 - 0.5 * t)[:, None]  # exact integral
    c = sc.eval_defects(prob, layout, layout.pack(X, U))
    assert np.max(np.abs(c[: mesh.n_intervals])) <= 1e-12


def test_trapezoidal_defect_hand_value_exponential():
    # xdot = x on [0, 0.1]: defect = e^0.1 - 1 - 0.05 (1 + e^0.1)
    prob = model.OcpProblem(
        name="exp", n=1, m=1, T=0.1,
        dynamics=lambda t, x, u: [x[0]],
        running_cost=lambda t, x, u: 0.0 * u[0],
        endpoint_cost=lambda x0, xT: 0.0 * xT[0],
        x0=np.array([1.0]),
    )
    layout = sc.assemble(prob, sc.Mesh([0.0, 0.1]), "trapezoidal")
    X = np.array([[1.0], [math.exp(0.1)]])
    U = np.zeros((2, 1))
    c = sc.eval_defects(prob, layout, layout.pack(X, U))
    expected = math.exp(0.1) - 1.0 - 0.05 * (1.0 + math.exp(0.1))
    assert c[0] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-8.7628e-05, rel=2e-4)


def test_hermite_simpson_defect_exact_for_cubic_state():
    prob = _integrator_problem()
    mesh = sc.Mesh.uniform(1.0, 3)
    layout = sc.assemble(prob, mesh, "hermite-simpson")
    t = layout.sample_times
    U = (3.0 * t**2 - 2.0 * t + 0.25)[:, None]  # quadratic slope samples
    X = (t**3 - t**2 + 0.25 * t)[:, None]  # exact cubic state
    c = sc.eval_defects(prob, layout, layout.pack(X, U))
    assert np.max(np.abs(c[: 2 * mesh.n_intervals * prob.n])) <= 1e-12


def test_constraint_jacobian_constant_for_linear_dynamics():
    prob = sc.builtin_problem("double-integrator-lq")
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 4), "hermite-simpson")
    rng = np.random.default_rng(2)
    J1 = _dense_kkt(prob, layout, rng.normal(size=layout.n_z))[2]
    J2 = _dense_kkt(prob, layout, rng.normal(size=layout.n_z))[2]
    assert np.array_equal(J1, J2)
    assert J1.shape == (layout.n_c, layout.n_z)


def _boundary_problem():
    # free initial state, two nonlinear boundary equations and an endpoint
    # cost coupling x(0) and x(T): exercises the boundary rows of J and the
    # x0-xT corner blocks of W
    return model.OcpProblem(
        name="bc", n=2, m=1, T=1.0,
        dynamics=lambda t, x, u: [x[1], u[0] - x[0] * x[1]],
        running_cost=lambda t, x, u: 0.5 * u[0] * u[0],
        endpoint_cost=lambda x0, xT: x0[1] * xT[0],
        boundary=lambda x0, xT: [xT[0] - 2.0 * x0[1], x0[0] * xT[1]],
        n_b=2,
    )


def _fd_cases(scheme):
    """(problem, layout, endpoint state columns) for the quadrotor and the boundary problem."""
    for prob in (sc.builtin_problem("quadrotor"), _boundary_problem()):
        layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 2), scheme)
        last = layout.state_slice(layout.n_samples - 1)
        yield prob, layout, np.r_[layout.state_slice(0), last]


@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
def test_objective_gradient_matches_finite_differences(scheme):
    # every column, so the boundary problem's x0[1] * xT[0] endpoint cost
    # is checked on both endpoint samples
    for prob, layout, _ in _fd_cases(scheme):
        rng = np.random.default_rng(10)
        for _ in range(5):
            z = rng.normal(size=layout.n_z)
            g = _dense_kkt(prob, layout, z, rng.normal(size=layout.n_c))[0]
            h = 1e-6
            fd = np.empty(layout.n_z)
            for col in range(layout.n_z):
                e = np.zeros(layout.n_z)
                e[col] = h
                fd[col] = (
                    tr.eval_objective(prob, layout, z + e)
                    - tr.eval_objective(prob, layout, z - e)
                ) / (2 * h)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
def test_constraint_jacobian_matches_finite_differences(scheme):
    for prob, layout, endpoint_cols in _fd_cases(scheme):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.normal(size=layout.n_z)
            J = _dense_kkt(prob, layout, z)[2]
            h = 1e-6
            cols = np.union1d(rng.choice(layout.n_z, size=8, replace=False), endpoint_cols)
            for col in cols:
                e = np.zeros(layout.n_z)
                e[col] = h
                fd = (
                    sc.eval_defects(prob, layout, z + e)
                    - sc.eval_defects(prob, layout, z - e)
                ) / (2 * h)
                scale = max(1.0, np.abs(fd).max())
                assert np.max(np.abs(J[:, col] - fd)) <= 1e-6 * scale


def test_lagrangian_hessian_symmetric_and_matches_fd():
    for prob, layout, endpoint_cols in _fd_cases("hermite-simpson"):
        rng = np.random.default_rng(12)
        z = rng.normal(size=layout.n_z) * 0.3
        nu = rng.normal(size=layout.n_c)
        W = _dense_kkt(prob, layout, z, nu)[3]
        assert np.max(np.abs(W - W.T)) <= 1e-12

        def lagr(zz):
            return tr.eval_objective(prob, layout, zz) + nu @ sc.eval_defects(
                prob, layout, zz
            )

        h = 1e-4
        cols = np.union1d(rng.choice(layout.n_z, size=6, replace=False), endpoint_cols)
        for i in cols:
            for j in cols:
                ei = np.zeros(layout.n_z)
                ej = np.zeros(layout.n_z)
                ei[i] = h
                ej[j] = h
                fd = (
                    lagr(z + ei + ej) - lagr(z + ei - ej) - lagr(z - ei + ej)
                    + lagr(z - ei - ej)
                ) / (4 * h * h)
                assert W[i, j] == pytest.approx(fd, abs=1e-4 * max(1.0, abs(fd)))


def _interval_loop_reference(layout, X, F, nu_defect):
    """Per-interval loop form of the scheme formulas: defects, s_j, w_j."""
    h, N, n = layout.mesh.h, layout.mesh.n_intervals, layout.n
    S = np.zeros((layout.n_samples, n))
    w = np.zeros(layout.n_samples)
    c = []
    if layout.scheme.kind == "trapezoidal":
        nu = nu_defect.reshape(N, n)
        for k in range(N):
            c.append(X[k + 1] - X[k] - 0.5 * h[k] * (F[k] + F[k + 1]))
            S[k] += -0.5 * h[k] * nu[k]
            S[k + 1] += -0.5 * h[k] * nu[k]
            w[k] += 0.5 * h[k]
            w[k + 1] += 0.5 * h[k]
    else:
        nu = nu_defect.reshape(N, 2, n)
        for k in range(N):
            a, mid, b = 2 * k, 2 * k + 1, 2 * k + 2
            c.append(X[b] - X[a] - h[k] / 6.0 * (F[a] + 4.0 * F[mid] + F[b]))
            c.append(X[mid] - 0.5 * (X[a] + X[b]) - h[k] / 8.0 * (F[a] - F[b]))
            S[a] += -h[k] / 6.0 * nu[k, 0] - h[k] / 8.0 * nu[k, 1]
            S[mid] += -4.0 * h[k] / 6.0 * nu[k, 0]
            S[b] += -h[k] / 6.0 * nu[k, 0] + h[k] / 8.0 * nu[k, 1]
            w[a] += h[k] / 6.0
            w[mid] += 4.0 * h[k] / 6.0
            w[b] += h[k] / 6.0
    return np.concatenate(c), S, w


@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
def test_coefficient_table_matches_interval_loop(scheme):
    # the table-driven, vectorized formulas sum in another order than the
    # loop: agreement to a few ulps of the largest term
    prob = sc.builtin_problem("quadrotor")
    rng = np.random.default_rng(4)
    nodes = np.sort(np.r_[0.0, rng.uniform(0.0, prob.T, 6), prob.T])
    layout = sc.assemble(prob, sc.Mesh(nodes), scheme)
    z = rng.normal(size=layout.n_z)
    nu = rng.normal(size=layout.n_c)
    X, U = layout.unpack(z)
    F = model.dynamics_batch(prob, layout.sample_times, X, U)
    c_ref, S_ref, w_ref = _interval_loop_reference(
        layout, X, F, nu[: layout.n_defect_rows]
    )
    tol = 8 * np.finfo(float).eps
    c = sc.eval_defects(prob, layout, z)[: layout.n_defect_rows]
    assert np.max(np.abs(c - c_ref)) <= tol * max(np.abs(X).max(), np.abs(F).max())
    S = tr.sample_multipliers(layout, nu)
    assert np.max(np.abs(S - S_ref)) <= tol * np.abs(nu).max()
    assert np.max(np.abs(tr.quadrature_weights(layout) - w_ref)) <= tol * prob.T


def test_lq_hessian_constant_block_structure():
    prob = sc.builtin_problem("double-integrator-lq")
    layout = sc.assemble(prob, sc.Mesh.uniform(prob.T, 3), "hermite-simpson")
    rng = np.random.default_rng(1)
    z = rng.normal(size=layout.n_z)
    nu = rng.normal(size=layout.n_c)
    W = _dense_kkt(prob, layout, z, nu)[3]
    W2 = _dense_kkt(prob, layout, np.zeros(layout.n_z))[3]
    assert np.allclose(W, W2, atol=1e-14)
    w = tr.quadrature_weights(layout)
    blk = W[layout.state_slice(1), layout.state_slice(1)]
    assert np.allclose(blk, w[1] * np.eye(2))


def test_constant_running_cost_quadrature_is_exact():
    prob = model.OcpProblem(
        name="const", n=1, m=1, T=2.0,
        dynamics=lambda t, x, u: [u[0]],
        running_cost=lambda t, x, u: 3.5 + 0.0 * u[0],
        endpoint_cost=lambda x0, xT: 1.25 + 0.0 * xT[0],
        x0=np.array([0.0]),
    )
    for scheme in ("trapezoidal", "hermite-simpson"):
        layout = sc.assemble(prob, sc.Mesh.uniform(2.0, 7), scheme)
        z = np.zeros(layout.n_z)
        assert tr.eval_objective(prob, layout, z) == pytest.approx(3.5 * 2.0 + 1.25, rel=1e-14)


def test_collocation_jacobian_compressed_shape(quad_run):
    run = quad_run
    layout = run.dkkt.layout
    prob = sc.builtin_problem("quadrotor")
    Jc = tr.compress_collocation_jacobian(layout, run.dkkt.kkt_matrices(prob)[0])
    N = layout.mesh.n_intervals
    n, m = layout.n, layout.m
    assert Jc.shape == (N * n + n, (N + 1) * n + layout.n_samples * m)
