"""Sparse certification kernels against the dense reference kernels.

The certification path factors and projects sparse matrices; the dense
kernels of ``oracles`` (full SVD null-space basis, SVD sigma_min, the saddle
matrix) and the LDL^T solve of ``numerics`` stay as the oracle.  Both run on
the same discrete quadrotor KKT points, for both schemes, at two mesh sizes.
"""

import numpy as np
import pytest
import scipy.linalg

import ssoc_certify as sc
from oracles import kkt_matrix, nullspace_basis, sigma_min
from ssoc_certify import certify, constants as cn, numerics, solver, transcription as tr

CASES = [(scheme, n) for scheme in ("hermite-simpson", "trapezoidal") for n in (35, 70)]


@pytest.fixture(scope="module", params=CASES, ids=[f"{s}-{n}" for s, n in CASES])
def kkt_point(request, quad_problem):
    scheme, n = request.param
    dkkt, rep = sc.solve(quad_problem, sc.Mesh.uniform(quad_problem.T, n), scheme)
    assert rep.converged
    return dkkt


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_curvature_and_sigma_min_match_dense_oracle(kkt_point, quad_problem):
    layout = kkt_point.layout
    J, W = kkt_point.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(layout)
    Mh = tr.compress_collocation_jacobian(layout, J)
    curv = sc.reduced_curvature(W, J, M)
    smin = cn.estimate_C_geo(Mh)["sigma_min_Mh"]

    Z = nullspace_basis(J.toarray())
    A = Z.T @ W.toarray() @ Z
    B = Z.T @ M.toarray() @ Z
    alpha = scipy.linalg.eigh(A, B, eigvals_only=True)[0]
    alpha_euclid = np.linalg.eigvalsh(A)[0]
    smin_dense = sigma_min(Mh.toarray())

    assert curv.null_dim == Z.shape[1]
    assert _rel(curv.alpha_hat, alpha) <= 1e-8
    assert _rel(curv.alpha_hat_euclidean, alpha_euclid) <= 1e-8
    assert _rel(smin, smin_dense) <= 1e-8


def test_newton_step_matches_ldl_solve(kkt_point, quad_problem):
    # the first Newton step from the solver's default initial guess
    layout = kkt_point.layout
    z0 = solver.default_initial_guess(quad_problem, layout)
    g, c, J, W = tr.eval_kkt(quad_problem, layout, z0, np.zeros(layout.n_c))
    dz, nu, delta = sc.newton_step(W, J, g, c)

    ref = numerics.LdlFactorization(kkt_matrix(W.toarray(), J.toarray(), delta)).solve(
        -np.concatenate([g, c])
    )
    sol = np.concatenate([dz, nu])
    assert np.max(np.abs(sol - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_nullspace_basis_independent_of_solve_width(kkt_point, quad_problem, monkeypatch):
    # SuperLU solves every column alike, so the number of columns per solve
    # leaves Z bitwise equal; only the draw block fixes it
    J, _ = kkt_point.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(kkt_point.layout)
    Z = numerics.nullspace_basis_sparse(J, M)
    for width in (1, 5, numerics.PROJECTION_BLOCK):
        monkeypatch.setattr(numerics, "SOLVE_BLOCK", width)
        assert np.array_equal(numerics.nullspace_basis_sparse(J, M), Z), width


def test_blocked_curvature_products_equal_one_product(kkt_point, quad_problem):
    # the sparse product sums every column alike, so reduced_curvature's
    # column blocks leave W Z and M Z bitwise equal
    J, W = kkt_point.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(kkt_point.layout)
    Z = numerics.nullspace_basis_sparse(J, M)
    for S in (W, M):
        assert np.array_equal(certify._sparse_times(S, Z), S @ Z)
