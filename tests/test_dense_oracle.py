"""Sparse certification kernels against the dense reference kernels.

The certification path factors sparse matrices and runs Lanczos on them; the
dense kernels of ``oracles`` (full SVD null-space basis, SVD sigma_min, the
saddle matrix), dense generalized eigensolves and the LDL^T solve of
``numerics`` stay as the oracle.  Both run on the same discrete quadrotor KKT
points, for both schemes, at two mesh sizes, and on random small problems.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _dense_curvature(W, J, M):
    """(alpha_hat, alpha_hat_euclidean, null_dim) from an SVD basis of null(J)."""
    W, J, M = (np.asarray(a.toarray() if scipy.sparse.issparse(a) else a) for a in (W, J, M))
    Z = nullspace_basis(J)
    A = Z.T @ W @ Z
    alpha = scipy.linalg.eigh(A, Z.T @ M @ Z, eigvals_only=True)[0]
    return alpha, np.linalg.eigvalsh(A)[0], Z.shape[1]


def test_curvature_and_sigma_min_match_dense_oracle(kkt_point, quad_problem):
    layout = kkt_point.layout
    J, W = kkt_point.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(layout)
    Mh = tr.compress_collocation_jacobian(layout, J)
    curv = sc.reduced_curvature(W, J, M)
    smin = cn.estimate_C_geo(Mh)

    alpha, alpha_euclid, null_dim = _dense_curvature(W, J, M)
    smin_dense = sigma_min(Mh.toarray())

    assert curv.null_dim == null_dim
    assert curv.shift == 0.0  # W + rho J^T J passes the LDL^T test
    assert _rel(curv.alpha_hat, alpha) <= 1e-8
    assert _rel(curv.alpha_hat_euclidean, alpha_euclid) <= 1e-8
    assert _rel(smin, smin_dense) <= 1e-8


def test_newton_step_matches_ldl_solve(kkt_point, quad_problem):
    # the first Newton step from the solver's default initial guess
    layout = kkt_point.layout
    z0 = solver.default_initial_guess(quad_problem, layout)
    _, g, c, J, W = tr.eval_kkt(quad_problem, layout, z0, np.zeros(layout.n_c))
    dz, nu, delta = sc.newton_step(W, J, g, c)

    ref = numerics.LdlFactorization(kkt_matrix(W.toarray(), J.toarray(), delta)).solve(
        -np.concatenate([g, c])
    )
    sol = np.concatenate([dz, nu])
    assert np.max(np.abs(sol - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("c", [0.0095, 0.02, 0.5])
def test_indefinite_curvature_through_gershgorin_shift(c, quad_run, quad_problem, monkeypatch):
    # W - cM is indefinite on null(J): the LDL^T test fails, and the shift
    # falls back to the Gershgorin floor below the spectrum
    J, W = quad_run.dkkt.kkt_matrices(quad_problem)
    M = tr.variation_gram_sparse(quad_run.dkkt.layout)
    tests = []
    ldl_positive_definite = certify.ldl_positive_definite

    def recording(A):
        tests.append(ldl_positive_definite(A))
        return tests[-1]

    monkeypatch.setattr(certify, "ldl_positive_definite", recording)
    curv = sc.reduced_curvature(W - c * M, J, M)
    alpha, alpha_euclid, _ = _dense_curvature(W - c * M, J, M)

    assert tests == [False]
    assert curv.shift < 0.0
    assert curv.alpha_hat < 0.0 and curv.alpha_hat_euclidean < 0.0
    assert _rel(curv.alpha_hat, alpha) <= 1e-8
    assert _rel(curv.alpha_hat_euclidean, alpha_euclid) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(2, 14),
    frac_c=st.floats(0.0, 0.9),
    diag_shift=st.integers(-30, 30).map(lambda k: k / 10),
)
def test_random_problems_match_dense_oracle(seed, n_z, frac_c, diag_shift):
    # full-row-rank sparse J (a strictly diagonally dominant leading block),
    # symmetric W that may be indefinite on null(J), positive diagonal M
    rng = np.random.default_rng(seed)
    n_c = min(int(frac_c * n_z), n_z - 1)
    J = rng.normal(size=(n_c, n_z)) * (rng.random((n_c, n_z)) < 0.4)
    J[:, :n_c] += np.diag(1.0 + np.abs(J[:, :n_c]).sum(axis=1))
    B = rng.normal(size=(n_z, n_z)) * (rng.random((n_z, n_z)) < 0.5)
    W = 0.5 * (B + B.T) + diag_shift * np.eye(n_z)
    M = np.diag(rng.uniform(0.05, 3.0, n_z))

    curv = sc.reduced_curvature(scipy.sparse.csr_matrix(W), scipy.sparse.csr_matrix(J), M)
    alpha, alpha_euclid, null_dim = _dense_curvature(W, J, M)
    scale = max(1.0, np.max(np.abs(W)) / np.min(np.diag(M)))

    assert curv.null_dim == null_dim
    assert abs(curv.alpha_hat - alpha) <= 1e-8 * scale
    assert abs(curv.alpha_hat_euclidean - alpha_euclid) <= 1e-8 * max(1.0, np.max(np.abs(W)))
