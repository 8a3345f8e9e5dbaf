import numpy as np
import pytest
import scipy.sparse

import ssoc_certify as sc
from oracles import kkt_matrix, nullspace_basis, sigma_min, sym_eig_min
from test_transcription import _boundary_problem
from ssoc_certify import numerics, solver, transcription
from ssoc_certify.errors import ConstraintQualificationError, ContractError


def char_poly_roots(A):
    """Eigenvalues via the trace-recursion characteristic polynomial.

    Faddeev-LeVerrier coefficients followed by a companion-matrix root
    solve; independent of the symmetric eigensolver under test.
    """
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ Mk) / k)
    return np.roots(coeffs)


def test_sym_eig_min_diagonal():
    assert sym_eig_min(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)
    assert sym_eig_min(np.eye(5)) == pytest.approx(1.0)


def test_sym_eig_min_rejects_asymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ContractError):
        sym_eig_min(A)


def test_sym_eig_min_matches_char_poly_roots():
    rng = np.random.default_rng(21)
    for _ in range(10):
        B = rng.normal(size=(8, 8))
        A = 0.5 * (B + B.T)
        lo = sym_eig_min(A)
        roots = char_poly_roots(A)
        assert np.max(np.abs(roots.imag)) <= 1e-7
        assert lo == pytest.approx(np.min(roots.real), abs=1e-8)


def test_sym_eig_min_orthogonal_invariance():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(7, 7))
    A = 0.5 * (B + B.T)
    Q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    A_rot = Q.T @ A @ Q
    A_rot = 0.5 * (A_rot + A_rot.T)
    assert sym_eig_min(A_rot) == pytest.approx(
        sym_eig_min(A), abs=1e-9
    )


def test_sigma_min_basics():
    assert sigma_min(np.eye(4)) == pytest.approx(1.0)
    assert sigma_min(np.diag([2.0, 0.5])) == pytest.approx(0.5)


def test_sigma_min_inverse_norm_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        A = rng.normal(size=(8, 8))
        smin = sigma_min(A)
        inv_norm = np.linalg.norm(np.linalg.inv(A), 2)
        assert smin * inv_norm == pytest.approx(1.0, abs=1e-8)


def test_sigma_min_equals_sqrt_eig_of_gram():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.normal(size=(6, 9))
        smin = sigma_min(A)
        gram_eig = sym_eig_min(A @ A.T)
        assert smin == pytest.approx(np.sqrt(max(gram_eig, 0.0)), abs=1e-8)


def _planted(rng, shape, ratio):
    """A dense matrix with singular values 100, 10 ... 1 and 100 * ratio."""
    k = min(shape)
    U, _ = np.linalg.qr(rng.normal(size=(shape[0], k)))
    V, _ = np.linalg.qr(rng.normal(size=(shape[1], k)))
    s = np.concatenate([[100.0], np.geomspace(10.0, 1.0, k - 2), [100.0 * ratio]])
    return U @ np.diag(s) @ V.T


@pytest.mark.parametrize("ratio", [1e-10, 1e-13])
@pytest.mark.parametrize("shape", [(4, 6), (12, 30), (6, 4)])
def test_numerics_sigma_min_below_sqrt_eps(shape, ratio):
    # sigma_min/sigma_max below sqrt(eps): a Gram matrix B B^T would square
    # it below eps, so its factorization cannot resolve sigma_min
    rng = np.random.default_rng(37)
    for _ in range(10):
        A = _planted(rng, shape, ratio)
        expected = np.linalg.svd(A, compute_uv=False)[-1]
        got = numerics.sigma_min(scipy.sparse.csr_matrix(A))
        assert got == pytest.approx(expected, rel=1e-2)


def test_numerics_sigma_min_of_duplicate_rows_is_zero():
    A = np.random.default_rng(43).normal(size=(4, 6))
    A[2] = A[1]
    assert numerics.sigma_min(A) == 0.0
    assert numerics.sigma_min(A.T) == 0.0


def test_nullspace_basis_simple():
    Z = nullspace_basis(np.array([[1.0, 0.0, 0.0]]))
    assert Z.shape == (3, 2)
    assert np.allclose(Z.T @ Z, np.eye(2), atol=1e-12)
    assert np.max(np.abs(Z[0])) <= 1e-12


def test_nullspace_basis_random_full_rank():
    rng = np.random.default_rng(17)
    J = rng.normal(size=(5, 12))
    Z = nullspace_basis(J)
    assert Z.shape == (12, 7)
    assert np.max(np.abs(J @ Z)) <= 1e-10
    assert np.allclose(Z.T @ Z, np.eye(7), atol=1e-12)


def test_nullspace_basis_square_invertible_empty():
    rng = np.random.default_rng(19)
    J = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    Z = nullspace_basis(J)
    assert Z.shape == (4, 0)


def test_nullspace_basis_rank_deficient_raises():
    J = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # duplicated direction
    with pytest.raises(ConstraintQualificationError):
        nullspace_basis(J)


def test_ldl_factorization_inertia_and_solve():
    rng = np.random.default_rng(23)
    W = np.eye(3)
    J = np.array([[1.0, 1.0, 1.0]])
    K = kkt_matrix(W, J)
    fact = numerics.LdlFactorization(K)
    assert fact.inertia == (3, 1, 0)
    b = rng.normal(size=4)
    x = fact.solve(b)
    assert np.max(np.abs(K @ x - b)) <= 1e-12


def _banded_symmetric(rng, n, k):
    """A random symmetric matrix of half bandwidth k."""
    B = np.triu(np.tril(rng.normal(size=(n, n)), k), -k)
    return 0.5 * (B + B.T)


def test_ldl_positive_definite_matches_eigenvalues():
    rng = np.random.default_rng(29)
    for shift in (-3.0, -0.5, 0.5, 3.0):
        B = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
        A = 0.5 * (B + B.T) + shift * np.eye(9)
        expected = np.linalg.eigvalsh(A)[0] > 0.0
        assert numerics.ldl_positive_definite(scipy.sparse.csr_matrix(A)) == expected, shift
    # banded matrices on both sides of definiteness; a corner coupling
    # (x(0) with x(T)) that only the folded order keeps banded
    for n, k in ((40, 3), (61, 6)):
        A = _banded_symmetric(rng, n, k)
        A[0, -1] = A[-1, 0] = 0.5
        lowest = np.linalg.eigvalsh(A)[0]
        for margin in (-0.1, 0.1):
            shifted = scipy.sparse.csr_matrix(A + (margin - lowest) * np.eye(n))
            assert numerics.ldl_positive_definite(shifted) == (margin > 0.0), (n, margin)
    # an exactly singular matrix and a zero diagonal (off-diagonal pivot) fail
    assert not numerics.ldl_positive_definite(np.diag([1.0, 0.0, 2.0]))
    assert not numerics.ldl_positive_definite(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_saddle_lu_matches_dense_solve(quad_problem, delta):
    mesh = sc.Mesh.uniform(quad_problem.T, 10)
    layout = transcription.assemble(quad_problem, mesh, "hermite-simpson")
    rng = np.random.default_rng(31)
    z = solver.default_initial_guess(quad_problem, layout) + 0.1 * rng.normal(size=layout.n_z)
    _, _, _, J, W = transcription.eval_kkt(quad_problem, layout, z, rng.normal(size=layout.n_c))
    b = rng.normal(size=layout.n_z + layout.n_c)
    lu = numerics.saddle_lu(W, J, delta)
    assert lu.shape == (b.size, b.size)
    ref = np.linalg.solve(kkt_matrix(W.toarray(), J.toarray(), delta), b)
    assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))
    # a vector shift is the same diagonal
    vector = numerics.saddle_lu(W, J, np.full(layout.n_z, delta))
    assert np.array_equal(vector.solve(b), lu.solve(b))


def test_saddle_lu_zero_pivot_is_none():
    J = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert numerics.saddle_lu(np.eye(3), J) is None


@pytest.mark.parametrize("problem", ["boundary", "quadrotor"])
def test_saddle_band_does_not_grow_with_mesh(problem):
    # the boundary problem couples x(0) and x(T) through its boundary rows
    # and its endpoint cost: only the folded order keeps its band narrow
    prob = _boundary_problem() if problem == "boundary" else sc.builtin_problem(problem)
    bands = []
    for n in (10, 40):
        layout = transcription.assemble(prob, sc.Mesh.uniform(prob.T, n), "hermite-simpson")
        rng = np.random.default_rng(n)
        z = rng.normal(size=layout.n_z)
        _, g, c, J, W = transcription.eval_kkt(prob, layout, z, rng.normal(size=layout.n_c))
        lu = numerics.saddle_lu(W, J)
        bands.append((lu.kl, lu.ku))
        folded = lu.pos[layout.n_z - 1] < lu.pos[layout.n_z // 2]
        assert folded == (problem == "boundary")
        dz, nu, delta = solver.newton_step(W, J, g, c)
        ref = np.linalg.solve(kkt_matrix(W.toarray(), J.toarray(), delta), -np.concatenate([g, c]))
        assert np.max(np.abs(np.concatenate([dz, nu]) - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert bands[0] == bands[1]


def test_saddle_order_is_read_once_per_nonzero_pattern(quad_problem, monkeypatch):
    mesh = sc.Mesh.uniform(quad_problem.T, 10)
    layout = transcription.assemble(quad_problem, mesh, "hermite-simpson")
    rng = np.random.default_rng(5)
    reads = []
    inner = numerics._saddle_positions
    monkeypatch.setattr(
        numerics, "_saddle_positions", lambda *args: reads.append(1) or inner(*args)
    )
    monkeypatch.setattr(numerics, "_ORDERS", [])
    # the cold start's zero controls leave exact zeros in J and W: another pattern
    cold = solver.default_initial_guess(quad_problem, layout)
    warm = cold + 0.1 * rng.normal(size=layout.n_z)
    b = rng.normal(size=layout.n_z + layout.n_c)
    solves = []
    for z in (warm, warm, cold, warm):
        _, _, _, J, W = transcription.eval_kkt(quad_problem, layout, z, rng.normal(size=layout.n_c))
        if z is cold:
            assert J.nnz < solves[0][1].nnz
        solves.append((numerics.saddle_lu(W, J, 1e-3).solve(b), J, W))
    # two candidate orders per read: warm, cold, and nothing on the repeats
    assert len(reads) == 4
    # a remembered order solves bitwise as a fresh read does
    _, J, W = solves[-1]
    monkeypatch.setattr(numerics, "_ORDERS", [])
    assert np.array_equal(numerics.saddle_lu(W, J, 1e-3).solve(b), solves[-1][0])
    assert len(reads) == 6


def test_saddle_order_tells_patterns_of_one_size_apart(monkeypatch):
    # one shape and nonzero count, but J[0, 2] moves to J[0, 5]: row 0's
    # centre moves, so the kept order of the first pattern would misplace it
    rng = np.random.default_rng(3)
    J = np.zeros((2, 6))
    J[0, :3], J[1, 3:] = rng.normal(size=3), rng.normal(size=3)
    moved = J.copy()
    moved[0, 2], moved[0, 5] = 0.0, J[0, 2]
    W, b = np.diag(rng.uniform(1.0, 2.0, size=6)), rng.normal(size=8)
    monkeypatch.setattr(numerics, "_ORDERS", [])
    numerics.saddle_lu(W, J)
    x = numerics.saddle_lu(W, moved).solve(b)
    assert len(numerics._ORDERS) == 2
    assert np.allclose(x, np.linalg.solve(kkt_matrix(W, moved, 0.0), b), rtol=1e-12, atol=1e-12)


def test_saddle_order_memo_stays_bounded(lq_problem):
    for n in range(5, 5 + 2 * numerics._ORDER_MEMO):
        sc.run_certification(lq_problem, sc.Mesh.uniform(lq_problem.T, n), "trapezoidal")
    assert len(numerics._ORDERS) == numerics._ORDER_MEMO
