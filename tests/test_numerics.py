import dataclasses

import numpy as np
import pytest
import scipy.linalg
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


def _coupled_quadrotor():
    # a boundary map linking x(0) and x(T): the time-order band spans the matrix
    quad = sc.builtin_problem("quadrotor")
    return dataclasses.replace(quad, boundary=lambda x0, xT: [xT[1] - x0[1] - 0.5], n_b=1)


@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
def test_uncoupled_certification_never_forms_the_folded_order(quad_problem, scheme, monkeypatch):
    folds = []
    inner = numerics._folded_rank
    monkeypatch.setattr(numerics, "_folded_rank", lambda n: folds.append(n) or inner(n))
    sc.run_certification(quad_problem, sc.Mesh.uniform(quad_problem.T, 10), scheme)
    assert folds == []
    # the counter sees the folded order where x(0) and x(T) are coupled
    coupled = _coupled_quadrotor()
    sc.run_certification(coupled, sc.Mesh.uniform(coupled.T, 10), scheme)
    assert folds


def _dense_band(A, pos):
    """(kl, ku) of the dense A with unknown i at position pos[i]."""
    i, j = np.nonzero(A)
    d = pos[i] - pos[j]
    return int(d.max(initial=0)), int(-d.min(initial=0))


@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("scheme", ["trapezoidal", "hermite-simpson"])
@pytest.mark.parametrize("name", ["quadrotor", "double-integrator-lq", "boundary", "coupled"])
def test_factored_band_is_the_narrower_candidate(name, scheme, n, monkeypatch):
    prob = {"boundary": _boundary_problem, "coupled": _coupled_quadrotor}.get(
        name, lambda: sc.builtin_problem(name)
    )()
    layout = transcription.assemble(prob, sc.Mesh.uniform(prob.T, n), scheme)
    rng = np.random.default_rng(n)
    z = rng.normal(size=layout.n_z)
    _, _, _, J, W = transcription.eval_kkt(prob, layout, z, rng.normal(size=layout.n_c))
    n_z, n_c = layout.n_z, layout.n_c
    J_rows, J_cols = np.nonzero(J.toarray())

    def narrower(matrix, place):
        """(kl, ku) and positions of the narrower candidate; time order on a tie."""
        candidates = [place(rank) for rank in (np.arange(n_z), numerics._folded_rank(n_z))]
        pos = min(candidates, key=lambda pos: sum(_dense_band(matrix, pos)))
        return _dense_band(matrix, pos), pos

    lu = numerics.saddle_lu(W, J)
    K = kkt_matrix(W.toarray(), J.toarray())
    band, pos = narrower(K, lambda rank: numerics._saddle_positions(rank, J_rows, J_cols, n_c))
    assert (lu.kl, lu.ku) == band and np.array_equal(lu.pos, pos)
    factored = []
    dpbtrf = scipy.linalg.lapack.dpbtrf
    monkeypatch.setattr(
        scipy.linalg.lapack,
        "dpbtrf",
        lambda ab, **kw: factored.append(ab.shape[0] - 1) or dpbtrf(ab, **kw),
    )
    A = W + J.T @ J
    numerics.ldl_positive_definite(A)
    assert factored == [narrower(A.toarray(), lambda rank: rank)[0][1]]


def test_saddle_order_tells_patterns_of_one_size_apart():
    # one shape and nonzero count, but J[0, 2] moves to J[0, 5]: row 0's
    # centre moves, and the second solve must place it by its own pattern
    rng = np.random.default_rng(3)
    J = np.zeros((2, 6))
    J[0, :3], J[1, 3:] = rng.normal(size=3), rng.normal(size=3)
    moved = J.copy()
    moved[0, 2], moved[0, 5] = 0.0, J[0, 2]
    W, b = np.diag(rng.uniform(1.0, 2.0, size=6)), rng.normal(size=8)
    numerics.saddle_lu(W, J)
    x = numerics.saddle_lu(W, moved).solve(b)
    assert np.allclose(x, np.linalg.solve(kkt_matrix(W, moved, 0.0), b), rtol=1e-12, atol=1e-12)
