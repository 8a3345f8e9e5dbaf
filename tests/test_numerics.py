import numpy as np
import pytest
import scipy.sparse

import ssoc_certify as sc
from oracles import kkt_matrix, nullspace_basis, sigma_min, sym_eig_min
from ssoc_certify import numerics, transcription
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


def test_ldl_positive_definite_matches_eigenvalues():
    rng = np.random.default_rng(29)
    for shift in (-3.0, -0.5, 0.5, 3.0):
        B = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.4)
        A = 0.5 * (B + B.T) + shift * np.eye(9)
        expected = np.linalg.eigvalsh(A)[0] > 0.0
        assert numerics.ldl_positive_definite(scipy.sparse.csr_matrix(A)) == expected, shift
    # an exactly singular matrix and a zero diagonal (off-diagonal pivot) fail
    assert not numerics.ldl_positive_definite(np.diag([1.0, 0.0, 2.0]))
    assert not numerics.ldl_positive_definite(np.array([[0.0, 1.0], [1.0, 0.0]]))
