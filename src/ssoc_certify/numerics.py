"""Linear algebra kernels for certification.

The certification path runs on sparse kernels: SuperLU factorizations
(``scipy.sparse.linalg.splu``) and ARPACK Lanczos (``eigsh``).  The functions
here pin down the contracts the rest of the package relies on (symmetry
checks, rank checks).  The dense reference kernels the tests compare the
sparse ones against live in ``tests/oracles.py``, except the dense LDL^T
factorization at the end of this module: the perfbench tracer patches
``numerics.LdlFactorization`` by name, so it stays here until the benchmark
changes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConstraintQualificationError, ContractError

# ARPACK start vectors and the null-space projection block are drawn from
# this seed, so that repeat runs give bitwise equal results.
SEED = 0
# nullspace_basis_sparse draws its Gaussian block PROJECTION_BLOCK columns at
# a time (the draw order fixes Z bit for bit) and projects SOLVE_BLOCK of
# them per sparse solve.  SuperLU solves each column alike, so SOLVE_BLOCK
# does not change Z; it bounds the solve's working memory at a few times
# (n_z + n_c) * SOLVE_BLOCK doubles besides Z and one drawn block.
PROJECTION_BLOCK = 256
SOLVE_BLOCK = 32


def _start_vector(k):
    return np.random.default_rng(SEED).standard_normal(k)


def _check_symmetric(A, tol=1e-10):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if float(np.max(np.abs(A - A.T))) > tol * scale:
        raise ContractError("matrix is not symmetric within tolerance")
    return A


def sym_eig_min(A, sym_tol=1e-10) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = _check_symmetric(A, sym_tol)
    return float(np.linalg.eigvalsh(A)[0])


def sparse_lu(A):
    """SuperLU factors of a square matrix, or None when a pivot is exactly zero."""
    try:
        return scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A, dtype=float))
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def _short_side_gram(A):
    """(B, B B^T) with B the orientation of A that has no more rows than columns."""
    A = scipy.sparse.csr_matrix(A, dtype=float)
    if A.shape[0] > A.shape[1]:
        A = A.T.tocsr()
    return A, (A @ A.T).tocsc()


def sparse_sigma_min(A) -> float:
    """Smallest singular value of a sparse (or dense) matrix.

    Shift-invert Lanczos at 0 on the Gram matrix B B^T of the short side
    finds the eigenvector y of its eigenvalue nearest 0, which is its
    smallest because the Gram is positive semidefinite.  The singular value
    is then ||B^T y||: unlike sqrt(lambda_min) this does not square the
    round-off, so a singular value far below sqrt(eps) is still resolved.
    An exactly singular Gram gives 0.
    """
    B, G = _short_side_gram(A)
    k = G.shape[0]
    if k <= 1:
        return float(scipy.sparse.linalg.norm(B)) if k else 0.0
    lu = sparse_lu(G)
    if lu is None:
        return 0.0
    inverse = scipy.sparse.linalg.LinearOperator(G.shape, matvec=lu.solve, dtype=float)
    _, y = scipy.sparse.linalg.eigsh(G, k=1, sigma=0.0, OPinv=inverse, v0=_start_vector(k))
    return float(np.linalg.norm(B.T @ y[:, 0]))


def sparse_sigma_max(A) -> float:
    """Largest singular value of a sparse (or dense) matrix to about three digits.

    Lanczos on the Gram matrix of the short side.
    """
    B, G = _short_side_gram(A)
    k = G.shape[0]
    if k <= 1:
        return float(scipy.sparse.linalg.norm(B)) if k else 0.0
    # three digits suffice for a scale; full accuracy costs 10x the iterations
    top = scipy.sparse.linalg.eigsh(
        G, k=1, which="LA", v0=_start_vector(k), tol=1e-3, return_eigenvectors=False
    )
    return float(np.sqrt(max(top[0], 0.0)))


def nullspace_basis_sparse(J, M, rcond=1e-10) -> np.ndarray:
    """Orthonormal basis Z of the null space of a full-row-rank sparse J.

    ``M`` must be positive definite on null(J) (the variation Gram).  One
    sparse LU of [[M, J^T], [J, 0]] maps a fixed-seed Gaussian block of
    width n_z - n_c to its M-orthogonal projection onto null(J); a thin QR
    of the projected block gives Z.

    Raises :class:`ConstraintQualificationError` when J is rank deficient
    relative to ``rcond``: sigma_min(J) <= rcond * max(1, sigma_max(J)).
    Raises :class:`ContractError` when the saddle matrix is singular for a
    full-rank J, which means M is singular on null(J).
    """
    J = scipy.sparse.csr_matrix(J, dtype=float)
    n_c, n_z = J.shape
    if n_c == 0:
        return np.eye(n_z)
    if n_c > n_z or sparse_sigma_min(J) <= rcond * max(1.0, sparse_sigma_max(J)):
        raise ConstraintQualificationError(
            "constraint Jacobian is rank deficient; strong regularity fails"
        )
    d = n_z - n_c
    if d == 0:
        return np.zeros((n_z, 0))
    M = scipy.sparse.csr_matrix(M, dtype=float)
    lu = sparse_lu(scipy.sparse.bmat([[M, J.T], [J, None]]))
    if lu is None:
        raise ContractError("variation Gram matrix is singular on the null space of J")
    rng = np.random.default_rng(SEED)
    projected = np.empty((n_z, d), order="F")
    for start in range(0, d, PROJECTION_BLOCK):
        block = M @ rng.standard_normal((n_z, min(PROJECTION_BLOCK, d - start)))
        for col in range(0, block.shape[1], SOLVE_BLOCK):
            width = min(SOLVE_BLOCK, block.shape[1] - col)
            rhs = np.zeros((n_z + n_c, width))
            rhs[:n_z] = block[:, col : col + width]
            projected[:, start + col : start + col + width] = lu.solve(rhs)[:n_z]
    return scipy.linalg.qr(projected, mode="economic", overwrite_a=True)[0]


# -- dense reference kernel ----------------------------------------------------


class LdlFactorization:
    """LDL^T factorization of a symmetric indefinite matrix with inertia."""

    def __init__(self, A, zero_pivot=1e-12):
        A = np.asarray(A, dtype=float)
        self.n = A.shape[0]
        lu, d, perm = scipy.linalg.ldl(A, lower=True)
        self._lu = lu
        self._d = d
        self._perm = perm
        scale = max(1.0, float(np.max(np.abs(d))))
        pos = neg = zero = 0
        eigs = []
        i = 0
        while i < self.n:
            if i + 1 < self.n and d[i + 1, i] != 0.0:
                eigs.extend(np.linalg.eigvalsh(d[i : i + 2, i : i + 2]))
                i += 2
            else:
                eigs.append(d[i, i])
                i += 1
        for e in eigs:
            if abs(e) <= zero_pivot * scale:
                zero += 1
            elif e > 0:
                pos += 1
            else:
                neg += 1
        self.inertia = (pos, neg, zero)
        self._block_eigs = eigs

    @property
    def singular(self):
        return self.inertia[2] > 0

    def solve(self, b):
        """Solve A x = b using the stored factors."""
        b = np.asarray(b, dtype=float)
        perm = self._perm
        L = self._lu[perm]
        y = scipy.linalg.solve_triangular(L, b[perm], lower=True)
        # block-diagonal solve
        d = self._d
        w = np.empty_like(y)
        i = 0
        while i < self.n:
            if i + 1 < self.n and d[i + 1, i] != 0.0:
                w[i : i + 2] = np.linalg.solve(d[i : i + 2, i : i + 2], y[i : i + 2])
                i += 2
            else:
                w[i] = y[i] / d[i, i]
                i += 1
        v = scipy.linalg.solve_triangular(L.T, w, lower=False)
        x = np.empty_like(v)
        x[perm] = v
        return x
