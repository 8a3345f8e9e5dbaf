"""Linear algebra kernels for certification.

The certification path runs on sparse kernels: SuperLU factorizations
(``scipy.sparse.linalg.splu``) and ARPACK Lanczos (``eigsh``); no dense
matrix of the decision-space size is formed.  The functions here pin down
the contracts the rest of the package relies on: the rank test on J
(:func:`sparse_sigma_extremes`), sigma_min(M_h) (:func:`sparse_sigma_min`)
and the positive-definiteness test (:func:`ldl_positive_definite`) that
certifies the reduced curvature's shift.  The dense reference kernels the
tests compare the sparse ones against live in ``tests/oracles.py``, except
the dense LDL^T factorization at the end of this module: the perfbench
tracer patches ``numerics.LdlFactorization`` by name, so it stays here until
the benchmark changes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# ARPACK start vectors are drawn from this seed, so that repeat runs give
# bitwise equal results.
SEED = 0


def start_vector(k):
    return np.random.default_rng(SEED).standard_normal(k)


def sparse_lu(A, **options):
    """SuperLU factors of a square matrix, or None when a pivot is exactly zero.

    ``options`` go to ``scipy.sparse.linalg.splu``.
    """
    try:
        return scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A, dtype=float), **options)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None


def ldl_positive_definite(A) -> bool:
    """True when the symmetric sparse A factors as P A P^T = L D L^T with D > 0.

    SuperLU runs with a symmetric ordering, no off-diagonal pivoting and its
    symmetric mode.  When the row and column permutations agree, no pivot
    left the diagonal, so the factorization is the LDL^T of P A P^T, and
    positive pivots make every leading principal minor positive (Sylvester's
    criterion): A is positive definite.  Any other outcome (an off-diagonal
    pivot, a pivot <= 0, an exactly singular A) gives False; A may still be
    positive definite then.
    """
    lu = sparse_lu(
        A,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return (
        lu is not None
        and np.array_equal(lu.perm_r, lu.perm_c)
        and bool(np.all(lu.U.diagonal() > 0.0))
    )


def _short_side_gram(A):
    """(B, B B^T) with B the orientation of A that has no more rows than columns."""
    A = scipy.sparse.csr_matrix(A, dtype=float)
    if A.shape[0] > A.shape[1]:
        A = A.T.tocsr()
    return A, (A @ A.T).tocsc()


def _gram_sigma_min(B, G) -> float:
    k = G.shape[0]
    if k <= 1:
        return float(scipy.sparse.linalg.norm(B)) if k else 0.0
    lu = sparse_lu(G)
    if lu is None:
        return 0.0
    inverse = scipy.sparse.linalg.LinearOperator(G.shape, matvec=lu.solve, dtype=float)
    _, y = scipy.sparse.linalg.eigsh(G, k=1, sigma=0.0, OPinv=inverse, v0=start_vector(k))
    return float(np.linalg.norm(B.T @ y[:, 0]))


def _gram_sigma_max(B, G) -> float:
    k = G.shape[0]
    if k <= 1:
        return float(scipy.sparse.linalg.norm(B)) if k else 0.0
    # three digits suffice for a scale; full accuracy costs 10x the iterations
    top = scipy.sparse.linalg.eigsh(
        G, k=1, which="LA", v0=start_vector(k), tol=1e-3, return_eigenvectors=False
    )
    return float(np.sqrt(max(top[0], 0.0)))


def sparse_sigma_min(A) -> float:
    """Smallest singular value of a sparse (or dense) matrix.

    Shift-invert Lanczos at 0 on the Gram matrix B B^T of the short side
    finds the eigenvector y of its eigenvalue nearest 0, which is its
    smallest because the Gram is positive semidefinite.  The singular value
    is then ||B^T y||: unlike sqrt(lambda_min) this does not square the
    round-off, so a singular value far below sqrt(eps) is still resolved.
    An exactly singular Gram gives 0.
    """
    return _gram_sigma_min(*_short_side_gram(A))


def sparse_sigma_max(A) -> float:
    """Largest singular value of a sparse (or dense) matrix to about three digits.

    Lanczos on the Gram matrix of the short side.
    """
    return _gram_sigma_max(*_short_side_gram(A))


def sparse_sigma_extremes(A) -> tuple[float, float]:
    """(sparse_sigma_min(A), sparse_sigma_max(A)) from one Gram matrix.

    Bitwise equal to the two separate calls, which each form the Gram.
    """
    B, G = _short_side_gram(A)
    return _gram_sigma_min(B, G), _gram_sigma_max(B, G)


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
