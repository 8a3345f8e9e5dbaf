"""Linear algebra kernels for certification.

The certification path runs on banded and sparse kernels; no dense matrix
of the decision-space size is formed.  Every saddle matrix
[[W + diag(v), J^T], [J, 0]] (the Newton steps and the reduced curvature's
shift-invert) is factored by LAPACK's banded LU (:func:`saddle_lu`), and the
positive-definiteness test that certifies the reduced curvature's shift
(:func:`ldl_positive_definite`) is LAPACK's banded Cholesky.  Both read their
order from the nonzero values of the matrices, as this module sits below the
layout: z keeps its order, which is time order because the layout's samples
are time-ordered, and each constraint row sits at the centre of its nonzero
columns.  Every nonzero of a collocation matrix links samples a few
intervals apart, except where x(0) and x(T) are coupled (a boundary map or
an endpoint cost); so beyond the smallest meshes only that coupling widens
the band to half the matrix or more.  Then the folded order z_0, z_{n-1},
z_1, z_{n-2}, ... is formed as well, and it is factored when its band is
strictly narrower.  A collocation band does not grow with the mesh, so the
factors take memory linear in n_z.  The smallest singular value
(:func:`sigma_min`) that sigma_min(M_h) and the rank test on J read is
Lanczos on a block of the inverse of a saddle that :func:`saddle_lu`
factors, so no Gram matrix is formed.  The dense reference kernels the
tests compare these against live in ``tests/oracles.py``, except the dense
LDL^T factorization at the end of this module: the perfbench tracer patches
``numerics.LdlFactorization`` by name, so it stays here until the benchmark
changes.
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


# -- banded kernels in time order ----------------------------------------------


def _entries(A):
    """Row indices, column indices and values of the nonzero values of A.

    Stored zeros are dropped: they would widen the band for nothing.
    """
    A = scipy.sparse.csr_matrix(A, dtype=float)
    A.sum_duplicates()
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    keep = A.data != 0.0
    return rows[keep], A.indices[keep], A.data[keep]


def _folded_rank(n):
    """Rank of each of n time-ordered positions in the order 0, n-1, 1, n-2, ..."""
    j = np.arange(n)
    return np.where(j < n - j, 2 * j, 2 * (n - j) - 1)


def _saddle_positions(z_rank, J_rows, J_cols, n_c):
    """Position of each saddle unknown: z by ``z_rank``, each constraint row
    at the centre of the ranks of its nonzero columns (ties: z first)."""
    n_z = z_rank.size
    ranks = z_rank[J_cols]
    lo = np.full(n_c, n_z)
    hi = np.full(n_c, -1)
    np.minimum.at(lo, J_rows, ranks)
    np.maximum.at(hi, J_rows, ranks)
    key = np.concatenate([z_rank, 0.5 * (lo + hi)])
    pos = np.empty(key.size, dtype=np.intp)
    pos[np.argsort(key, kind="stable")] = np.arange(key.size)
    return pos


def _band_order(n_z, n_c, rows, cols, J_rows, J_cols):
    """(pos, kl, ku) of the saddle unknowns (:func:`_saddle_positions`) for
    the nonzero values at (rows, cols): z in time order, or folded when the
    time-order band covers at least half the matrix and the folded band is
    strictly narrower (the module docstring gives the reason)."""

    def band(z_rank):
        pos = _saddle_positions(z_rank, J_rows, J_cols, n_c)
        d = pos[rows] - pos[cols]
        return pos, int(d.max(initial=0)), int(-d.min(initial=0))

    pos, kl, ku = band(np.arange(n_z))
    if 2 * (kl + ku) >= n_z + n_c:
        folded = band(_folded_rank(n_z))
        if folded[1] + folded[2] < kl + ku:
            return folded
    return pos, kl, ku


class BandedLu:
    """LAPACK banded LU (``dgbtrf``) of a symmetrically permuted square matrix.

    ``pos[i]`` is the position of unknown i in the factored order; ``kl``
    and ``ku`` are the band's sub- and superdiagonal counts in that order.
    """

    def __init__(self, lu, ipiv, kl, ku, pos):
        self._lu, self._ipiv, self.kl, self.ku = lu, ipiv, kl, ku
        self.pos, self.shape = pos, (pos.size, pos.size)
        self._order = np.argsort(pos)

    def solve(self, b):
        x, _ = scipy.linalg.lapack.dgbtrs(
            self._lu, self.kl, self.ku, np.asarray(b, dtype=float)[self._order], self._ipiv
        )
        return x[self.pos]

    def block_inverse(self, block, root=1.0):
        """The operator y -> diag(root) [A^-1]_bb diag(root) y, b the slice ``block``."""
        rhs = np.zeros(self.pos.size)
        k = rhs[block].size

        def apply(y):
            rhs[block] = root * y
            return root * self.solve(rhs)[block]

        return scipy.sparse.linalg.LinearOperator((k, k), matvec=apply, dtype=float)


def saddle_lu(W, J, shift=0.0):
    """Banded LU of [[W + diag(shift), J^T], [J, 0]], or None when a pivot is exactly zero.

    ``shift`` is a scalar or a vector of length n_z; W and J may be dense or
    sparse.  The unknowns take the order of :func:`_band_order`.
    """
    W_rows, W_cols, W_vals = _entries(W)
    J_rows, J_cols, J_vals = _entries(J)
    n_c, n_z = J.shape
    rows = np.concatenate([W_rows, J_rows + n_z, J_cols])
    cols = np.concatenate([W_cols, J_cols, J_rows + n_z])
    pos, kl, ku = _band_order(n_z, n_c, rows, cols, J_rows, J_cols)
    ab = np.zeros((2 * kl + ku + 1, n_z + n_c), order="F")
    # entry (i, j) sits at row kl + ku + i - j of column j, so at flat index
    # kl + ku + i + (2 kl + ku) j of the Fortran-ordered storage
    flat, at_z, at_c = ab.ravel(order="F"), pos[:n_z], pos[n_z:]
    for i, j, vals in (
        (at_z[W_rows], at_z[W_cols], W_vals),
        (at_c[J_rows], at_z[J_cols], J_vals),
        (at_z[J_cols], at_c[J_rows], J_vals),
    ):
        flat[kl + ku + i + (2 * kl + ku) * j] = vals
    ab[kl + ku, at_z] += shift
    lu, ipiv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        return None
    return BandedLu(lu, ipiv, kl, ku, pos)


def ldl_positive_definite(A) -> bool:
    """True when the symmetric A has a banded Cholesky factorization.

    A (dense or sparse; only its upper triangle is factored) takes the order
    of :func:`_band_order`, as a saddle without constraint rows, and LAPACK
    ``dpbtrf`` factors it.  The factorization succeeds exactly when every
    pivot, the ratio of two consecutive leading principal minors, is
    positive (Sylvester's criterion), so success proves A positive definite.
    A pivot <= 0 in floating point gives False; A may still be positive
    definite then.
    """
    rows, cols, vals = _entries(A)
    n = A.shape[0]
    pos, _, kd = _band_order(n, 0, rows, cols, rows[:0], cols[:0])
    upper = pos[rows] <= pos[cols]
    r, c = pos[rows[upper]], pos[cols[upper]]
    ab = np.zeros((kd + 1, n), order="F")
    ab[kd + r - c, c] = vals[upper]
    _, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)
    return info == 0


def sigma_min(A) -> float:
    """Smallest singular value of a sparse (or dense) matrix.

    For the short side B of A, the constraint block of the inverse of the
    saddle [[I, B^T], [B, 0]] (:func:`saddle_lu`) is -(B B^T)^-1.  Lanczos
    finds its eigenvector y of largest magnitude, and sigma_min = ||B^T y||.
    The largest magnitude, not value: the saddle's condition grows like
    (sigma_max/sigma_min)^2, so far below sqrt(eps) round-off can flip the
    computed eigenvalue's sign, while y stays accurate.  ||B^T y||, unlike
    the eigenvalue, does not square the round-off, so such a sigma_min is
    still resolved.  An exactly zero pivot gives 0.
    """
    B = scipy.sparse.csr_matrix(A, dtype=float)
    if B.shape[0] > B.shape[1]:
        B = B.T.tocsr()
    k, n = B.shape
    if k <= 1:
        return float(scipy.sparse.linalg.norm(B)) if k else 0.0
    lu = saddle_lu(scipy.sparse.identity(n), B)
    if lu is None:
        return 0.0
    inverse = lu.block_inverse(slice(n, None))
    _, y = scipy.sparse.linalg.eigsh(inverse, k=1, which="LM", v0=start_vector(k))
    return float(np.linalg.norm(B.T @ y[:, 0]))


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
