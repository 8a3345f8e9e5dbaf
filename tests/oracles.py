"""Dense LAPACK reference kernels the tests compare the sparse ones against.

Full SVDs, dense eigensolves and explicit saddle matrices: O(dim^3) and
O(dim^2) memory, fine at test sizes.  The dense LDL^T factorization they pair
with stays in ``ssoc_certify.numerics`` (the perfbench tracer patches it there
by name).
"""

import numpy as np

from ssoc_certify.errors import ConstraintQualificationError, ContractError


def sym_eig_min(A, sym_tol=1e-10) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if float(np.max(np.abs(A - A.T))) > sym_tol * scale:
        raise ContractError("matrix is not symmetric within tolerance")
    return float(np.linalg.eigvalsh(A)[0])


def sigma_min(A) -> float:
    """Smallest singular value of a dense matrix."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def nullspace_basis(J, rcond=1e-10) -> np.ndarray:
    """Orthonormal basis Z of the null space of a full-row-rank J.

    Raises :class:`ConstraintQualificationError` when J is rank deficient
    relative to ``rcond``.
    """
    J = np.asarray(J, dtype=float)
    n_c, n_z = J.shape
    if n_c == 0:
        return np.eye(n_z)
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    scale = max(1.0, s[0]) if s.size else 1.0
    if n_c > n_z or s.size < n_c or s[n_c - 1] <= rcond * scale:
        raise ConstraintQualificationError(
            "constraint Jacobian is rank deficient; strong regularity fails"
        )
    return Vt[n_c:].T.copy()


def kkt_matrix(W, J, delta=0.0) -> np.ndarray:
    """Assemble the symmetric saddle matrix [[W + delta I, J^T], [J, 0]]."""
    W = np.asarray(W, dtype=float)
    J = np.asarray(J, dtype=float)
    n_z = W.shape[0]
    n_c = J.shape[0]
    K = np.zeros((n_z + n_c, n_z + n_c))
    K[:n_z, :n_z] = W
    if delta:
        K[:n_z, :n_z] += delta * np.eye(n_z)
    K[:n_z, n_z:] = J.T
    K[n_z:, :n_z] = J
    return K
