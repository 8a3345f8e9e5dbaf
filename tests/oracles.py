"""Dense reference kernels the tests compare the sparse ones against.

Full SVDs, dense eigensolves, explicit saddle matrices and unpruned sups:
O(dim^3) and O(dim^2) memory, fine at test sizes.  The dense LDL^T factorization they pair
with stays in ``ssoc_certify.numerics`` (the perfbench tracer patches it there
by name).  :class:`DenseAdScalar2` keeps the second-order AD rules with every
derivative part over all seed directions.
"""

import math

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


def unpruned_sup(norms, stack, floor, bounds=None) -> float:
    """max(floor, max(norms(stack))) with every entry's norm computed: the
    reference for ``constants._sup``, which skips entries by their bounds.

    ``stack`` is indexed along the leading axes of ``bounds``, or of the
    matrices' leading axes without ``bounds``; an empty stack gives the floor.
    """
    size = stack.shape[:-2] if bounds is None else bounds.shape
    if 0 in size:
        return float(floor)
    values = norms(stack)
    top = float(np.max(values))
    return math.nan if math.isnan(floor) or math.isnan(top) else float(max(floor, top))


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


class DenseAdScalar2:
    """The dense second-order AD rules: every part spans all ``d`` directions.

    The reference that ``ssoc_certify.ad`` must match bitwise (the sign of
    zero aside): same value/gradient/Hessian formulas, with the Hessian part
    absent (None) for affine values and plain operands folded in directly.
    """

    __slots__ = ("val", "grad", "_hess")
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self._hess = hess

    @classmethod
    def variable(cls, value, index, n_dirs):
        val = np.atleast_1d(np.asarray(value, dtype=float))
        grad = np.zeros((val.shape[0], n_dirs))
        grad[:, index] = 1.0
        return cls(val, grad)

    @property
    def hess(self):
        if self._hess is None:
            n_dirs = self.grad.shape[1]
            return np.zeros((self.val.shape[0], n_dirs, n_dirs))
        return self._hess

    def _scaled(self, c):
        hess = None if self._hess is None else self._hess * c[:, None, None]
        return DenseAdScalar2(self.val * c, self.grad * c[:, None], hess)

    def __add__(self, other):
        if not isinstance(other, DenseAdScalar2):
            return _dense_spanning(self.val + _dense_batch(other), self.grad, self._hess)
        if other._hess is None:
            hess = self._hess
        elif self._hess is None:
            hess = other._hess
        else:
            hess = self._hess + other._hess
        return _dense_spanning(self.val + other.val, self.grad + other.grad, hess)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self._hess is None else -self._hess
        return DenseAdScalar2(-self.val, -self.grad, hess)

    def __sub__(self, other):
        if not isinstance(other, DenseAdScalar2):
            return _dense_spanning(self.val - _dense_batch(other), self.grad, self._hess)
        if other._hess is None:
            hess = self._hess
        elif self._hess is None:
            hess = -other._hess
        else:
            hess = self._hess - other._hess
        return _dense_spanning(self.val - other.val, self.grad - other.grad, hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, DenseAdScalar2):
            return self._scaled(_dense_batch(other))
        o = other
        val = self.val * o.val
        grad = self.grad * o.val[:, None] + o.grad * self.val[:, None]
        cross = self.grad[:, :, None] * o.grad[:, None, :]
        sym = cross + np.swapaxes(cross, 1, 2)
        if self._hess is None and o._hess is None:
            return DenseAdScalar2(val, grad, sym)
        if o._hess is None:
            hess = self._hess * o.val[:, None, None]
        elif self._hess is None:
            hess = o._hess * self.val[:, None, None]
        else:
            hess = self._hess * o.val[:, None, None] + o._hess * self.val[:, None, None]
        hess += sym
        return DenseAdScalar2(val, grad, hess)

    __rmul__ = __mul__

    # the value of a quotient is a / b; its derivative parts are a * (1/b)'s
    def __truediv__(self, other):
        if not isinstance(other, DenseAdScalar2):
            c = _dense_batch(other)
            out = self._scaled(1.0 / c)
            return DenseAdScalar2(self.val / c, out.grad, out._hess)
        out = self * other._reciprocal()
        return DenseAdScalar2(self.val / other.val, out.grad, out._hess)

    def __rtruediv__(self, other):
        out = self._reciprocal() * other
        return DenseAdScalar2(_dense_batch(other) / self.val, out.grad, out._hess)

    def __pow__(self, exponent):
        e = float(exponent)
        return self._chain(
            self.val**e,
            e * self.val ** (e - 1.0),
            e * (e - 1.0) * self.val ** (e - 2.0),
        )

    def _reciprocal(self):
        inv = 1.0 / self.val
        return self._chain(inv, -(inv**2), 2.0 * inv**3)

    def _chain(self, f, fp, fpp):
        grad = fp[:, None] * self.grad
        hess = self.grad[:, :, None] * self.grad[:, None, :]
        hess *= fpp[:, None, None]
        if self._hess is not None:
            hess += fp[:, None, None] * self._hess
        return DenseAdScalar2(f, grad, hess)


def _dense_batch(value):
    return np.atleast_1d(np.asarray(value, dtype=float))


def _dense_spanning(val, grad, hess):
    b = val.shape[0]
    if grad.shape[0] != b:
        grad = np.broadcast_to(grad, (b,) + grad.shape[1:])
    if hess is not None and hess.shape[0] != b:
        hess = np.broadcast_to(hess, (b,) + hess.shape[1:])
    return DenseAdScalar2(val, grad, hess)


class dense_ad:
    """The elementary functions and seeding of ``ssoc_certify.ad`` over
    :class:`DenseAdScalar2`, so one evaluator runs on either."""

    AdScalar2 = DenseAdScalar2

    @staticmethod
    def seed_vector(values, offset, n_dirs):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        return [
            DenseAdScalar2.variable(values[:, i], offset + i, n_dirs)
            for i in range(values.shape[1])
        ]

    @staticmethod
    def sin(x):
        if not isinstance(x, DenseAdScalar2):
            return np.sin(x)
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(s, c, -s)

    @staticmethod
    def cos(x):
        if not isinstance(x, DenseAdScalar2):
            return np.cos(x)
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(c, -s, -c)

    @staticmethod
    def exp(x):
        if not isinstance(x, DenseAdScalar2):
            return np.exp(x)
        e = np.exp(x.val)
        return x._chain(e, e, e)

    @staticmethod
    def log(x):
        if not isinstance(x, DenseAdScalar2):
            return np.log(x)
        inv = 1.0 / x.val
        return x._chain(np.log(x.val), inv, -(inv**2))

    @staticmethod
    def sqrt(x):
        if not isinstance(x, DenseAdScalar2):
            return np.sqrt(x)
        r = np.sqrt(x.val)
        return x._chain(r, 0.5 / r, -0.25 / (r * x.val))

