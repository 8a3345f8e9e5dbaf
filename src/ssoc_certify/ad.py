"""Second-order forward-mode automatic differentiation.

Values are truncated second-order Taylor expansions over a fixed set of
``d`` seed directions, batched over ``B`` evaluation points:

    val  : (B,)      function value
    grad : (B, d)    directional first derivatives
    hess : (B, d, d) directional second derivatives (symmetric)

The Hessian part may be absent, meaning identically zero: seeds, lifted
constants, and sums, differences and scalings of affine values carry no
Hessian array. Reading ``hess`` then returns dense zeros of shape
(B, d, d); :attr:`AdScalar2.is_affine` tells the cases apart without
allocating. A product of two affine values forms only the symmetric outer
product of the gradients, the chain rule skips the ``f' * hess`` term, and
a plain float or array operand of ``+ - * /`` shifts or scales ``val``,
``grad`` and ``hess`` directly. The results are bitwise equal to the same
formulas applied to materialized zero parts (signed zeros aside). The
product rule adds the two outer products ``g_a g_b^T + g_b g_a^T`` to each
other before the remaining terms, so every Hessian is bitwise symmetric.

Arrays are read-only by convention: a result may share its ``grad`` or
``hess`` array with an operand (adding a constant leaves both as they
were), so no array is written in place after its value is constructed.
Callers copy before they modify.

Problem callbacks are written against the module-level helpers
(:func:`sin`, :func:`cos`, ...), which dispatch on the operand type so the
same callback runs on plain floats/arrays and on :class:`AdScalar2` values.
"""

from __future__ import annotations

import numpy as np


def _as_batch(value):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


class AdScalar2:
    """A batch of scalars carrying first and second derivative parts."""

    __slots__ = ("val", "grad", "_hess")

    # numpy operands on the left defer to the reflected methods below
    # instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self._hess = hess

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, n_dirs, batch=None):
        val = _as_batch(value)
        if batch is not None and val.shape[0] == 1 and batch > 1:
            val = np.broadcast_to(val, (batch,)).copy()
        return cls(val, np.zeros((val.shape[0], n_dirs)))

    @classmethod
    def variable(cls, value, index, n_dirs):
        val = _as_batch(value)
        grad = np.zeros((val.shape[0], n_dirs))
        grad[:, index] = 1.0
        return cls(val, grad)

    @property
    def n_dirs(self):
        return self.grad.shape[1]

    @property
    def batch(self):
        return self.val.shape[0]

    @property
    def hess(self):
        """Second derivative part; dense zeros when the value is affine."""
        if self._hess is None:
            return np.zeros((self.batch, self.n_dirs, self.n_dirs))
        return self._hess

    @property
    def is_affine(self):
        """True when the Hessian part is absent (identically zero)."""
        return self._hess is None

    # -- arithmetic --------------------------------------------------------

    def _scaled(self, c):
        """``self * c`` for a plain (1,) or (B,) array ``c``."""
        hess = None if self._hess is None else self._hess * c[:, None, None]
        return AdScalar2(self.val * c, self.grad * c[:, None], hess)

    def __add__(self, other):
        if not isinstance(other, AdScalar2):
            return _spanning(self.val + _as_batch(other), self.grad, self._hess)
        if other._hess is None:
            hess = self._hess
        elif self._hess is None:
            hess = other._hess
        else:
            hess = self._hess + other._hess
        return _spanning(self.val + other.val, self.grad + other.grad, hess)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self._hess is None else -self._hess
        return AdScalar2(-self.val, -self.grad, hess)

    def __sub__(self, other):
        if not isinstance(other, AdScalar2):
            return _spanning(self.val - _as_batch(other), self.grad, self._hess)
        if other._hess is None:
            hess = self._hess
        elif self._hess is None:
            hess = -other._hess
        else:
            hess = self._hess - other._hess
        return _spanning(self.val - other.val, self.grad - other.grad, hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, AdScalar2):
            return self._scaled(_as_batch(other))
        o = other
        val = self.val * o.val
        grad = self.grad * o.val[:, None] + o.grad * self.val[:, None]
        cross = self.grad[:, :, None] * o.grad[:, None, :]
        # the outer products are summed before they join the other terms,
        # which keeps the Hessian bitwise symmetric
        sym = cross + np.swapaxes(cross, 1, 2)
        if self._hess is None and o._hess is None:
            return AdScalar2(val, grad, sym)
        if o._hess is None:
            hess = self._hess * o.val[:, None, None]
        elif self._hess is None:
            hess = o._hess * self.val[:, None, None]
        else:
            hess = self._hess * o.val[:, None, None] + o._hess * self.val[:, None, None]
        hess += sym
        return AdScalar2(val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, AdScalar2):
            return self._scaled(1.0 / _as_batch(other))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
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
        """Compose with a scalar function given value/1st/2nd derivative arrays."""
        grad = fp[:, None] * self.grad
        hess = self.grad[:, :, None] * self.grad[:, None, :]
        hess *= fpp[:, None, None]
        if self._hess is not None:
            hess += fp[:, None, None] * self._hess
        return AdScalar2(f, grad, hess)


def _spanning(val, grad, hess):
    """An AdScalar2 whose derivative parts span the batch of ``val``.

    A sum passes a derivative part through unchanged, so when the other
    operand has the larger batch the part is broadcast (read-only view).
    """
    b = val.shape[0]
    if grad.shape[0] != b:
        grad = np.broadcast_to(grad, (b,) + grad.shape[1:])
    if hess is not None and hess.shape[0] != b:
        hess = np.broadcast_to(hess, (b,) + hess.shape[1:])
    return AdScalar2(val, grad, hess)


# -- elementary functions, dispatching on operand type ----------------------


def sin(x):
    if isinstance(x, AdScalar2):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(s, c, -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, AdScalar2):
        s, c = np.sin(x.val), np.cos(x.val)
        return x._chain(c, -s, -c)
    return np.cos(x)


def exp(x):
    if isinstance(x, AdScalar2):
        e = np.exp(x.val)
        return x._chain(e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, AdScalar2):
        inv = 1.0 / x.val
        return x._chain(np.log(x.val), inv, -(inv**2))
    return np.log(x)


def sqrt(x):
    if isinstance(x, AdScalar2):
        r = np.sqrt(x.val)
        return x._chain(r, 0.5 / r, -0.25 / (r * x.val))
    return np.sqrt(x)


def seed_vector(values, offset, n_dirs):
    """Turn the columns of ``values`` (B, k) into AD variables.

    Column ``i`` becomes the variable with seed direction ``offset + i``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return [
        AdScalar2.variable(values[:, i], offset + i, n_dirs)
        for i in range(values.shape[1])
    ]


def value_of(x):
    """Plain value of an AD scalar or passthrough for arrays."""
    if isinstance(x, AdScalar2):
        return x.val
    return np.asarray(x, dtype=float)
