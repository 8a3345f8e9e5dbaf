"""Second-order forward-mode automatic differentiation.

Values are truncated second-order Taylor expansions over a fixed set of
``d`` seed directions, batched over ``B`` evaluation points:

    val  : (B,)      function value
    grad : (B, d)    directional first derivatives
    hess : (B, d, d) directional second derivatives (symmetric)

Each value stores its derivative parts only over its *active* directions,
the sorted tuple :attr:`AdScalar2.dirs` of the seeds it depends on (index
domains, Griewank & Walther, *Evaluating Derivatives*, ch. 7): a (B, k)
gradient block and a (B, k, k) Hessian block. An operation on two values
with different direction sets first places both blocks into the union of
the sets (a sum adds the second block into the placed first one); the
union and the position maps are cached per pair of tuples.
The ``grad`` and ``hess`` properties return the dense (B, d) and
(B, d, d) arrays; :meth:`AdScalar2.scatter_grad` and
:meth:`AdScalar2.scatter_hess` write the blocks into zero-filled dense
arrays the caller provides.

The Hessian block may be absent, meaning identically zero: seeds, lifted
constants, and sums, differences and scalings of affine values carry no
Hessian array. Reading ``hess`` then returns dense zeros;
:attr:`AdScalar2.is_affine` tells the cases apart without allocating. A
product of two affine values forms only the symmetric outer product of the
gradients, the chain rule skips the ``f' * hess`` term, and a plain float
or array operand of ``+ - * /`` shifts or scales ``val``, ``grad`` and
``hess`` directly. The product rule adds the two outer products
``g_a g_b^T + g_b g_a^T`` to each other before the remaining terms, so
every Hessian is bitwise symmetric.

Values seeded with ``first_order=True`` carry no Hessian at all: products
and the chain rule skip the outer products, anything computed from such a
value is first-order too, and reading its ``hess`` or ``is_affine`` raises
:class:`~ssoc_certify.errors.ContractError`.

Bitwise contract: every entry of ``val``, ``grad`` and ``hess`` is computed
by the same floating-point operations as the dense rules over all ``d``
directions with materialized zero parts (kept as a reference in the test
suite); only entries outside the active directions, which the dense rules
fill with zeros of either sign, differ in the sign of zero.

Each value also carries two bitmasks over the seed directions:
:attr:`AdScalar2.gmask` (G), the inputs its gradient values read, and
:attr:`AdScalar2.hmask` (H), the inputs its Hessian values read. Seeds,
plain operands and a quotient's value add nothing; a sum takes the union
of each mask; a product ``a * b`` takes G(a) | G(b) | dirs(b) (when a has
directions) | dirs(a) (when b has directions) for G, and H(a) | H(b) |
dirs(b) (when a has a Hessian) | dirs(a) (when b has one) | G(a) | G(b)
(when both have directions) for H; a scalar function, the reciprocal and
``**`` included, reads every input of its argument in both. Moving an
input outside G (H) leaves the gradient (Hessian) bitwise unchanged,
provided the callback computes only through the arithmetic and helpers of
this module: a value read through ``.val`` carries no derivative, so the
derivatives of anything computed from it would already be wrong.

Arrays are read-only by convention: a result may share its derivative
arrays with an operand (adding a constant leaves both as they were), so no
array is written in place after its value is constructed. Callers copy
before they modify.

Problem callbacks are written against the module-level helpers
(:func:`sin`, :func:`cos`, ...), which dispatch on the operand type so the
same callback runs on plain floats/arrays and on :class:`AdScalar2` values.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _as_batch(value):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _placement(pos):
    """Indices of the sorted positions ``pos`` in a (B, k) gradient block and
    in a (B, k, k) Hessian block: slices when the positions are consecutive,
    else index arrays."""
    if not pos or pos[-1] - pos[0] == len(pos) - 1:
        s = slice(pos[0], pos[-1] + 1) if pos else slice(0, 0)
        return (slice(None), s), (slice(None), s, s)
    idx = np.asarray(pos, dtype=np.intp)
    return (slice(None), idx), (slice(None), idx[:, None], idx[None, :])


# Caches of pure functions of their keys: dirs -> placement of dirs among
# all d directions, dirs -> bitmask of dirs, and (dirs_a, dirs_b) -> (union,
# placement of dirs_a, placement of dirs_b in the union).  A problem's
# expressions produce only a few distinct direction sets, so all stay small.
_PLACEMENTS = {}
_BITS = {}
_UNIONS = {}


def _dense_placement(dirs):
    hit = _PLACEMENTS.get(dirs)
    if hit is None:
        hit = _PLACEMENTS[dirs] = _placement(dirs)
    return hit


def _bits(dirs):
    """The bitmask of the directions ``dirs``."""
    hit = _BITS.get(dirs)
    if hit is None:
        hit = _BITS[dirs] = sum(1 << i for i in dirs)
    return hit


def _union(a, b):
    hit = _UNIONS.get((a, b))
    if hit is None:
        dirs = tuple(sorted(set(a) | set(b)))
        index = {i: p for p, i in enumerate(dirs)}
        hit = _UNIONS[(a, b)] = (
            dirs,
            _placement([index[i] for i in a]),
            _placement([index[i] for i in b]),
        )
    return hit


def _embed(x, k, placement):
    """(grad, hess) blocks of ``x`` over a union of ``k`` directions."""
    if len(x.dirs) == k:
        return x._grad, x._hess
    grad_at, hess_at = placement
    grad = np.zeros((x._grad.shape[0], k))
    grad[grad_at] = x._grad
    if x._hess is None:
        return grad, None
    hess = np.zeros((x._hess.shape[0], k, k))
    hess[hess_at] = x._hess
    return grad, hess


def _merged(shape, a, a_at, b, b_at, subtract):
    """Zeros of ``shape`` with block ``a`` placed at ``a_at``, then block
    ``b`` added (or subtracted) at ``b_at``; either block may be None."""
    out = np.zeros(shape)
    if a is not None:
        out[a_at] = a
    if b is not None:
        if subtract:
            out[b_at] -= b
        else:
            out[b_at] += b
    return out


class AdScalar2:
    """A batch of scalars carrying first and second derivative parts."""

    __slots__ = ("val", "_grad", "_hess", "dirs", "n_dirs", "first_order", "gmask", "hmask")

    # numpy operands on the left defer to the reflected methods below
    # instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, val, grad, hess, dirs, n_dirs, first_order=False, masks=(0, 0)):
        self.val = val
        self._grad = grad
        self._hess = None if first_order else hess
        self.dirs = dirs
        self.n_dirs = n_dirs
        self.first_order = first_order
        self.gmask, self.hmask = masks

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, n_dirs):
        val = _as_batch(value)
        return cls(val, np.zeros((val.shape[0], 0)), None, (), n_dirs)

    @property
    def batch(self):
        return self.val.shape[0]

    @property
    def grad(self):
        """Dense (B, d) first derivative part."""
        if len(self.dirs) == self.n_dirs:
            return self._grad
        out = np.zeros((self._grad.shape[0], self.n_dirs))
        self.scatter_grad(out)
        return out

    @property
    def hess(self):
        """Dense (B, d, d) second derivative part; zeros when the value is affine."""
        if not self.is_affine and len(self.dirs) == self.n_dirs:
            return self._hess
        out = np.zeros((self.batch, self.n_dirs, self.n_dirs))
        self.scatter_hess(out)
        return out

    @property
    def is_affine(self):
        """True when the Hessian part is absent (identically zero)."""
        if self.first_order:
            raise ContractError("a first-order AD value carries no Hessian")
        return self._hess is None

    def scatter_grad(self, out):
        """Write the gradient block into the zero-filled dense (B, d) ``out``."""
        out[_dense_placement(self.dirs)[0]] = self._grad

    def scatter_hess(self, out):
        """Write the Hessian block into the zero-filled dense (B, d, d) ``out``."""
        if self.is_affine:
            return
        out[_dense_placement(self.dirs)[1]] = self._hess

    # -- arithmetic --------------------------------------------------------

    def _like(self, val, grad, hess, dirs=None, first_order=None, masks=None):
        return AdScalar2(
            val,
            grad,
            hess,
            self.dirs if dirs is None else dirs,
            self.n_dirs,
            self.first_order if first_order is None else first_order,
            (self.gmask, self.hmask) if masks is None else masks,
        )

    def _pair(self, other):
        """(grad_a, hess_a, grad_b, hess_b, dirs) over the union of directions."""
        if self.dirs == other.dirs:
            return self._grad, self._hess, other._grad, other._hess, self.dirs
        dirs, place_a, place_b = _union(self.dirs, other.dirs)
        k = len(dirs)
        return (*_embed(self, k, place_a), *_embed(other, k, place_b), dirs)

    def _sum(self, other, subtract):
        """``self + other`` or ``self - other`` for an AD value ``other``."""
        val = self.val - other.val if subtract else self.val + other.val
        first = self.first_order or other.first_order
        masks = (self.gmask | other.gmask, self.hmask | other.hmask)
        ga, ha, gb, hb = self._grad, self._hess, other._grad, other._hess
        if self.dirs == other.dirs:
            grad = ga - gb if subtract else ga + gb
            if hb is None:
                hess = ha
            elif ha is None:
                hess = -hb if subtract else hb
            else:
                hess = ha - hb if subtract else ha + hb
            return self._spanning(val, grad, hess, self.dirs, first, masks)
        # the first block is placed into the union and the second one added
        # to it: the shared entries get the same sums as above, without the
        # embedded operand copies of :meth:`_pair`, which raised a
        # certification's traced peak memory
        dirs, (ga_at, ha_at), (gb_at, hb_at) = _union(self.dirs, other.dirs)
        k = len(dirs)
        rows = val.shape[0]
        grad = _merged((rows, k), ga, ga_at, gb, gb_at, subtract)
        hess = None
        if not first and (ha is not None or hb is not None):
            hess = _merged((rows, k, k), ha, ha_at, hb, hb_at, subtract)
        return self._like(val, grad, hess, dirs, first, masks)

    def _scaled(self, c):
        """``self * c`` for a plain (1,) or (B,) array ``c``."""
        hess = None if self._hess is None else self._hess * c[:, None, None]
        return self._like(self.val * c, self._grad * c[:, None], hess)

    def __add__(self, other):
        if not isinstance(other, AdScalar2):
            return self._spanning(self.val + _as_batch(other), self._grad, self._hess)
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self._hess is None else -self._hess
        return self._like(-self.val, -self._grad, hess)

    def __sub__(self, other):
        if not isinstance(other, AdScalar2):
            return self._spanning(self.val - _as_batch(other), self._grad, self._hess)
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, AdScalar2):
            return self._scaled(_as_batch(other))
        o = other
        first = self.first_order or o.first_order
        masks = self._product_masks(o)
        ga, ha, gb, hb, dirs = self._pair(o)
        val = self.val * o.val
        grad = ga * o.val[:, None] + gb * self.val[:, None]
        if first:
            return self._like(val, grad, None, dirs, first, masks)
        cross = ga[:, :, None] * gb[:, None, :]
        # the outer products are summed before they join the other terms,
        # which keeps the Hessian bitwise symmetric
        sym = cross + np.swapaxes(cross, 1, 2)
        if ha is None and hb is None:
            return self._like(val, grad, sym, dirs, masks=masks)
        if hb is None:
            hess = ha * o.val[:, None, None]
        elif ha is None:
            hess = hb * self.val[:, None, None]
        else:
            hess = ha * o.val[:, None, None] + hb * self.val[:, None, None]
        hess += sym
        return self._like(val, grad, hess, dirs, masks=masks)

    __rmul__ = __mul__

    def _product_masks(self, other):
        """(G, H) of ``self * other``: the gradient ``g_a b + g_b a`` reads
        each operand's value where the other has directions, the Hessian
        ``h_a b + h_b a + g_a g_b^T + g_b g_a^T`` each value where the other
        has a Hessian and both gradients where both have directions."""
        a, b = self, other
        da, db = _bits(a.dirs), _bits(b.dirs)
        gmask = a.gmask | b.gmask | (db if a.dirs else 0) | (da if b.dirs else 0)
        hmask = a.hmask | b.hmask
        if a._hess is not None:
            hmask |= db
        if b._hess is not None:
            hmask |= da
        if a.dirs and b.dirs:
            hmask |= a.gmask | b.gmask
        return gmask, hmask

    # a quotient's value is ``a / b``, as plain numpy computes it; its
    # derivative parts are those of ``a * (1/b)``
    def __truediv__(self, other):
        if not isinstance(other, AdScalar2):
            c = _as_batch(other)
            return self._scaled(1.0 / c)._with_val(self.val / c)
        return (self * other._reciprocal())._with_val(self.val / other.val)

    def __rtruediv__(self, other):
        return (self._reciprocal() * other)._with_val(_as_batch(other) / self.val)

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
        # f' and f'' read the value, so every input of it (G and H lie in dirs)
        dirs = _bits(self.dirs)
        masks = (dirs, dirs)
        grad = fp[:, None] * self._grad
        if self.first_order:
            return self._like(f, grad, None, masks=masks)
        hess = self._grad[:, :, None] * self._grad[:, None, :]
        hess *= fpp[:, None, None]
        if self._hess is not None:
            hess += fp[:, None, None] * self._hess
        return self._like(f, grad, hess, masks=masks)

    def _with_val(self, val):
        """This value's derivative parts under the value ``val``."""
        return self._like(val, self._grad, self._hess)

    def _spanning(self, val, grad, hess, dirs=None, first_order=None, masks=None):
        """A result whose derivative parts span the batch of ``val``.

        A sum passes a derivative part through unchanged, so when the other
        operand has the larger batch the part is broadcast (read-only view).
        """
        b = val.shape[0]
        if grad.shape[0] != b:
            grad = np.broadcast_to(grad, (b,) + grad.shape[1:])
        if hess is not None and hess.shape[0] != b:
            hess = np.broadcast_to(hess, (b,) + hess.shape[1:])
        return self._like(val, grad, hess, dirs, first_order, masks)


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


def seed_vector(values, offset, n_dirs, first_order=False):
    """Turn the columns of ``values`` (B, k) into AD variables.

    Column ``i`` becomes the variable with seed direction ``offset + i``.
    With ``first_order`` the variables, and every value computed from them,
    carry no Hessian part.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    one = np.ones((values.shape[0], 1))  # shared, read-only like every part
    return [
        AdScalar2(values[:, i], one, None, (offset + i,), n_dirs, first_order)
        for i in range(values.shape[1])
    ]


def value_of(x):
    """Plain value of an AD scalar or passthrough for arrays."""
    if isinstance(x, AdScalar2):
        return x.val
    return np.asarray(x, dtype=float)
