"""Bolza optimal control problems with exact derivatives.

A problem is defined by callbacks written against :mod:`ssoc_certify.ad`
helpers, so every quantity needed downstream (gradients and Hessians of the
dynamics, running cost and endpoint terms, and the Hamiltonian partials)
comes out of one forward-mode sweep per seed direction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ad
from .errors import DimensionError, EvaluationDomainError, RegistryError, is_number


@dataclass
class OcpProblem:
    """A Bolza problem on [0, T].

    ``dynamics(t, x, u)`` returns a length-n sequence, ``running_cost`` a
    scalar, ``endpoint_cost(x0, xT)`` a scalar and ``boundary(x0, xT)`` a
    length-``n_b`` sequence (or None when there are no boundary equations).
    All callbacks must be evaluable on :class:`~ssoc_certify.ad.AdScalar2`
    values as well as on plain arrays.
    """

    name: str
    n: int
    m: int
    T: float
    dynamics: Callable
    running_cost: Callable
    endpoint_cost: Callable
    boundary: Optional[Callable] = None
    n_b: int = 0
    x0: Optional[np.ndarray] = None
    x_target: Optional[np.ndarray] = None
    u_guess: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (is_number(self.T) and math.isfinite(self.T) and self.T > 0):
            raise DimensionError(f"horizon T must be finite and positive, got {self.T!r}")
        dims = (self.n, self.m, self.n_b)
        integral = all(is_number(d, numbers.Integral) for d in dims)
        if not integral or min(dims[:2]) < 1 or self.n_b < 0:
            raise DimensionError(
                f"dimensions must be integers with n>=1, m>=1, n_b>=0, got {dims}"
            )
        if (self.boundary is None) != (self.n_b == 0):  # else the solve drops it or calls None
            with_map = "without a" if self.boundary is None else "with a"
            raise DimensionError(f"n_b={self.n_b} {with_map} boundary map; n_b counts its outputs")
        for name, size in (("x0", self.n), ("x_target", self.n), ("u_guess", self.m)):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if value.shape != (size,):
                    raise DimensionError(
                        f"{name} must have shape ({size},), got {value.shape}"
                    )
                if not np.all(np.isfinite(value)):  # else a callback is blamed for it
                    raise DimensionError(f"{name} must be finite, got {value}")
                setattr(self, name, value)


@dataclass
class EndpointTerms:
    """Endpoint cost/constraint data at (x0, xT); fields above the evaluation order are None."""

    K: float
    K_x0: Optional[np.ndarray] = None
    K_xT: Optional[np.ndarray] = None
    K_hess: Optional[np.ndarray] = None  # (2n, 2n) over (x0, xT)
    b: Optional[np.ndarray] = None  # (n_b,)
    b_x0: Optional[np.ndarray] = None  # (n_b, n)
    b_xT: Optional[np.ndarray] = None  # (n_b, n)
    lagr_hess: Optional[np.ndarray] = None  # K_hess + sum_i lam_i * hess(b_i)


def _seed(A, C, order):
    """The columns of A (B, k) and C (B, l) as callback arguments: plain at
    order 0, else AD variables over d = k + l directions (A's first), seeded
    first-order at order 1 so that no Hessian part is formed."""
    if order == 0:
        return list(A.T), list(C.T)
    d, first_order = A.shape[1] + C.shape[1], order == 1
    return ad.seed_vector(A, 0, d, first_order), ad.seed_vector(C, A.shape[1], d, first_order)


def _parts(outputs, B, d, order, what):
    """[values (B, c), gradients (B, c, d), Hessians (B, c, d, d)] of the c
    callback ``outputs``, up to ``order``; a plain output is a constant.
    A non-finite entry of any part raises, naming the part, ``what`` and
    the component."""
    c = len(outputs)
    parts = [np.empty((B, c))] + [np.zeros((B, c) + (d,) * k) for k in range(1, order + 1)]
    for i, out in enumerate(outputs):
        parts[0][:, i] = ad.value_of(out)
        if isinstance(out, ad.AdScalar2):
            for scatter, part in zip((out.scatter_grad, out.scatter_hess), parts[1:]):
                scatter(part[:, i])
    for part, kind in zip(parts, ("value", "gradient", "Hessian")):
        if not np.all(np.isfinite(part)):
            comp = int(np.argwhere(~np.isfinite(part))[0, 1])
            raise EvaluationDomainError(f"non-finite {kind} in {what}", component=comp)
    return parts


def _batch_points(prob, t, X, U):
    """(t, X (B, n), U (B, m)); a single point may be given as X (n,) and
    U (m,), any other shape raises :class:`DimensionError`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    B = X.shape[0]
    if X.shape != (B, prob.n) or U.shape != (B, prob.m):
        raise DimensionError(
            f"state batch has shape {X.shape} and control batch {U.shape}; "
            f"expected (B, {prob.n}) and (B, {prob.m})"
        )
    return np.asarray(t, dtype=float), X, U


def dynamics_batch(prob: OcpProblem, t, X, U, order=0):
    """Batched dynamics evaluation.

    order=0 returns F (B, n); order=1 adds (Fx (B,n,n), Fu (B,n,m));
    order=2 adds the per-component Hessians Hf (B, n, d, d) with d = n+m.
    """
    t, X, U = _batch_points(prob, t, X, U)
    out = prob.dynamics(t, *_seed(X, U, order))
    if len(out) != prob.n:
        raise DimensionError("dynamics returned wrong dimension")
    F, *derivs = _parts(out, X.shape[0], prob.n + prob.m, order, "dynamics")
    if order == 0:
        return F
    grads, *Hf = derivs
    return (F, grads[:, :, : prob.n].copy(), grads[:, :, prob.n :].copy(), *Hf)


def running_cost_batch(prob: OcpProblem, t, X, U, order=0):
    """Batched running cost; mirrors :func:`dynamics_batch` return structure."""
    t, X, U = _batch_points(prob, t, X, U)
    out = prob.running_cost(t, *_seed(X, U, order))
    parts = _parts([out], X.shape[0], prob.n + prob.m, order, "running cost")
    L, *derivs = (p[:, 0] for p in parts)
    return (L, *derivs) if order else L


def dependency_masks(prob: OcpProblem, t, x, u):
    """((G_f, H_f), (G_L, H_L), curved): the inputs that the dynamics' and
    the running cost's gradient and Hessian values read, as bitmasks over
    the n + m axes of (x, u) (see :mod:`ssoc_certify.ad`), and the indices
    of the dynamics outputs that carry a Hessian part.

    One order-2 probe of both callbacks at the point (t, x (n,), u (m,));
    the dynamics' masks are the unions over its components.  Offsetting
    the point along an axis outside a mask leaves the parts it covers
    bitwise unchanged, and a dynamics output outside ``curved`` has a zero
    Hessian at every point: the AD builds a value by the same operations
    wherever it is evaluated, and a callback cannot branch on an AD value.
    """
    t, X, U = _batch_points(prob, t, x, u)
    xs, us = _seed(X, U, 2)
    dynamics = prob.dynamics(t, xs, us)
    curved = [i for i, f in enumerate(dynamics) if isinstance(f, ad.AdScalar2) and not f.is_affine]

    def union(outputs):
        G = H = 0  # a plain output is a constant
        for out in outputs:
            if isinstance(out, ad.AdScalar2):
                G, H = G | out.gmask, H | out.hmask
        return G, H

    return union(dynamics), union([prob.running_cost(t, xs, us)]), np.array(curved, dtype=int)


def hamiltonian_batch(prob: OcpProblem, t, X, U, P):
    """(F, H_x, H_u) of H = L + p.f at a batch of points.

    F (B, n) is the dynamics, H_x (B, n) and H_u (B, m) the partials of the
    Hamiltonian; one order-1 dynamics batch and one order-1 running-cost
    batch, which form no Hessian, serve all three.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    F, Fx, Fu = dynamics_batch(prob, t, X, U, order=1)
    if P.shape != F.shape:
        raise DimensionError(f"costate batch has shape {P.shape}, expected {F.shape}")
    _, Lg = running_cost_batch(prob, t, X, U, order=1)
    return F, hamiltonian_x(Lg, Fx, P), Lg[:, prob.n :] + np.einsum("bi,bij->bj", P, Fu)


def hamiltonian_x(Lg, Fx, P):
    """H_x (B, n) of H = L + p.f from the order-1 parts Lg and Fx and the costates P (B, n)."""
    return Lg[:, : Fx.shape[1]] + np.einsum("bi,bij->bj", P, Fx)


def _endpoint_parts(prob, X0, XT, order, boundary):
    """Parts (see :func:`_parts`) of the endpoint cost and, with
    ``boundary``, of the boundary map (else None) at the pairs X0, XT (B, n)."""
    B, d = X0.shape[0], 2 * prob.n
    x0s, xTs = _seed(X0, XT, order)
    K = _parts([prob.endpoint_cost(x0s, xTs)], B, d, order, "endpoint cost")
    if not boundary:
        return K, None
    out = prob.boundary(x0s, xTs) if prob.n_b > 0 else []
    if len(out) != prob.n_b:
        raise DimensionError("boundary map returned wrong dimension")
    return K, _parts(out, B, d, order, "boundary map")


def eval_endpoint_terms(prob: OcpProblem, x0, xT, lam=None, order=2) -> EndpointTerms:
    """Endpoint cost K, boundary map b, and their derivatives up to ``order``
    at (x0, xT); ``lam`` weighs the boundary Hessians in ``lagr_hess``."""
    n = prob.n
    x0 = np.asarray(x0, dtype=float)
    xT = np.asarray(xT, dtype=float)
    if x0.shape != (n,) or xT.shape != (n,):
        raise DimensionError("endpoint states must have shape (n,)")
    lam = np.zeros(prob.n_b) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != (prob.n_b,):
        raise DimensionError("boundary multiplier must have shape (n_b,)")
    parts = _endpoint_parts(prob, x0[None], xT[None], order, boundary=True)
    K, b = ([p[0] for p in ps] for ps in parts)  # the rows of the one pair
    ept = EndpointTerms(K=float(K[0][0]), b=b[0])
    if order >= 1:
        ept.K_x0, ept.K_xT = K[1][0, :n], K[1][0, n:]
        ept.b_x0, ept.b_xT = b[1][:, :n], b[1][:, n:]
    if order == 2:
        ept.K_hess, ept.lagr_hess = K[2][0], K[2][0].copy()
        for lam_i, hess_i in zip(lam, b[2]):
            ept.lagr_hess += lam_i * hess_i
    return ept


def endpoint_hessian_batch(prob: OcpProblem, X0, XT) -> np.ndarray:
    """Endpoint cost Hessians over (x0, xT) at a batch of endpoint pairs.

    Returns (B, 2n, 2n); row b equals
    ``eval_endpoint_terms(prob, X0[b], XT[b]).K_hess`` bitwise. The
    boundary map is not evaluated.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    XT = np.atleast_2d(np.asarray(XT, dtype=float))
    if X0.shape[1:] != (prob.n,) or XT.shape != X0.shape:
        raise DimensionError("endpoint states must have shape (B, n)")
    return _endpoint_parts(prob, X0, XT, 2, boundary=False)[0][2][:, 0]


# -- builtin problems ---------------------------------------------------------


def _quadrotor() -> OcpProblem:
    # planar rigid body: state [y, z, theta, vy, vz, omega], controls are the
    # two rotor thrusts
    mass, grav, arm, inertia = 1.0, 9.81, 0.3, 0.2
    q_diag = np.array([1.0, 1.0, 0.1, 0.1, 0.1, 0.1])
    r_diag = np.array([0.01, 0.01])
    k_terminal = 100.0
    x_init = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    x_final = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])

    def dynamics(t, x, u):
        y, z, th, vy, vz, om = x
        u1, u2 = u
        thrust = (u1 + u2) * (1.0 / mass)
        return [
            vy,
            vz,
            om,
            -thrust * ad.sin(th),
            thrust * ad.cos(th) - grav,
            (arm / inertia) * (u1 - u2),
        ]

    def running_cost(t, x, u):
        acc = 0.5 * q_diag[0] * x[0] * x[0]
        for i in range(1, 6):
            acc = acc + 0.5 * q_diag[i] * x[i] * x[i]
        for j in range(2):
            acc = acc + 0.5 * r_diag[j] * u[j] * u[j]
        return acc

    def endpoint_cost(x0, xT):
        acc = 0.5 * k_terminal * (xT[0] - x_final[0]) * (xT[0] - x_final[0])
        for i in range(1, 6):
            acc = acc + 0.5 * k_terminal * (xT[i] - x_final[i]) * (xT[i] - x_final[i])
        return acc

    return OcpProblem(
        name="quadrotor",
        n=6,
        m=2,
        T=2.0,
        dynamics=dynamics,
        running_cost=running_cost,
        endpoint_cost=endpoint_cost,
        x0=x_init,
        x_target=x_final,
        u_guess=np.array([mass * grav / 2.0, mass * grav / 2.0]),
    )


def _double_integrator_lq() -> OcpProblem:
    def dynamics(t, x, u):
        return [x[1], u[0]]

    def running_cost(t, x, u):
        return 0.5 * (x[0] * x[0] + x[1] * x[1] + u[0] * u[0])

    def endpoint_cost(x0, xT):
        return 0.5 * (xT[0] * xT[0] + xT[1] * xT[1])

    return OcpProblem(
        name="double-integrator-lq",
        n=2,
        m=1,
        T=1.0,
        dynamics=dynamics,
        running_cost=running_cost,
        endpoint_cost=endpoint_cost,
        x0=np.array([1.0, 0.0]),
        x_target=np.zeros(2),
        u_guess=np.zeros(1),
    )


_REGISTRY = {
    "quadrotor": _quadrotor,
    "double-integrator-lq": _double_integrator_lq,
}


def builtin_names():
    return sorted(_REGISTRY)


def builtin_problem(name: str) -> OcpProblem:
    """Instantiate a builtin problem by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown problem {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return factory()
