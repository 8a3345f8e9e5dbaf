"""Bolza optimal control problems with exact derivatives.

A problem is defined by callbacks written against :mod:`ssoc_certify.ad`
helpers, so every quantity needed downstream (gradients and Hessians of the
dynamics, running cost and endpoint terms, and the Hamiltonian partials)
comes out of one forward-mode sweep per seed direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import ad
from .errors import DimensionError, EvaluationDomainError, RegistryError


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
        if self.T <= 0:
            raise DimensionError("horizon T must be positive")
        if self.n < 1 or self.m < 1 or self.n_b < 0:
            raise DimensionError("dimensions must satisfy n>=1, m>=1, n_b>=0")
        for name, size in (("x0", self.n), ("x_target", self.n), ("u_guess", self.m)):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if value.shape != (size,):
                    raise DimensionError(
                        f"{name} must have shape ({size},), got {value.shape}"
                    )
                setattr(self, name, value)


@dataclass
class EndpointTerms:
    """Endpoint cost/constraint data at (x0, xT)."""

    K: float
    K_x0: np.ndarray
    K_xT: np.ndarray
    K_hess: np.ndarray  # (2n, 2n) over (x0, xT)
    b: np.ndarray  # (n_b,)
    b_x0: np.ndarray  # (n_b, n)
    b_xT: np.ndarray  # (n_b, n)
    lagr_hess: np.ndarray  # K_hess + sum_i lam_i * hess(b_i)


def _require_finite(arr, what):
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))
        comp = int(bad[0][-1]) if bad.size else None
        raise EvaluationDomainError(f"non-finite value in {what}", component=comp)


def _batch_variables(prob, t, X, U, order):
    """(t, x columns, u columns, B) of states X (B, n) and controls U (B, m).

    A single point may be given as X (n,) and U (m,); any other shape
    raises :class:`DimensionError`.  With order > 0 the columns are AD
    variables seeded over d = n + m directions.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    B = X.shape[0]
    if X.shape != (B, prob.n) or U.shape != (B, prob.m):
        raise DimensionError(
            f"state batch has shape {X.shape} and control batch {U.shape}; "
            f"expected (B, {prob.n}) and (B, {prob.m})"
        )
    if order == 0:
        xs = [X[:, i] for i in range(prob.n)]
        us = [U[:, j] for j in range(prob.m)]
    else:
        d = prob.n + prob.m
        xs = ad.seed_vector(X, 0, d)
        us = ad.seed_vector(U, prob.n, d)
    return np.asarray(t, dtype=float), xs, us, B


def dynamics_batch(prob: OcpProblem, t, X, U, order=0):
    """Batched dynamics evaluation.

    order=0 returns F (B, n); order=1 adds (Fx (B,n,n), Fu (B,n,m));
    order=2 adds the per-component Hessians Hf (B, n, d, d) with d = n+m.
    """
    t, xs, us, B = _batch_variables(prob, t, X, U, order)
    out = prob.dynamics(t, xs, us)
    if len(out) != prob.n:
        raise DimensionError("dynamics returned wrong dimension")
    F = np.empty((B, prob.n))
    for i, c in enumerate(out):
        F[:, i] = ad.value_of(c) if not np.isscalar(c) else c
    _require_finite(F, "dynamics")
    if order == 0:
        return F
    Fx = np.empty((B, prob.n, prob.n))
    Fu = np.empty((B, prob.n, prob.m))
    for i, c in enumerate(out):
        if isinstance(c, ad.AdScalar2):
            Fx[:, i, :] = c.grad[:, : prob.n]
            Fu[:, i, :] = c.grad[:, prob.n :]
        else:
            Fx[:, i, :] = 0.0
            Fu[:, i, :] = 0.0
    if order == 1:
        return F, Fx, Fu
    d = prob.n + prob.m
    Hf = np.zeros((B, prob.n, d, d))
    for i, c in enumerate(out):
        if isinstance(c, ad.AdScalar2) and not c.is_affine:
            Hf[:, i] = c.hess
    return F, Fx, Fu, Hf


def running_cost_batch(prob: OcpProblem, t, X, U, order=0):
    """Batched running cost; mirrors :func:`dynamics_batch` return structure."""
    t, xs, us, B = _batch_variables(prob, t, X, U, order)
    out = prob.running_cost(t, xs, us)
    L = ad.value_of(out)
    if np.isscalar(L) or L.ndim == 0:
        L = np.full(B, float(L))
    _require_finite(L, "running cost")
    if order == 0:
        return L
    if not isinstance(out, ad.AdScalar2):
        out = ad.AdScalar2.constant(L, prob.n + prob.m)
    if order == 1:
        return L, out.grad
    return L, out.grad, out.hess


def hamiltonian_batch(prob: OcpProblem, t, X, U, P):
    """(F, H_x, H_u) of H = L + p.f at a batch of points.

    F (B, n) is the dynamics, H_x (B, n) and H_u (B, m) the partials of the
    Hamiltonian; one order-1 dynamics batch and one order-1 running-cost
    batch serve all three.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    F, Fx, Fu = dynamics_batch(prob, t, X, U, order=1)
    if P.shape != F.shape:
        raise DimensionError(f"costate batch has shape {P.shape}, expected {F.shape}")
    _, Lg = running_cost_batch(prob, t, X, U, order=1)
    n = prob.n
    H_x = Lg[:, :n] + np.einsum("bi,bij->bj", P, Fx)
    H_u = Lg[:, n:] + np.einsum("bi,bij->bj", P, Fu)
    return F, H_x, H_u


def eval_endpoint_terms(prob: OcpProblem, x0, xT, lam=None) -> EndpointTerms:
    """Endpoint cost K, boundary map b, and their derivatives at (x0, xT)."""
    n = prob.n
    x0 = np.asarray(x0, dtype=float)
    xT = np.asarray(xT, dtype=float)
    if x0.shape != (n,) or xT.shape != (n,):
        raise DimensionError("endpoint states must have shape (n,)")
    lam = np.zeros(prob.n_b) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != (prob.n_b,):
        raise DimensionError("boundary multiplier must have shape (n_b,)")
    d = 2 * n
    a = ad.seed_vector(x0[None, :], 0, d)
    b_vars = ad.seed_vector(xT[None, :], n, d)
    K = prob.endpoint_cost(a, b_vars)
    if isinstance(K, ad.AdScalar2):
        K_val = float(K.val[0])
        K_grad = K.grad[0]
        K_hess = K.hess[0]
    else:
        K_val, K_grad, K_hess = float(K), np.zeros(d), np.zeros((d, d))
    lagr_hess = K_hess.copy()
    if prob.n_b > 0:
        out = prob.boundary(a, b_vars)
        if len(out) != prob.n_b:
            raise DimensionError("boundary map returned wrong dimension")
        b_val = np.empty(prob.n_b)
        b_x0 = np.zeros((prob.n_b, n))
        b_xT = np.zeros((prob.n_b, n))
        for i, c in enumerate(out):
            if isinstance(c, ad.AdScalar2):
                b_val[i] = c.val[0]
                b_x0[i] = c.grad[0, :n]
                b_xT[i] = c.grad[0, n:]
                if not c.is_affine:
                    lagr_hess += lam[i] * c.hess[0]
            else:
                b_val[i] = float(c)
    else:
        b_val = np.zeros(0)
        b_x0 = np.zeros((0, n))
        b_xT = np.zeros((0, n))
    _require_finite(K_val, "endpoint cost")
    _require_finite(b_val, "boundary map")
    return EndpointTerms(
        K=K_val,
        K_x0=K_grad[:n],
        K_xT=K_grad[n:],
        K_hess=K_hess,
        b=b_val,
        b_x0=b_x0,
        b_xT=b_xT,
        lagr_hess=lagr_hess,
    )


def endpoint_hessian_batch(prob: OcpProblem, X0, XT) -> np.ndarray:
    """Endpoint cost Hessians over (x0, xT) at a batch of endpoint pairs.

    Returns (B, 2n, 2n); row b equals
    ``eval_endpoint_terms(prob, X0[b], XT[b]).K_hess`` bitwise. The
    boundary map is not evaluated.
    """
    n = prob.n
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    XT = np.atleast_2d(np.asarray(XT, dtype=float))
    if X0.shape[1:] != (n,) or XT.shape != X0.shape:
        raise DimensionError("endpoint states must have shape (B, n)")
    d = 2 * n
    K = prob.endpoint_cost(ad.seed_vector(X0, 0, d), ad.seed_vector(XT, n, d))
    _require_finite(ad.value_of(K), "endpoint cost")
    if not isinstance(K, ad.AdScalar2):
        return np.zeros((X0.shape[0], d, d))
    return K.hess


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
