"""Globalized Newton-KKT (SQP) solver for the collocation NLP."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse

from . import transcription
from .errors import SolverBreakdownError
from .numerics import sparse_lu

# Curvature test of a Newton step: dz'(W + delta I) dz >= KAPPA |dz|^2.
CURVATURE_KAPPA = 1e-8
# A step that fails the test is regularized from DELTA0 upward by factors of
# 10; past DELTA_MAX it is a breakdown.
DELTA0 = 1e-8
DELTA_MAX = 1e6
MAX_ITERATIONS = 200
# Line search: Armijo fraction, backtracking factor, and the margin of the l1
# penalty weight over the largest multiplier.
ARMIJO = 1e-4
BACKTRACK = 0.5
PENALTY_MARGIN = 1.1


@dataclass
class SolveReport:
    iterations: int
    kkt_residual: float
    constraint_residual: float
    converged: bool
    delta_final: float
    guess: str
    merit_history: list = field(default_factory=list)

    def to_dict(self):
        d = asdict(self)
        del d["merit_history"]
        return d


def newton_step(W, J, grad, c):
    """One regularized saddle solve.

    Solves [[W + dI, J^T], [J, 0]] [dz; nu] = -[grad; c] starting from
    d = 0, with a sparse LU factorization (W and J may be dense or
    sparse).  Instead of counting inertia, the step is accepted when it has
    positive curvature, dz'(W + dI) dz >= CURVATURE_KAPPA |dz|^2 (the
    inertia-free test of Chiang and Zavala).  When the test fails or the
    factorization hits an exactly zero pivot, d is raised to DELTA0 and then
    escalated by factors of 10; past DELTA_MAX the step is declared a
    breakdown.

    Returns (dz, nu, delta_used).
    """
    W = scipy.sparse.csr_matrix(W, dtype=float)
    J = scipy.sparse.csr_matrix(J, dtype=float)
    n_z = W.shape[0]
    rhs = -np.concatenate([np.asarray(grad, dtype=float), np.asarray(c, dtype=float)])
    eye = scipy.sparse.identity(n_z, format="csr")
    d = 0.0
    while True:
        lu = sparse_lu(scipy.sparse.bmat([[W + d * eye, J.T], [J, None]]))
        if lu is not None:
            sol = lu.solve(rhs)
            dz = sol[:n_z]
            if dz @ (W @ dz) + d * (dz @ dz) >= CURVATURE_KAPPA * (dz @ dz):
                return dz, sol[n_z:], d
        d = DELTA0 if d == 0.0 else d * 10.0
        if d > DELTA_MAX:
            raise SolverBreakdownError(
                "KKT system singular or indefinite after maximal regularization"
            )


def default_initial_guess(prob, layout):
    """Linear state interpolation toward the target, constant control guess."""
    times = layout.sample_times
    x_start = prob.x0 if prob.x0 is not None else np.zeros(prob.n)
    x_end = prob.x_target if prob.x_target is not None else x_start
    tau = (times / prob.T)[:, None]
    X = (1.0 - tau) * x_start[None, :] + tau * x_end[None, :]
    u_const = prob.u_guess if prob.u_guess is not None else np.zeros(prob.m)
    U = np.tile(u_const, (layout.n_samples, 1))
    return layout.pack(X, U)


def solve(prob, mesh, scheme, tolerance=1e-12, initial_guess=None):
    """Solve the collocation NLP to a max KKT residual of ``tolerance``.

    Returns (DiscreteKkt, SolveReport).  After reaching the tolerance one
    plain Newton polish step is taken, and kept only when it shrinks the
    max KKT residual, so converged points sit at the round-off floor (on the
    quadrotor at N = 140 it takes the residual from 3.8e-13 to 2.9e-15; two
    more steps would only reach 2.5e-15).  The discrete point is returned
    even when the tolerance was not met (flagged in the report);
    certification refuses non-converged inputs.
    """
    layout = transcription.assemble(prob, mesh, scheme)
    if initial_guess is None:
        z = default_initial_guess(prob, layout)
        guess_kind = "linear-interpolation"
    else:
        z = np.asarray(initial_guess, dtype=float).copy()
        guess_kind = "user"
    nu = np.zeros(layout.n_c)
    sigma = 1.0
    delta_used = 0.0
    merit_history = []

    def kkt_state(z, nu):
        f, g, c, J, W = transcription.eval_kkt(prob, layout, z, nu)
        res = max(
            float(np.max(np.abs(g + J.T @ nu))),
            float(np.max(np.abs(c))) if c.size else 0.0,
        )
        return f, g, c, J, W, res

    f0, g, c, J, W, res = kkt_state(z, nu)
    iterations = 0

    while res > tolerance and iterations < MAX_ITERATIONS:
        iterations += 1
        dz, nu_new, delta_used = newton_step(W, J, g, c)
        sigma = max(sigma, PENALTY_MARGIN * float(np.max(np.abs(nu_new), initial=0.0)))
        theta0 = float(np.sum(np.abs(c)))
        merit0 = f0 + sigma * theta0
        slope = float(g @ dz) - sigma * theta0
        alpha = 1.0
        while alpha >= 1e-12:
            z_trial = z + alpha * dz
            f_t = transcription.eval_objective(prob, layout, z_trial)
            theta_t = float(np.sum(np.abs(transcription.eval_defects(prob, layout, z_trial))))
            merit_t = f_t + sigma * theta_t
            if merit_t <= merit0 + ARMIJO * alpha * slope + 1e-14 * max(1.0, abs(merit0)):
                break
            alpha *= BACKTRACK
        if alpha < 1e-12:
            break  # merit stalled; report non-convergence below
        merit_history.append(merit_t)
        z = z + alpha * dz
        nu = nu_new
        f0, g, c, J, W, res = kkt_state(z, nu)

    converged = res <= tolerance
    # push the residual toward the round-off floor, but stay proportional
    # to the requested tolerance so loose solves stay loose
    if converged and res > tolerance * 1e-3:
        try:
            dz, nu_new, _ = newton_step(W, J, g, c)
        except SolverBreakdownError:
            pass
        else:
            trial = kkt_state(z + dz, nu_new)
            if trial[-1] < res:
                z = z + dz
                nu = nu_new
                f0, g, c, J, W, res = trial

    report = SolveReport(
        iterations=iterations,
        kkt_residual=float(np.max(np.abs(g + J.T @ nu))),
        constraint_residual=float(np.max(np.abs(c))) if c.size else 0.0,
        converged=converged,
        delta_final=delta_used,
        guess=guess_kind,
        merit_history=merit_history,
    )
    dkkt = transcription.DiscreteKkt(layout=layout, z=z, nu=nu, converged=converged)
    dkkt.J, dkkt.W = J, W
    return dkkt, report
