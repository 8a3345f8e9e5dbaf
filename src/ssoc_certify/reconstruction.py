"""Continuous-time reconstruction from a discrete KKT point.

States are cubic Hermite (node values with dynamics slopes), controls are
piecewise linear through every control sample, and the costate is cubic
Hermite through consistent node costates with adjoint slopes, anchored so
that the terminal transversality relation holds exactly.

Costate extraction uses two multiplier mappings:

* per-sample stationarity costates ``s_j / w_j`` (the combination under
  which the control stationarity residual at sample j equals the scaled NLP
  gradient residual), and
* consistent node costates assembled from the state-stationarity rows of
  the NLP, which agree from the left and the right of every interior node
  up to the solve tolerance and reproduce the terminal condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, transcription
from .errors import ConvergenceError, PolyDomainError


@dataclass
class PiecewisePoly:
    """Piecewise polynomial with per-piece local power-basis coefficients.

    ``coeffs[p, j]`` is the vector coefficient of (t - breaks[p])**j on
    piece p; pieces cover [breaks[0], breaks[-1]].
    """

    breaks: np.ndarray  # (P+1,)
    coeffs: np.ndarray  # (P, order, dim)

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    @property
    def dim(self):
        return self.coeffs.shape[2]

    def _locate(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.breaks[0], self.breaks[-1]
        if np.any(t < lo) or np.any(t > hi):
            raise PolyDomainError(
                f"evaluation time outside [{lo}, {hi}]"
            )
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        return np.clip(idx, 0, self.coeffs.shape[0] - 1), t

    def eval(self, t):
        idx, t = self._locate(t)
        s = t - self.breaks[idx]
        out = np.zeros(np.shape(s) + (self.dim,))
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            out = out * s[..., None] + self.coeffs[idx, j]
        return out

    def eval_derivative(self, t):
        idx, t = self._locate(t)
        s = t - self.breaks[idx]
        out = np.zeros(np.shape(s) + (self.dim,))
        for j in range(self.coeffs.shape[1] - 1, 0, -1):
            out = out * s[..., None] + j * self.coeffs[idx, j]
        return out


def hermite_cubic(nodes, values, slopes) -> PiecewisePoly:
    """Cubic Hermite interpolant through (nodes, values) with given slopes."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    h = np.diff(nodes)[:, None]
    dv = np.diff(values, axis=0)
    c0 = values[:-1]
    c1 = slopes[:-1]
    c2 = 3.0 * dv / h**2 - (2.0 * slopes[:-1] + slopes[1:]) / h
    c3 = -2.0 * dv / h**3 + (slopes[:-1] + slopes[1:]) / h**2
    return PiecewisePoly(nodes, np.stack([c0, c1, c2, c3], axis=1))


def piecewise_linear(times, values) -> PiecewisePoly:
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    h = np.diff(times)[:, None]
    c0 = values[:-1]
    c1 = np.diff(values, axis=0) / h
    return PiecewisePoly(times, np.stack([c0, c1], axis=1))


def extract_costates(prob, layout, z, nu_all):
    """Costates from the defect multipliers.

    The state-stationarity row of the NLP at node k splits into the shares of
    interval k (its sample p = 0) and of interval k - 1 (its sample
    p = stride).  With the scheme table, the share of interval k at sample p
    is ``sum_r state[r][p] nu_kr + h_k quad[p] H_x(t, x, u; q)`` with the
    costate argument ``q = sum_r (flow[r][p] / quad[p]) nu_kr``.  The node
    costate is the share of interval k (from the right of node k) or minus the
    share of interval k - 1 (from the left); stationarity makes the two agree.

    Returns (p_station (S, n), p_nodes (N+1, n), jump) where ``jump`` is the
    largest disagreement between the left and right node-costate assemblies
    at interior nodes (a stationarity diagnostic, near zero at converged
    points).
    """
    X, U = layout.unpack(z)
    S = transcription.sample_multipliers(layout, nu_all)
    w = transcription.quadrature_weights(layout)
    p_station = S / w[:, None]
    nu_defect, _, _ = transcription.split_multipliers(layout, nu_all)
    scheme = layout.scheme
    N = layout.mesh.n_intervals
    nu = nu_defect.reshape(N, scheme.blocks, layout.n)
    state, flow = np.asarray(scheme.state), np.asarray(scheme.flow)

    def interval_share(p):
        j = layout.interval_samples[:, p]
        quad = scheme.quad[p]
        q = np.einsum("r,kri->ki", flow[:, p] / quad, nu)
        _, H_x, _ = model.hamiltonian_batch(prob, layout.sample_times[j], X[j], U[j], q)
        weighted_H_x = (layout.mesh.h * quad)[:, None] * H_x
        return np.einsum("r,kri->ki", state[:, p], nu) + weighted_H_x

    p_right = interval_share(0)
    p_left = -interval_share(scheme.stride)
    p_nodes = np.vstack([p_right, p_left[-1:]])
    jump = 0.0
    if N > 1:
        jump = float(np.max(np.abs(p_left[:-1] - p_right[1:])))
    return p_station, p_nodes, jump


@dataclass
class Reconstruction:
    """Piecewise-polynomial trajectories built from a discrete KKT point."""

    X: PiecewisePoly  # states, cubic
    U: PiecewisePoly  # controls, linear
    P: PiecewisePoly  # costate, cubic
    lam: np.ndarray
    layout: transcription.NlpLayout
    x_samples: np.ndarray
    u_samples: np.ndarray
    p_station: np.ndarray
    p_nodes: np.ndarray  # anchored node costates
    anchor_shift: float  # |raw terminal costate - transversality value|
    costate_jump: float
    terminal_residual: float

    @property
    def mesh(self):
        return self.layout.mesh

    @property
    def scheme(self):
        return self.layout.scheme

    @property
    def sample_times(self):
        return self.layout.sample_times

    @property
    def T(self):
        return self.mesh.T


def reconstruct(prob, dkkt) -> Reconstruction:
    """Build (X, U, P) from a converged discrete KKT point."""
    if not dkkt.converged:
        raise ConvergenceError("reconstruction refused: discrete point not converged")
    layout = dkkt.layout
    nodes = layout.mesh.nodes
    node_idx = layout.node_sample(np.arange(layout.n_nodes))
    x_nodes = dkkt.x[node_idx]
    u_nodes = dkkt.u[node_idx]

    # anchor the terminal costate on the transversality relation, then one
    # model batch at the nodes gives the state and the costate slopes
    p_nodes = dkkt.p_nodes.copy()
    ept = model.eval_endpoint_terms(prob, x_nodes[0], x_nodes[-1], dkkt.lam)
    p_terminal = ept.K_xT + ept.b_xT.T @ dkkt.lam
    anchor_shift = float(np.linalg.norm(p_nodes[-1] - p_terminal))
    p_nodes[-1] = p_terminal
    F, H_x, _ = model.hamiltonian_batch(prob, nodes, x_nodes, u_nodes, p_nodes)
    X = hermite_cubic(nodes, x_nodes, F)
    U = piecewise_linear(layout.sample_times, dkkt.u)
    P = hermite_cubic(nodes, p_nodes, -H_x)
    terminal_residual = float(np.linalg.norm(P.eval(layout.mesh.T) - p_terminal))
    return Reconstruction(
        X=X,
        U=U,
        P=P,
        lam=dkkt.lam.copy(),
        layout=layout,
        x_samples=dkkt.x.copy(),
        u_samples=dkkt.u.copy(),
        p_station=dkkt.p_station.copy(),
        p_nodes=p_nodes,
        anchor_shift=anchor_shift,
        costate_jump=dkkt.costate_jump,
        terminal_residual=terminal_residual,
    )
