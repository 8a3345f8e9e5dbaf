"""Continuous KKT residuals of a reconstruction.

Two flavors are computed:

* dense-grid: composite Gauss-Legendre quadrature of the squared pointwise
  residuals over the reconstruction, split at control breakpoints so every
  quadrature cell sees a smooth integrand.  This is the physically
  meaningful L2 defect of the interpolant and drives mesh refinement.
* node-sampled: the same residuals evaluated at the collocation points with
  the scheme's own quadrature weights and the per-point stationarity
  costates.  At a converged solve these sit at the round-off floor; this is
  the quantity the scalar acceptance test consumes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import model, transcription
from .errors import DimensionError

# Gauss-Legendre points per quadrature cell, and uniform samples per cell
# (both ends included) of the sup norms
GAUSS_POINTS = 5
SUP_SAMPLES_PER_CELL = 21


@dataclass
class ResidualReport:
    # dense-grid L2 aggregate (Gauss-Legendre over the reconstruction)
    e_dyn_L2: float
    e_stat_L2: float
    e_bc: float
    E_N2: float
    # node-sampled aggregate (collocation points, scheme weights)
    e_dyn_node_L2: float
    e_stat_node_L2: float
    E_N2_node: float
    kkt_node_inf: float
    # sup-norm indicators (dense sampling)
    e_dyn_inf: float
    e_adj_inf: float
    e_stat_inf: float
    E_inf: float  # includes the adjoint residual
    E_inf_basic: float  # dynamics + stationarity + boundary only
    per_interval: list  # (k, local dyn L2, local stat L2)

    def to_dict(self):
        d = asdict(self)
        d["per_interval"] = [
            {"interval": int(k), "dyn_l2": dy, "stat_l2": st}
            for (k, dy, st) in self.per_interval
        ]
        return d


def compute_residuals(prob, rec) -> ResidualReport:
    """Evaluate all residual aggregates of a reconstruction."""
    # quadrature cells run between consecutive control breakpoints (the
    # sample times); each belongs to the mesh interval containing its left end
    a, b = rec.U.breaks[:-1], rec.U.breaks[1:]
    nodes = rec.mesh.nodes
    interval_of = np.clip(np.searchsorted(nodes, a, side="right") - 1, 0, nodes.size - 2)
    gl_x, gl_w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    half = (0.5 * (b - a))[:, None]
    t_quad = ((0.5 * (a + b))[:, None] + half * gl_x).ravel()
    w_quad = (half * gl_w).ravel()
    cell_of = np.repeat(np.arange(a.size), GAUSS_POINTS)

    # sup norms on the quadrature points plus uniform samples per cell; one
    # model pass on that grid also gives the quadrature rows
    t_inf, inverse = np.unique(
        np.concatenate([t_quad, np.linspace(a, b, SUP_SAMPLES_PER_CELL, axis=-1).ravel()]),
        return_inverse=True,
    )
    F, H_x, r_stat_i = model.hamiltonian_batch(
        prob, t_inf, rec.X.eval(t_inf), rec.U.eval(t_inf), rec.P.eval(t_inf)
    )
    r_dyn_i = rec.X.eval_derivative(t_inf) - F
    r_adj_i = -rec.P.eval_derivative(t_inf) - H_x
    quad_rows = inverse[: t_quad.size]
    r_dyn_q, r_stat_q = r_dyn_i[quad_rows], r_stat_i[quad_rows]
    dyn_sq = np.einsum("b,bi->b", w_quad, r_dyn_q**2)
    stat_sq = np.einsum("b,bi->b", w_quad, r_stat_q**2)

    # accumulate in cell order so that per_interval is reproducible bitwise
    dyn_cell = np.zeros(a.size)
    stat_cell = np.zeros(a.size)
    np.add.at(dyn_cell, cell_of, dyn_sq)
    np.add.at(stat_cell, cell_of, stat_sq)
    N = rec.mesh.n_intervals
    dyn_int = np.zeros(N)
    stat_int = np.zeros(N)
    np.add.at(dyn_int, interval_of, dyn_cell)
    np.add.at(stat_int, interval_of, stat_cell)
    per_interval = [
        (k, math.sqrt(dyn_int[k]), math.sqrt(stat_int[k])) for k in range(N)
    ]
    e_dyn_L2 = math.sqrt(float(np.sum(dyn_int)))
    e_stat_L2 = math.sqrt(float(np.sum(stat_int)))
    e_dyn_inf = float(np.max(np.abs(r_dyn_i)))
    e_stat_inf = float(np.max(np.abs(r_stat_i)))
    e_adj_inf = float(np.max(np.abs(r_adj_i)))

    # boundary residuals
    x0v = rec.X.eval(0.0)
    xTv = rec.X.eval(rec.T)
    e_bc = float(np.linalg.norm(model.eval_endpoint_terms(prob, x0v, xTv, order=0).b))
    if prob.x0 is not None:
        e_bc += float(np.linalg.norm(x0v - prob.x0))

    # node-sampled residuals with the per-point stationarity costates
    t_nodes = rec.sample_times
    Fs, _, r_stat_n = model.hamiltonian_batch(
        prob, t_nodes, rec.x_samples, rec.u_samples, rec.p_station
    )
    r_dyn_n = rec.X.eval_derivative(t_nodes) - Fs
    w_nodes = transcription.quadrature_weights(rec.layout)
    e_dyn_node = math.sqrt(float(np.einsum("b,bi->", w_nodes, r_dyn_n**2)))
    e_stat_node = math.sqrt(float(np.einsum("b,bi->", w_nodes, r_stat_n**2)))
    kkt_node_inf = max(
        float(np.max(np.abs(r_dyn_n))), float(np.max(np.abs(r_stat_n))), e_bc
    )

    E_N2 = e_dyn_L2 + e_stat_L2 + e_bc
    E_N2_node = e_dyn_node + e_stat_node + e_bc
    E_inf_basic = e_dyn_inf + e_stat_inf + e_bc
    E_inf = e_dyn_inf + e_adj_inf + e_stat_inf + e_bc
    return ResidualReport(
        e_dyn_L2=e_dyn_L2,
        e_stat_L2=e_stat_L2,
        e_bc=e_bc,
        E_N2=E_N2,
        e_dyn_node_L2=e_dyn_node,
        e_stat_node_L2=e_stat_node,
        E_N2_node=E_N2_node,
        kkt_node_inf=kkt_node_inf,
        e_dyn_inf=e_dyn_inf,
        e_adj_inf=e_adj_inf,
        e_stat_inf=e_stat_inf,
        E_inf=E_inf,
        E_inf_basic=E_inf_basic,
        per_interval=per_interval,
    )


def residual_relation_check(report: ResidualReport, T: float) -> bool:
    """Check E_N2 <= sqrt(T) * E_inf + e_bc (basic sup indicator)."""
    return report.E_N2 <= math.sqrt(T) * report.E_inf_basic + report.e_bc + 1e-12


def worst_intervals(report: ResidualReport, fraction: float):
    """Indices of the ceil(q*N) intervals with the largest local residual.

    Sorted by decreasing local squared residual; ties break toward the lower
    interval index.
    """
    if not 0.0 < fraction <= 1.0:
        raise DimensionError("fraction must lie in (0, 1]")
    scores = [(dy * dy + st * st) for (_, dy, st) in report.per_interval]
    count = math.ceil(fraction * len(scores))
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    return order[:count]
