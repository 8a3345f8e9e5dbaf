"""Estimation of the certification constants from discrete data.

The state and control directions of the tube around the reconstruction are
sampled: a structured time grid times per-axis offsets.  The costate
direction is bounded over the whole dp-box instead: the Hamiltonian is
affine in p, so Weyl's inequality turns lambda_min(H_uu) and ||H_ux|| at the
centre costate into bounds that hold for every costate in the box.
Lipschitz constants of second derivatives come from difference quotients at
half-radius offsets and carry a safety factor because sampled quotients
lower-bound the true sup.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from . import model, transcription
from .errors import LegendreViolationError, SettingsError, StrongRegularityError
from .numerics import sparse_sigma_min


@dataclass
class TubeSpec:
    """Sampling description of the tube around the reconstruction."""

    dx: float = 0.1
    du: float = 0.1
    dp: float = 0.1
    samples_per_axis: int = 3
    time_samples: Optional[int] = None  # default 4 * n_intervals

    def __post_init__(self):
        if min(self.dx, self.du, self.dp) <= 0:
            raise SettingsError("tube radii must be positive")
        if self.samples_per_axis < 2:
            raise SettingsError("need at least 2 samples per axis")


@dataclass
class ConstantsBundle:
    """Every constant entering the certification inequality."""

    rho: float = math.nan
    L2: float = math.nan
    M2f: float = math.nan
    L21_f: float = math.nan
    L21_L: float = math.nan
    L21_K: float = math.nan
    L21_H: float = math.nan
    P_max: float = math.nan
    C_int: float = math.nan
    c_Pi: float = math.nan
    A_inf: float = math.nan
    B_inf: float = math.nan
    H_ux_inf: float = math.nan
    H_up_inf: float = math.nan
    sigma_min_Mh: float = math.nan
    C_geo: float = math.nan
    C_geo_lift: float = 1.0
    C_T: float = math.nan
    C_quad: float = math.nan
    C_Tprime: float = math.nan
    Gamma: float = math.nan
    Gamma_tot: float = math.nan
    Lambda: float = math.nan
    C_xp_inf: float = math.nan
    C_u_inf: float = math.nan
    C_close_inf: float = math.nan
    safety_factor: float = 1.5
    c_xp_scale: float = 1.0
    tube: Optional[TubeSpec] = None
    paper_constants: bool = False
    formulas: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _spectral_norms(stack):
    """Spectral norm of each matrix in a (..., k, l) stack.

    The square root of the largest eigenvalue of the smaller Gram matrix,
    A A^T or A^T A.
    """
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    trans = np.swapaxes(stack, -1, -2)
    gram = stack @ trans if stack.shape[-2] <= stack.shape[-1] else trans @ stack
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _sym_spectral_norms(stack):
    """Spectral norm of each symmetric matrix in a (..., k, k) stack: max |eigenvalue|."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    eigs = np.linalg.eigvalsh(stack)
    return np.maximum(-eigs[..., 0], eigs[..., -1])


def _nonzero_components(stack):
    """Indices i with a nonzero entry in stack[:, i] of a (B, k, r, s) stack."""
    return np.flatnonzero(np.any(stack != 0, axis=(0, 2, 3)))


def _norm_sum(blocks, norms):
    """Per-row sum over i of norms(blocks[:, i]) for a (B, k, r, s) stack.

    All-zero blocks add nothing and are skipped.
    """
    return np.sum(norms(blocks[:, _nonzero_components(blocks)]), axis=1)


def _axis_offsets(radii, scales):
    """Offsets radii[a] * s along each axis a, for each s in scales (axis-major)."""
    d = len(radii)
    offs = np.zeros((d, len(scales), d))
    offs[np.arange(d), :, np.arange(d)] = np.outer(radii, scales)
    return offs.reshape(-1, d)


def estimate_curvature_bounds(prob, rec, tube: TubeSpec, safety_factor=1.5):
    """Sample the tube and return the smoothness/curvature constants.

    Returns a partially filled :class:`ConstantsBundle` (the geometric and
    derived constants are added by the other operations).
    """
    n, m = prob.n, prob.m
    n_t = tube.time_samples or 4 * rec.mesh.n_intervals
    ts = np.linspace(0.0, rec.T, n_t)
    Xc = rec.X.eval(ts)
    Uc = rec.U.eval(ts)
    Pc = rec.P.eval(ts)

    # offset grid over the (x, u) axes: full-radius corners per axis plus
    # intermediate points when samples_per_axis > 3 (grids nest for odd counts)
    scales = np.linspace(-1.0, 1.0, tube.samples_per_axis)
    scales = scales[scales != 0.0]
    xu_radii = np.concatenate([np.full(n, tube.dx), np.full(m, tube.du)])
    end_radii = np.full(2 * n, tube.dx)
    offsets = _axis_offsets(xu_radii, scales)
    X_all = np.concatenate([Xc[None], Xc + offsets[:, None, :n]]).reshape(-1, n)
    U_all = np.concatenate([Uc[None], Uc + offsets[:, None, n:]]).reshape(-1, m)
    t_all = np.tile(ts, len(offsets) + 1)

    _, Fx, Fu, Hf = model.dynamics_batch(prob, t_all, X_all, U_all, order=2)
    _, _, Lh = model.running_cost_batch(prob, t_all, X_all, U_all, order=2)
    B0 = ts.size
    Hf_c = Hf[:B0].copy()  # along the reconstruction, for the L21 quotients
    # components whose Hessian is zero over the whole batch add nothing to
    # any norm or sum below, so they are dropped first
    curved = _nonzero_components(Hf)
    Hf = Hf[:, curved]
    M2f = float(np.max(_sym_spectral_norms(Hf), initial=0.0))
    sup_L = float(np.max(_sym_spectral_norms(Lh)))

    # endpoint cost Hessian over the endpoint tube, in one batch: the center,
    # the full-radius axis offsets, then the half-radius ones for L21_K
    x0v = rec.X.eval(0.0)
    xTv = rec.X.eval(rec.T)
    end_full = _axis_offsets(end_radii, (1.0, -1.0))
    end_half = _axis_offsets(end_radii, (0.5, -0.5))
    end_offsets = np.vstack([np.zeros(2 * n), end_full, end_half])
    K_hess = model.endpoint_hessian_batch(
        prob, x0v + end_offsets[:, :n], xTv + end_offsets[:, n:]
    )
    n_full = 1 + len(end_full)
    sup_K = float(np.max(_sym_spectral_norms(K_hess[:n_full])))
    L2 = max(sup_L, M2f, sup_K)

    # H(p) = Lh + sum_i p_i Hf_i is affine in p, so Weyl's inequality bounds
    # the strengthened Legendre constant and ||H_ux|| over the whole box
    # |p_i - Pc_i| <= dp from the control rows of H at the centre costate
    P_all = np.tile(Pc, (len(offsets) + 1, 1))
    H_u = Lh[:, n:, :] + np.einsum("bi,bijk->bjk", P_all[:, curved], Hf[:, :, n:, :])
    spread_uu = tube.dp * _norm_sum(Hf[:, :, n:, n:], _sym_spectral_norms)
    spread_ux = tube.dp * _norm_sum(Hf[:, :, n:, :n], _spectral_norms)
    rho = float(np.min(np.linalg.eigvalsh(H_u[:, :, n:])[:, 0] - spread_uu))
    H_ux_inf = float(np.max(_spectral_norms(H_u[:, :, :n]) + spread_ux))
    H_up_inf = float(np.max(_spectral_norms(np.swapaxes(Fu, 1, 2))))
    if rho <= 0.0:
        raise LegendreViolationError(
            f"min eigenvalue of H_uu over the tube is {rho:.3e}; "
            "strengthened Legendre condition fails"
        )

    # linearized dynamics along the reconstruction only: the first ts.size
    # rows of the tube batch
    A_inf = float(np.max(_spectral_norms(Fx[:B0])))
    B_inf = float(np.max(_spectral_norms(Fu[:B0])))
    P_max = float(np.max(np.linalg.norm(Pc, axis=1))) + tube.dp

    # Lipschitz constants of second derivatives: difference quotients between
    # the center and half-radius axis offsets; one model call per offset,
    # because a single batch over all of them would set the peak memory
    half = _axis_offsets(xu_radii, (0.5, -0.5))
    Lh_c = Lh[:B0]
    L21_f = 0.0
    L21_L = 0.0
    for off in half:
        step = float(np.linalg.norm(off))
        _, _, _, Hf_o = model.dynamics_batch(
            prob, ts, Xc + off[:n], Uc + off[n:], order=2
        )
        _, _, Lh_o = model.running_cost_batch(
            prob, ts, Xc + off[:n], Uc + off[n:], order=2
        )
        dHf = Hf_o - Hf_c
        dHf = dHf[:, _nonzero_components(dHf)]
        L21_f = max(L21_f, float(np.max(_sym_spectral_norms(dHf), initial=0.0)) / step)
        L21_L = max(L21_L, float(np.max(_sym_spectral_norms(Lh_o - Lh_c))) / step)
    k_quotients = _sym_spectral_norms(K_hess[n_full:] - K_hess[0]) / np.linalg.norm(
        end_half, axis=1
    )
    L21_K = max(0.0, float(np.max(k_quotients)))
    L21_f *= safety_factor
    L21_L *= safety_factor
    L21_K *= safety_factor

    bundle = ConstantsBundle(
        rho=rho,
        L2=L2,
        M2f=M2f,
        L21_f=L21_f,
        L21_L=L21_L,
        L21_K=L21_K,
        L21_H=L21_L + P_max * L21_f,
        P_max=P_max,
        A_inf=A_inf,
        B_inf=B_inf,
        H_ux_inf=H_ux_inf,
        H_up_inf=H_up_inf,
        safety_factor=safety_factor,
        tube=tube,
    )
    bundle.formulas.update(
        {
            "L21": "safety * max ||d2g(c + r/2 e) - d2g(c)|| / (r/2)",
            "rho": "min_samples lambda_min(H_uu(p_c)) - dp * sum_i ||(Hf_i)_uu||",
            "H_ux": "max_samples ||H_ux(p_c)|| + dp * sum_i ||(Hf_i)_ux||",
        }
    )
    return bundle


def estimate_C_geo(Mh, lift=1.0):
    """Geometric constant from the smallest singular value of M_h.

    ``Mh`` is the Jacobian of the collocation equations at the discrete
    solution (compressed form for Hermite-Simpson), dense or sparse; the
    bound is lift / sigma_min(Mh), with sigma_min from
    shift-invert Lanczos on the sparse Gram M_h M_h^T.
    """
    Mh = scipy.sparse.csr_matrix(Mh, dtype=float)
    smin = sparse_sigma_min(Mh)
    scale = float(abs(Mh).max())
    if smin <= 1e-12 * max(1.0, scale):
        raise StrongRegularityError(
            f"sigma_min of the discrete KKT Jacobian is {smin:.3e}; "
            "strong regularity is violated"
        )
    return {"sigma_min_Mh": smin, "C_geo": lift / smin}


def compute_C_T(bundle: ConstantsBundle, scheme, T: float) -> float:
    """Projection stability constant c_Pi * exp(A_inf T) * (1 + B_inf / rho)."""
    scheme = transcription.parse_scheme(scheme)
    return scheme.lebesgue * math.exp(bundle.A_inf * T) * (1.0 + bundle.B_inf / bundle.rho)


def compute_quadrature_and_conformity(bundle: ConstantsBundle, scheme, mesh):
    """Quadrature and nonconformity constants, both O(h^2) / O(h^p).

    The quadrature constant uses the linear-in-horizon growth factor
    (1 + A_inf T + B_inf / rho); the Gronwall exponential that appears in
    the projection bound is replaced here because the exponential variant
    dwarfs every other term for mildly stiff dynamics while the quadrature
    error it bounds is a local O(h^2) effect.
    """
    scheme = transcription.parse_scheme(scheme)
    h_max = float(np.max(mesh.h))
    T = mesh.T
    growth = 1.0 + bundle.A_inf * T + bundle.B_inf / bundle.rho
    c_quad = (h_max**2 / 12.0) * bundle.L21_H * growth**2
    c_tprime = scheme.lebesgue * bundle.L2 * h_max**scheme.degree
    return {
        "C_quad": c_quad,
        "C_Tprime": c_tprime,
        "formula_C_quad": "h_max^2/12 * L21_H * (1 + A_inf*T + B_inf/rho)^2",
        "formula_C_Tprime": "c_Pi * L2 * h_max^p",
    }


def compute_Lambda(bundle: ConstantsBundle) -> float:
    """Second-variation Lipschitz constant C_int (L21_H + M2f) + 2 L21_K."""
    return bundle.C_int * (bundle.L21_H + bundle.M2f) + 2.0 * bundle.L21_K


def compute_C_close(bundle: ConstantsBundle, T: float, c_xp_scale=1.0):
    """Proximity constant C_xp + C_u from the strong-regularity bound."""
    c_xp = c_xp_scale * bundle.C_geo * (1.0 + T) * math.exp((bundle.A_inf + bundle.B_inf) * T)
    c_u = (bundle.H_ux_inf + bundle.H_up_inf) * c_xp / bundle.rho + 1.0 / bundle.rho
    return {"C_xp_inf": c_xp, "C_u_inf": c_u, "C_close_inf": c_xp + c_u}


PAPER_CONSTANTS = {
    "C_geo": 53.39,
    "Gamma": 979.47,
    "Lambda": 1.09,
    "C_close_inf": 59.36,
    "C_T": 0.0,
}


def estimate_all(
    prob,
    rec,
    dkkt,
    tube: Optional[TubeSpec] = None,
    safety_factor: float = 1.5,
    c_geo_lift: float = 1.0,
    c_xp_scale: float = 1.0,
    paper_constants: bool = False,
) -> ConstantsBundle:
    """Run the full constants pipeline and return a complete bundle.

    With ``paper_constants`` the benchmark's published values replace the
    estimated C_geo, Gamma, Lambda and C_close (and C_T is dropped), which
    reproduces the published arithmetic chain; everything else is still
    estimated and recorded.
    """
    scheme, mesh = dkkt.layout.scheme, dkkt.layout.mesh
    tube = tube or TubeSpec()
    bundle = estimate_curvature_bounds(prob, rec, tube, safety_factor=safety_factor)
    bundle.c_Pi = scheme.lebesgue
    bundle.C_int = max(mesh.T, 1.0)
    Mh = transcription.compress_collocation_jacobian(dkkt.layout, dkkt.kkt_matrices(prob)[0])
    geo = estimate_C_geo(Mh, lift=c_geo_lift)
    bundle.sigma_min_Mh = geo["sigma_min_Mh"]
    bundle.C_geo = geo["C_geo"]
    bundle.C_geo_lift = c_geo_lift
    bundle.C_T = compute_C_T(bundle, scheme, mesh.T)
    qc = compute_quadrature_and_conformity(bundle, scheme, mesh)
    bundle.C_quad = qc["C_quad"]
    bundle.C_Tprime = qc["C_Tprime"]
    bundle.Gamma = bundle.C_geo * bundle.L2
    bundle.Lambda = compute_Lambda(bundle)
    close = compute_C_close(bundle, mesh.T, c_xp_scale=c_xp_scale)
    bundle.C_xp_inf = close["C_xp_inf"]
    bundle.C_u_inf = close["C_u_inf"]
    bundle.C_close_inf = close["C_close_inf"]
    bundle.c_xp_scale = c_xp_scale
    bundle.formulas.update(
        {
            "C_geo": "lift / sigma_min(M_h)",
            "C_T": "c_Pi * exp(A_inf * T) * (1 + B_inf / rho)",
            "C_quad": qc["formula_C_quad"],
            "C_Tprime": qc["formula_C_Tprime"],
            "Gamma": "C_geo * L2",
            "Lambda": "C_int * (L21_H + M2f) + 2 * L21_K",
            "C_close": "C_xp + (H_ux + H_up) C_xp / rho + 1 / rho",
        }
    )
    if paper_constants:
        bundle.paper_constants = True
        bundle.C_geo = PAPER_CONSTANTS["C_geo"]
        bundle.Gamma = PAPER_CONSTANTS["Gamma"]
        bundle.Lambda = PAPER_CONSTANTS["Lambda"]
        bundle.C_close_inf = PAPER_CONSTANTS["C_close_inf"]
        bundle.C_T = PAPER_CONSTANTS["C_T"]
    bundle.Gamma_tot = bundle.Gamma + bundle.C_quad + bundle.C_Tprime
    return bundle
