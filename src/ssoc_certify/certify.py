"""Reduced-Hessian curvature, scalar acceptance test, and certificates."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from . import constants as constants_mod
from . import reconstruction, residuals as residuals_mod, solver, transcription
from .errors import ContractError, ConvergenceError, SettingsError
from .numerics import SOLVE_BLOCK, nullspace_basis_sparse, sym_eig_min

TOOL_VERSION = "0.1.0"


@dataclass
class CurvatureResult:
    alpha_hat: float  # smallest eigenvalue of the (W, M) pencil on null(J)
    alpha_hat_euclidean: float  # plain reduced-Hessian eigenvalue
    null_dim: int


def _sparse_times(S, Z):
    """S @ Z in blocks of columns: scipy copies an F-ordered Z (from the QR)
    whole to C order, and per column the sums are the same as in one product."""
    out = np.empty((S.shape[0], Z.shape[1]))
    for j in range(0, Z.shape[1], SOLVE_BLOCK):
        out[:, j : j + SOLVE_BLOCK] = S @ Z[:, j : j + SOLVE_BLOCK]
    return out


def reduced_curvature(W, J, M) -> CurvatureResult:
    """Smallest generalized eigenvalue of Z'WZ v = a Z'MZ v on null(J).

    W, J and M may be dense or sparse; Z comes from
    :func:`numerics.nullspace_basis_sparse`.
    """
    W, J, M = (scipy.sparse.csr_matrix(a, dtype=float) for a in (W, J, M))
    Z = nullspace_basis_sparse(J, M)
    if Z.shape[1] == 0:
        return CurvatureResult(math.inf, math.inf, 0)
    A = Z.T @ _sparse_times(W, Z)
    A = 0.5 * (A + A.T)
    B = Z.T @ _sparse_times(M, Z)
    B = 0.5 * (B + B.T)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise ContractError("variation Gram matrix is not positive definite") from exc
    # C = L^-1 A L^-T, symmetric similarity of the pencil
    Y = scipy.linalg.solve_triangular(L, A, lower=True)
    C = scipy.linalg.solve_triangular(L, Y.T, lower=True).T
    alpha = sym_eig_min(0.5 * (C + C.T))
    alpha_euclid = sym_eig_min(A)
    return CurvatureResult(alpha, alpha_euclid, Z.shape[1])


@dataclass
class AcceptanceResult:
    lhs: float
    threshold: float
    projection_margin: float  # 1 - C_T * E
    accepted_inequality: bool
    projection_ok: bool
    simplified_evaluated: bool
    simplified_accepted: Optional[bool]


def acceptance_test(alpha_hat, bundle: constants_mod.ConstantsBundle, e_n2) -> AcceptanceResult:
    """Scalar curvature-transfer test alpha (1 - C_T E)^2 > Gamma_tot E.

    The exact inequality always governs; when C_T E <= 0.1 the simplified
    variant alpha > Gamma_tot E is evaluated and recorded as well.  A
    nonpositive 1 - C_T E voids the near-isometry and rejects outright.
    """
    margin = 1.0 - bundle.C_T * e_n2
    threshold = bundle.Gamma_tot * e_n2
    lhs = alpha_hat * margin**2
    projection_ok = margin > 0.0
    accepted = projection_ok and (lhs > threshold)
    simplified_evaluated = bundle.C_T * e_n2 <= 0.1
    simplified_accepted = (alpha_hat > threshold) if simplified_evaluated else None
    return AcceptanceResult(
        lhs=lhs,
        threshold=threshold,
        projection_margin=margin,
        accepted_inequality=accepted,
        projection_ok=projection_ok,
        simplified_evaluated=simplified_evaluated,
        simplified_accepted=simplified_accepted,
    )


@dataclass
class Certificate:
    """Full result of one certification pass (JSON-serializable)."""

    accepted: bool
    alpha_hat: float
    alpha_hat_euclidean: float
    certified_e_n2: float
    certified_e_source: str
    threshold: float
    lhs: float
    projection_margin: float
    alpha_cont: float
    trust_radius: Optional[float]
    simplified_test_used: bool
    simplified_accepted: Optional[bool]
    reject_reason: Optional[str]
    proximity: dict
    residuals: dict
    constants: dict
    provenance: dict

    def to_dict(self):
        return asdict(self)


def finalize_certificate(
    alpha_hat: float,
    curvature: CurvatureResult,
    bundle: constants_mod.ConstantsBundle,
    report: residuals_mod.ResidualReport,
    test: AcceptanceResult,
    e_n2,
    e_inf,
    e_source,
    converged: bool,
    provenance: dict,
) -> Certificate:
    """Assemble the certificate: transferred curvature, trust radius, proximity."""
    alpha_cont = test.lhs - test.threshold
    trust_radius = None
    if alpha_cont > 0.0 and test.projection_ok:
        if bundle.Lambda > 0.0:
            trust_radius = alpha_cont / (2.0 * bundle.Lambda)
        else:
            trust_radius = math.inf  # flat second variation: unbounded tube
    prox_product = bundle.C_close_inf * e_inf
    prox_ok = trust_radius is not None and prox_product <= trust_radius
    accepted = (
        test.accepted_inequality
        and alpha_cont > 0.0
        and converged
        and bundle.rho > 0.0
    )
    reason = None
    if not accepted:
        if not converged:
            reason = "solver not converged"
        elif not test.projection_ok:
            reason = "projection stability lost"
        elif not test.accepted_inequality or alpha_cont <= 0.0:
            reason = "curvature below residual threshold"
    return Certificate(
        accepted=accepted,
        alpha_hat=alpha_hat,
        alpha_hat_euclidean=curvature.alpha_hat_euclidean,
        certified_e_n2=float(e_n2),
        certified_e_source=e_source,
        threshold=test.threshold,
        lhs=test.lhs,
        projection_margin=test.projection_margin,
        alpha_cont=alpha_cont,
        trust_radius=trust_radius,
        simplified_test_used=test.simplified_evaluated,
        simplified_accepted=test.simplified_accepted,
        reject_reason=reason,
        proximity={
            "C_close_E_inf": prox_product,
            "e_inf_used": float(e_inf),
            "trust_radius": trust_radius,
            "ok": prox_ok,
        },
        residuals=report.to_dict(),
        constants=bundle.to_dict(),
        provenance=provenance,
    )


@dataclass
class CertifySettings:
    """Knobs of one certification pass beyond problem/mesh/scheme."""

    tube: constants_mod.TubeSpec = field(default_factory=constants_mod.TubeSpec)
    quad_points: int = 5
    paper_constants: bool = False
    inject_e_n2: Optional[float] = None
    inject_e_inf: Optional[float] = None
    inject_alpha: Optional[float] = None

    def __post_init__(self):
        if not (isinstance(self.quad_points, int) and self.quad_points >= 3):
            raise SettingsError(f"quad_points must be an integer >= 3, got {self.quad_points!r}")
        for name in ("inject_e_n2", "inject_e_inf"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise SettingsError(f"{name} must be finite and >= 0, got {value!r}")
        if self.inject_alpha is not None and not math.isfinite(self.inject_alpha):
            raise SettingsError(f"inject_alpha must be finite, got {self.inject_alpha!r}")


@dataclass
class CertificationRun:
    certificate: Certificate
    dkkt: transcription.DiscreteKkt
    solve_report: solver.SolveReport
    rec: reconstruction.Reconstruction
    residual_report: residuals_mod.ResidualReport
    bundle: constants_mod.ConstantsBundle
    curvature: CurvatureResult


def run_certification(
    prob,
    mesh,
    scheme,
    options: Optional[solver.SolverOptions] = None,
    settings: Optional[CertifySettings] = None,
    initial_guess=None,
) -> CertificationRun:
    """solve -> reconstruct -> residuals -> constants -> certificate."""
    settings = settings or CertifySettings()
    scheme = transcription.parse_scheme(scheme)
    dkkt, solve_report = solver.solve(
        prob, mesh, scheme, options=options, initial_guess=initial_guess
    )
    if not solve_report.converged:
        err = ConvergenceError(
            f"solver stopped at KKT residual {max(solve_report.kkt_residual, solve_report.constraint_residual):.3e}"
        )
        err.report = solve_report
        raise err
    rec = reconstruction.reconstruct(prob, dkkt)
    report = residuals_mod.compute_residuals(prob, rec, settings.quad_points)
    layout = dkkt.layout
    J, W = dkkt.kkt_matrices(prob)
    bundle = constants_mod.estimate_all(
        prob,
        rec,
        dkkt,
        tube=settings.tube,
        paper_constants=settings.paper_constants,
    )
    curvature = reduced_curvature(W, J, transcription.variation_gram_sparse(layout))

    e_n2 = report.E_N2_node
    e_source = "node-quadrature"
    if settings.inject_e_n2 is not None:
        e_n2 = settings.inject_e_n2
        e_source = "injected"
    e_inf = report.E_inf if settings.inject_e_inf is None else settings.inject_e_inf
    alpha = curvature.alpha_hat if settings.inject_alpha is None else settings.inject_alpha

    test = acceptance_test(alpha, bundle, e_n2)
    recorded = asdict(settings)
    del recorded["tube"]  # recorded in constants.tube
    recorded["tolerance"] = (options or solver.SolverOptions()).kkt_tolerance
    provenance = {
        "problem": prob.name,
        "n_intervals": mesh.n_intervals,
        "mesh_nodes": [float(t) for t in mesh.nodes],
        "scheme": scheme.kind,
        "solver": solve_report.to_dict(),
        "tool_version": TOOL_VERSION,
        "settings": recorded,
        "costate_anchor_shift": rec.anchor_shift,
        "costate_jump": rec.costate_jump,
    }
    cert = finalize_certificate(
        alpha,
        curvature,
        bundle,
        report,
        test,
        e_n2,
        e_inf,
        e_source,
        solve_report.converged,
        provenance,
    )
    return CertificationRun(
        certificate=cert,
        dkkt=dkkt,
        solve_report=solve_report,
        rec=rec,
        residual_report=report,
        bundle=bundle,
        curvature=curvature,
    )
