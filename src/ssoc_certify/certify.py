"""Reduced-Hessian curvature, the certificate and its verdict."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import constants as constants_mod
from . import reconstruction, residuals as residuals_mod, solver, transcription
from .errors import (
    ConstraintQualificationError,
    ContractError,
    ConvergenceError,
    SettingsError,
    is_number,
)
from .numerics import SEED, ldl_positive_definite, start_vector, sparse_lu, sparse_sigma_min

TOOL_VERSION = "0.1.0"

# rank test on J: sigma_min(J) <= RANK_RCOND * max(1, sqrt(||J||_1 ||J||_inf))
# fails; the scale bounds sigma_max(J) from above, so it needs no Lanczos run
RANK_RCOND = 1e-10
# W + rho J^T J with rho = PENALTY_SCALE * max|W| / max|J|^2 is tested for
# positive definiteness; rho decides only whether the test passes, never
# whether a pass is sound
PENALTY_SCALE = 100.0
# the fallback shift sits this far (relative to the Gershgorin row-sum
# norm) below the Gershgorin floor, so it stays below the spectrum despite
# the round-off in the floor and the shifted saddle stays nonsingular
SHIFT_MARGIN = 1e-8
# ARPACK Lanczos basis size and relative accuracy of the curvature eigenvalue
LANCZOS_NCV = 40
LANCZOS_TOL = 1e-10


@dataclass
class CurvatureResult:
    alpha_hat: float  # smallest eigenvalue of the (W, M) pencil on null(J)
    alpha_hat_euclidean: float  # plain reduced-Hessian eigenvalue
    null_dim: int
    # certified lower bound sigma on alpha_hat used as the Lanczos shift:
    # 0 when W is positive definite on null(J), else a Gershgorin floor
    shift: float = 0.0


def _rank_deficient(J) -> bool:
    norm = scipy.sparse.linalg.norm
    scale = math.sqrt(norm(J, 1)) * math.sqrt(norm(J, np.inf))
    return sparse_sigma_min(J) <= RANK_RCOND * max(1.0, scale)


def _gershgorin_shift(W, s) -> float:
    """A shift strictly below every eigenvalue of diag(s) W diag(s)."""
    S = scipy.sparse.diags(s)
    B = S @ W @ S
    diag = B.diagonal()
    rows = np.asarray(abs(B).sum(axis=1)).ravel()
    floor = np.min(diag + np.abs(diag) - rows)
    return float(floor - SHIFT_MARGIN * np.max(rows))


def _saddle_lu(W, J, shift, weight):
    lu = sparse_lu(scipy.sparse.bmat([[W - scipy.sparse.diags(shift * weight), J.T], [J, None]]))
    if lu is None:
        raise ContractError("shifted saddle matrix is singular")
    return lu


def _lowest_pencil_eigenvalue(lu, n_z, shift, root) -> float:
    """sigma + 1/mu, mu the largest eigenvalue of y -> diag(root) S diag(root) y.

    S is the (1,1) block of the inverse of the shifted saddle matrix that
    ``lu`` factors: on null(J) it inverts the pencil shifted by sigma, so
    with sigma below the pencil's spectrum the largest mu belongs to the
    smallest eigenvalue.  The operator is zero on the complement; the start
    vector goes through it once, so Lanczos runs inside its range.
    """
    rhs = np.zeros(lu.shape[0])

    def apply(y):
        rhs[:n_z] = root * y
        return root * lu.solve(rhs)[:n_z]

    d = n_z - (lu.shape[0] - n_z)
    v0 = apply(start_vector(n_z))
    mu = scipy.sparse.linalg.eigsh(
        scipy.sparse.linalg.LinearOperator((n_z, n_z), matvec=apply, dtype=float),
        k=1,
        which="LA",
        v0=v0 / np.abs(v0).max(),  # entries <= 1: the operator scales by 1/(alpha - sigma)
        ncv=min(LANCZOS_NCV, max(d, 2)),  # ARPACK takes at least 2 for one value
        tol=LANCZOS_TOL,
        return_eigenvectors=False,
        rng=SEED,  # restart vectors, drawn when the Krylov space exhausts the range
    )[0]
    return float(shift + 1.0 / mu)


def reduced_curvature(W, J, M) -> CurvatureResult:
    """Smallest generalized eigenvalue of Z'WZ v = a Z'MZ v on null(J).

    W, J and M may be dense or sparse; M must be diagonal with positive
    entries, as the variation Gram is.  No basis Z of null(J) is formed:
    shift-invert Lanczos runs on the saddle matrix
    [[W - sigma D, J^T], [J, 0]] (D = diag(M), or I for the Euclidean
    value), whose inverse's (1,1) block is the inverse of the shifted
    reduced pencil on null(J).  The shift sigma is certified to lie below
    the pencil's spectrum: 0 when W + rho J^T J is positive definite
    (Finsler: then so is Z'WZ), else the Gershgorin floor of
    D^-1/2 W D^-1/2, which bounds the pencil on the whole space and so on
    null(J).

    Raises :class:`ConstraintQualificationError` when J is rank deficient
    relative to ``RANK_RCOND``, and :class:`ContractError` when M is not
    diagonal and positive.
    """
    W, J, M = (scipy.sparse.csr_matrix(a, dtype=float) for a in (W, J, M))
    n_c, n_z = J.shape
    if n_c > n_z or (n_c and _rank_deficient(J)):
        raise ConstraintQualificationError(
            "constraint Jacobian is rank deficient; strong regularity fails"
        )
    D = M.diagonal()
    if (
        M.shape != (n_z, n_z)
        or M.count_nonzero() != np.count_nonzero(D)
        or not np.all((D > 0.0) & (D < math.inf))
    ):
        raise ContractError("variation Gram matrix must be diagonal and positive")
    d = n_z - n_c
    if d == 0:
        return CurvatureResult(math.inf, math.inf, 0)
    W = 0.5 * (W + W.T)
    if W.count_nonzero() == 0:  # both values are 0; no margin is relative to a zero W
        return CurvatureResult(0.0, 0.0, d)

    rho = PENALTY_SCALE * abs(W).max() / abs(J).max() ** 2 if n_c else 0.0
    positive = ldl_positive_definite(W + rho * (J.T @ J))
    shared = _saddle_lu(W, J, 0.0, D) if positive else None
    values = []
    for weight in (D, np.ones(n_z)):
        root = np.sqrt(weight)
        shift = 0.0 if positive else _gershgorin_shift(W, 1.0 / root)
        lu = shared if positive else _saddle_lu(W, J, shift, weight)
        values.append((shift, _lowest_pencil_eigenvalue(lu, n_z, shift, root)))
    (shift, alpha), (_, alpha_euclid) = values
    return CurvatureResult(alpha, alpha_euclid, d, shift)


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
    reject_reason: Optional[str]
    proximity: dict
    residuals: dict
    constants: dict
    provenance: dict

    def to_dict(self):
        return asdict(self)


def finalize_certificate(
    curvature: CurvatureResult,
    bundle: constants_mod.ConstantsBundle,
    report: residuals_mod.ResidualReport,
    settings: CertifySettings,
    provenance: dict,
) -> Certificate:
    """Assemble the certificate: transferred curvature, verdict, trust radius, proximity.

    The residuals and the curvature come from ``report`` and ``curvature``
    unless ``settings`` injects them; the verdict reads the values used.
    With margin = 1 - C_T E, the transferred curvature is
    alpha_cont = alpha_hat margin^2 - Gamma_tot E.  A nonpositive margin
    voids the near-isometry and rejects outright; otherwise the certificate
    is accepted when alpha_cont > 0 and the Legendre constant rho > 0.
    """
    e_n2, e_source = report.E_N2_node, "node-quadrature"
    if settings.inject_e_n2 is not None:
        e_n2, e_source = settings.inject_e_n2, "injected"
    e_inf = report.E_inf if settings.inject_e_inf is None else settings.inject_e_inf
    alpha_hat = curvature.alpha_hat if settings.inject_alpha is None else settings.inject_alpha
    margin = 1.0 - bundle.C_T * e_n2
    threshold = bundle.Gamma_tot * e_n2
    lhs = alpha_hat * constants_mod.inf_on_overflow(pow, margin, 2)
    alpha_cont = lhs - threshold
    trust_radius = reason = None
    if not margin > 0.0:
        reason = "projection stability lost"
    elif not alpha_cont > 0.0:
        reason = "curvature below residual threshold"
    elif bundle.Lambda > 0.0:
        trust_radius = alpha_cont / (2.0 * bundle.Lambda)
    else:
        trust_radius = math.inf  # flat second variation: unbounded tube
    prox_product = bundle.C_close_inf * e_inf
    return Certificate(
        accepted=reason is None and bundle.rho > 0.0,
        alpha_hat=alpha_hat,
        alpha_hat_euclidean=curvature.alpha_hat_euclidean,
        certified_e_n2=float(e_n2),
        certified_e_source=e_source,
        threshold=threshold,
        lhs=lhs,
        projection_margin=margin,
        alpha_cont=alpha_cont,
        trust_radius=trust_radius,
        reject_reason=reason,
        proximity={
            "C_close_E_inf": prox_product,
            "e_inf_used": float(e_inf),
            "ok": trust_radius is not None and prox_product <= trust_radius,
        },
        residuals=report.to_dict(),
        constants=bundle.to_dict(),
        provenance=provenance,
    )


@dataclass
class CertifySettings:
    """The settings of one certification pass beyond problem/mesh/scheme.

    ``tolerance`` is the solver's KKT tolerance; every value is validated
    here, before any solve.
    """

    tolerance: float = 1e-12
    tube: constants_mod.TubeSpec = field(default_factory=constants_mod.TubeSpec)
    paper_constants: bool = False
    inject_e_n2: Optional[float] = None
    inject_e_inf: Optional[float] = None
    inject_alpha: Optional[float] = None

    def __post_init__(self):
        tol = self.tolerance
        if not (is_number(tol) and math.isfinite(tol) and tol > 0):
            raise SettingsError(f"tolerance must be finite and > 0, got {tol!r}")
        for name in ("inject_e_n2", "inject_e_inf"):
            value = getattr(self, name)
            if value is not None and not (is_number(value) and math.isfinite(value) and value >= 0.0):
                raise SettingsError(f"{name} must be finite and >= 0, got {value!r}")
        alpha = self.inject_alpha
        if alpha is not None and not (is_number(alpha) and math.isfinite(alpha)):
            raise SettingsError(f"inject_alpha must be finite, got {alpha!r}")


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
    settings: Optional[CertifySettings] = None,
    initial_guess=None,
) -> CertificationRun:
    """solve -> reconstruct -> residuals -> constants -> certificate."""
    settings = settings or CertifySettings()
    scheme = transcription.parse_scheme(scheme)
    dkkt, solve_report = solver.solve(
        prob, mesh, scheme, tolerance=settings.tolerance, initial_guess=initial_guess
    )
    if not solve_report.converged:
        err = ConvergenceError(
            f"solver stopped at KKT residual {max(solve_report.kkt_residual, solve_report.constraint_residual):.3e}"
        )
        err.report = solve_report
        raise err
    rec = reconstruction.reconstruct(prob, dkkt)
    report = residuals_mod.compute_residuals(prob, rec)
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

    recorded = asdict(settings)
    del recorded["tube"]  # recorded in constants.tube
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
    cert = finalize_certificate(curvature, bundle, report, settings, provenance)
    return CertificationRun(
        certificate=cert,
        dkkt=dkkt,
        solve_report=solve_report,
        rec=rec,
        residual_report=report,
        bundle=bundle,
        curvature=curvature,
    )
