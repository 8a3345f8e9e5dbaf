"""Certify-or-refine driver: bisect the worst intervals until accepted."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from . import certify, residuals as residuals_mod, transcription
from .errors import SettingsError, SsocError, is_number


@dataclass
class RefinePolicy:
    fraction: float = 0.3
    max_rounds: int = 8
    max_total_intervals: int = 400

    def __post_init__(self):
        if not (is_number(self.fraction) and 0.0 < self.fraction <= 1.0):
            raise SettingsError(f"fraction must lie in (0, 1], got {self.fraction!r}")
        for name, low in (("max_rounds", 0), ("max_total_intervals", 1)):
            value = getattr(self, name)
            if not (is_number(value, int) and value >= low):
                raise SettingsError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class RoundSummary:
    round: int
    n_intervals: int
    e_n2_dense: float
    e_n2_node: float
    alpha_hat: float
    threshold: float
    accepted: bool
    reject_reason: Optional[str]

    def to_dict(self):
        return asdict(self)


@dataclass
class RefineResult:
    certificate: certify.Certificate
    history: list
    termination: str
    meshes: list = field(default_factory=list)


def _warm_start(rec, layout):
    X = rec.X.eval(layout.sample_times)
    U = rec.U.eval(layout.sample_times)
    return layout.pack(X, U)


def certify_loop(
    prob,
    initial_mesh,
    scheme,
    policy: Optional[RefinePolicy] = None,
    settings: Optional[certify.CertifySettings] = None,
) -> RefineResult:
    """Run solve/certify rounds, bisecting the worst intervals on rejection.

    Terminates on acceptance or when the policy limits are reached; the last
    certificate is returned either way, with per-round summaries.  Solver
    failures abort the loop but keep the history on the raised error.
    """
    policy = policy or RefinePolicy()
    scheme = transcription.parse_scheme(scheme)
    mesh = initial_mesh
    history = []
    meshes = []
    guess = None
    termination = "max-rounds"
    for rnd in range(policy.max_rounds + 1):
        try:
            run = certify.run_certification(
                prob, mesh, scheme, settings=settings, initial_guess=guess
            )
        except SsocError as err:
            err.history = history
            raise
        cert = run.certificate
        history.append(
            RoundSummary(
                round=rnd,
                n_intervals=mesh.n_intervals,
                e_n2_dense=run.residual_report.E_N2,
                e_n2_node=run.residual_report.E_N2_node,
                alpha_hat=cert.alpha_hat,
                threshold=cert.threshold,
                accepted=cert.accepted,
                reject_reason=cert.reject_reason,
            )
        )
        meshes.append(mesh)
        if cert.accepted:
            termination = "accepted"
            break
        if rnd == policy.max_rounds:
            break
        worst = residuals_mod.worst_intervals(run.residual_report, policy.fraction)
        next_mesh = mesh.bisect(worst)
        if next_mesh.n_intervals > policy.max_total_intervals:
            termination = "max-intervals"
            break
        layout_next = transcription.assemble(prob, next_mesh, scheme)
        guess = _warm_start(run.rec, layout_next)
        mesh = next_mesh
    return RefineResult(
        certificate=run.certificate,
        history=history,
        termination=termination,
        meshes=meshes,
    )
