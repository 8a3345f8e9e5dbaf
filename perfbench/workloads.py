"""Workloads and the closed-loop runner that drives the library.

One pass runs a workload's operation list once, each operation starting
only after the previous one returned.  Every ``run_certification`` call
made during a pass -- the operation itself, or one round of a refine loop
-- is timed and recorded, so ``op_s`` samples one certification pass each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

PROBLEMS = ("quadrotor", "double-integrator-lq")
SCHEMES = ("trapezoidal", "hermite-simpson")
SWEEP_N = (10, 15, 20, 25, 30, 35)
WARM_UP = ("quadrotor", "hermite-simpson", 10)

# certify_loop settings of refine-graded.  The injected residual makes
# C_T * E far exceed 1, so every round is rejected and the loop always runs
# max_rounds + 1 rounds; a loose tolerance instead would make the round
# count depend on round-off.
REFINE_MAX_ROUNDS = 8
REFINE_INJECT_E_N2 = 1e-10


@dataclass(frozen=True)
class Op:
    problem: str
    scheme: str
    n: int
    refine: bool = False

    @property
    def key(self) -> str:
        prefix = "refine/" if self.refine else ""
        return f"{prefix}{self.problem}/{self.scheme}/{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    nominal_pass_s: float  # one pass, one BLAS thread, 2-core Xeon VM

    def min_passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def pass_order(self, rng) -> list:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-large", (Op("quadrotor", "hermite-simpson", 140),), 16.0),
        Workload(
            "sweep-small",
            tuple(Op(p, s, n) for p in PROBLEMS for s in SCHEMES for n in SWEEP_N),
            5.0,
        ),
        Workload("refine-graded", (Op("quadrotor", "hermite-simpson", 10, refine=True),), 10.0),
    )
}


def certification_record(run) -> dict:
    """The outputs of one certification pass that the reference pins down."""
    cert = run.certificate
    return {
        "alpha_hat": cert.alpha_hat,
        "alpha_hat_euclidean": cert.alpha_hat_euclidean,
        "sigma_min_Mh": cert.constants["sigma_min_Mh"],
        "accepted": cert.accepted,
        "ct_e": cert.constants["C_T"] * cert.certified_e_n2,
    }


@dataclass
class OpResult:
    op: Op
    outcome: object  # record dict, or the exception the operation raised
    pass_seconds: list  # one entry per run_certification call


class Runner:
    """Drives the library entry points the CLI commands call."""

    def __init__(self, sc):
        from ssoc_certify import certify, refine, transcription

        self._certify = certify
        self._refine = refine
        self._mesh = transcription.Mesh
        self.problems = {name: sc.builtin_problem(name) for name in PROBLEMS}
        self._calls = []

    def warm_up(self):
        problem, scheme, n = WARM_UP
        prob = self.problems[problem]
        self._certify.run_certification(prob, self._mesh.uniform(prob.T, n), scheme)

    def run_pass(self, ops) -> list:
        """Run the operations in order; an operation that raises is recorded, not fatal."""
        inner = self._certify.run_certification
        self._certify.run_certification = self._timed(inner)
        try:
            results = []
            for op in ops:
                self._calls = []
                try:
                    outcome = self._run_op(op)
                except Exception as exc:  # a failed operation is a measured outcome
                    outcome = exc
                results.append(OpResult(op, outcome, [s for s, _ in self._calls]))
            return results
        finally:
            self._certify.run_certification = inner

    def _timed(self, inner):
        def run_certification(*args, **kwargs):
            t0 = time.perf_counter()
            run = inner(*args, **kwargs)
            self._calls.append((time.perf_counter() - t0, certification_record(run)))
            return run

        return run_certification

    def _run_op(self, op: Op):
        prob = self.problems[op.problem]
        mesh = self._mesh.uniform(prob.T, op.n)
        if not op.refine:
            self._certify.run_certification(prob, mesh, op.scheme)
            return self._calls[-1][1]
        result = self._refine.certify_loop(
            prob,
            mesh,
            op.scheme,
            policy=self._refine.RefinePolicy(max_rounds=REFINE_MAX_ROUNDS),
            settings=self._certify.CertifySettings(inject_e_n2=REFINE_INJECT_E_N2),
        )
        return {
            "meshes": [[float(t) for t in m.nodes] for m in result.meshes],
            "rounds": [record for _, record in self._calls],
        }
