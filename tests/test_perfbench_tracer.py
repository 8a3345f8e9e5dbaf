"""The benchmark's span tracer still runs against the package.

``perfbench/tracer.py`` wraps the package's functions from outside and
patches some of them, ``numerics.LdlFactorization`` among them, by name.
Deleting such a name from ``src/`` would break ``perfbench/run.py --trace 1``
without failing any other test; this one enters a trace around a small
certification instead.
"""

import importlib
import sys
from pathlib import Path

import ssoc_certify as sc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_tracer():
    # tracer imports its sibling ``bootstrap``; the directory is on the path
    # only for the import, so the other perfbench modules shadow nothing
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_trace_records_spans_around_a_certification(lq_problem):
    tracer = _import_tracer()
    mesh = sc.Mesh.uniform(lq_problem.T, 5)
    with tracer.Trace() as trace:
        run = sc.run_certification(lq_problem, mesh, "trapezoidal")
    assert run.certificate.accepted
    layers = {name.split(".", 1)[0] for name, *_ in trace.spans}
    assert {"solver", "transcription", "model", "certify", "constants"} <= layers
    metrics = trace.layer_metrics(1)
    assert metrics["solver.iterations"][0] == run.solve_report.iterations
    # the probes read newton_step's third return value and the null dimension
    assert metrics["solver.newton_steps"][0] >= metrics["solver.iterations"][0]
    assert metrics["certify.null_dim"][0] == run.curvature.null_dim
    assert metrics["model.points"][0] > 0
    # leaving the trace puts the original functions back
    assert not hasattr(sc.solver.solve, "__wrapped__")
