"""Direct-collocation solves with a posteriori second-order certificates."""

from .certify import (
    Certificate,
    CertifySettings,
    CurvatureResult,
    finalize_certificate,
    reduced_curvature,
    run_certification,
)
from .constants import ConstantsBundle, TubeSpec, estimate_all
from .model import (
    OcpProblem,
    builtin_names,
    builtin_problem,
    eval_endpoint_terms,
)
from .reconstruction import PiecewisePoly, Reconstruction, reconstruct
from .refine import RefinePolicy, RefineResult, certify_loop
from .residuals import (
    ResidualReport,
    compute_residuals,
    residual_relation_check,
    worst_intervals,
)
from .solver import SolveReport, newton_step, solve
from .transcription import (
    HERMITE_SIMPSON,
    TRAPEZOIDAL,
    DiscreteKkt,
    Mesh,
    NlpLayout,
    Scheme,
    assemble,
    eval_defects,
)

__version__ = "0.1.0"
