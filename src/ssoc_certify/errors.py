"""Exception types shared across the package."""

import numbers


def is_number(value, kind=numbers.Real) -> bool:
    """True when a setting is a ``kind`` number; bools are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool)


class SsocError(Exception):
    """Base class for all package errors."""


class SettingsError(SsocError, ValueError):
    """An option, tolerance or policy value lies outside its valid range."""


class DimensionError(SsocError):
    """A vector or matrix does not have the shape the contract requires."""


class EvaluationDomainError(SsocError):
    """A problem callback produced a non-finite value.

    Carries the offending component index when known.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class RegistryError(SsocError):
    """Unknown builtin problem name."""


class MeshError(SsocError):
    """Invalid mesh (non-increasing nodes, wrong endpoints, ...)."""


class ConvergenceError(SsocError):
    """The solver did not reach the requested KKT tolerance."""


class SolverBreakdownError(SsocError):
    """The KKT system stayed singular after maximal regularization."""


class ConstraintQualificationError(SsocError):
    """Constraint Jacobian is rank deficient; certification must abort."""


class LegendreViolationError(SsocError):
    """min eig of H_uu is not positive on the sampled tube."""


class StrongRegularityError(SsocError):
    """The discrete KKT Jacobian is numerically singular."""


class ContractError(SsocError):
    """An internal numerical contract was violated (e.g. asymmetric input)."""


class PolyDomainError(SsocError):
    """Evaluation time outside the piecewise polynomial domain."""
