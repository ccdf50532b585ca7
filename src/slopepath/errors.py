"""Exception hierarchy shared across the package.

Two families matter for the command-line tools: ``ValidationError`` maps to
exit code 2 (bad inputs), ``NumericalError`` maps to exit code 3 (a
computation that started from valid inputs went wrong).
"""


class SlopePathError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SlopePathError):
    """Invalid user-supplied data or configuration."""


class NumericalError(SlopePathError):
    """A numerical procedure failed or detected an internal inconsistency.

    Raised out of a path run, it carries what reproduces the failure:
    ``instance_hash``, ``ray`` (``WeightRay.describe()``), ``event_index``
    (the number of events recorded before the failing step) and
    ``recent_events`` (the last eight as (kind, eta, g, k)), all also
    appended to the message.
    """

    instance_hash = None
    ray = None
    event_index = None
    recent_events = ()

    def add_context(self, instance_hash: str, ray: dict, event_index: int,
                    recent_events) -> None:
        self.instance_hash = instance_hash
        self.ray = ray
        self.event_index = event_index
        self.recent_events = tuple(recent_events)
        message = self.args[0] if self.args else ""
        self.args = (f"{message} [instance {instance_hash}, event index {event_index}, "
                     f"ray {ray}, last events {list(self.recent_events)}]", *self.args[1:])


# --- validation ---------------------------------------------------------


class NonFiniteError(ValidationError):
    """Input contains NaN or infinite entries, or data whose Gram products
    overflow float64."""


class SingularGramError(ValidationError):
    """The (ridge-adjusted) Gram matrix is numerically singular."""


class InvalidAtZeroError(ValidationError):
    """Initial weights violate ordering or nonnegativity."""


class ZeroDirectionError(ValidationError):
    """The weight search direction is identically zero."""


class InvalidLevelError(ValidationError):
    """A false-discovery level q lies outside (0, 1]."""


class DenominatorUnderflowError(ValidationError):
    """Sample count too small for the correlation-corrected sequence."""


class NegativeOffsetError(ValidationError):
    """A weight offset that must be nonnegative is negative."""


class ZeroWeightsError(ValidationError):
    """A weight vector that must be nonzero is identically zero."""


class InconsistentGroupsError(ValidationError):
    """Coefficients do not match their group's shared absolute value."""


class OddDimensionError(ValidationError):
    """Scenario 1 requires an even number of features."""


class OutOfRangeError(ValidationError):
    """Query point lies outside the path's parameter range."""


class EmptyPathError(ValidationError):
    """A solution path without any recorded state was supplied."""


# --- numerics -----------------------------------------------------------


class NegativeTimingError(NumericalError):
    """An event timing came out negative beyond tolerance, i.e. the
    optimality conditions were already violated at the current point."""


class StructureInvariantBrokenError(NumericalError):
    """The strict ordering of grouped coefficient values failed."""


class IterationCapError(NumericalError):
    """The event-loop safety cap was hit; likely cycling from a tolerance
    misconfiguration."""


class DidNotConvergeError(NumericalError):
    """Iterative solver hit its iteration cap.

    Carries the best iterate and its optimality report so callers can
    inspect or accept the partial result.
    """

    def __init__(self, message, beta=None, report=None, iterations=None):
        super().__init__(message)
        self.beta = beta
        self.report = report
        self.iterations = iterations
