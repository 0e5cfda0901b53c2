"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class here; modules raise these instead of bare ValueError wherever the
condition is part of the documented contract.

Subclasses of ConfigError say the input is at fault, not the numerics:
the command line exits 2 on them and 3 on any other GroundstateError.
"""


class GroundstateError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GroundstateError):
    """Base class for errors in the input itself rather than in the numerics."""


class NonPositivePotential(ConfigError):
    """A potential sample was <= 0; q must be positive everywhere."""


class NotIncreasing(ConfigError):
    """The potential decreases somewhere beyond its stated radius R0."""


class UnboundedSearch(ConfigError):
    """No truncation radius below the hard cap satisfied the criterion."""


class ConvergenceFailure(GroundstateError):
    """An eigensolve exceeded its iteration budget or residual bound."""


class SingularResolvent(GroundstateError):
    """The shift mu is within the exclusion zone of a computed eigenvalue."""


class HypothesisViolated(GroundstateError):
    """Input data fails a hypothesis required for the requested certificate."""


class NoConvergence(GroundstateError):
    """Fixed-point iteration exhausted its budget.

    Carries the iteration count and the trace of successive X-norm
    differences so the caller can inspect stagnation versus divergence.
    """

    def __init__(self, message, iterations=0, trace=None):
        super().__init__(message)
        self.iterations = iterations
        self.trace = list(trace) if trace is not None else []


class BracketEscape(GroundstateError):
    """Too many image entries left the order interval a fixed-point solve runs in.

    The interval is a semilinear_solver.Bracket: the scalar bracket, or
    the rectangle of a 2x2 system (coop_system.rectangle).
    """


class SignMixed(GroundstateError):
    """An input expected to be one-signed changes sign on the grid."""


class NotCooperative(ConfigError):
    """Coupling matrix has a nonpositive off-diagonal entry."""


class WindowViolation(GroundstateError):
    """The requested mu lies outside the admissible window around Lambda."""


class MalformedInput(ConfigError):
    """A data file or config payload does not match its documented format."""
