"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class here; modules raise these instead of bare ValueError wherever the
condition is part of the documented contract.
"""


class GroundstateError(Exception):
    """Base class for all package-specific errors."""


class NonPositivePotential(GroundstateError):
    """A potential sample was <= 0; q must be positive everywhere."""


class NotIncreasing(GroundstateError):
    """The potential decreases somewhere beyond its stated radius R0."""


class UnboundedSearch(GroundstateError):
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
    """Too many iterate entries left the sub/supersolution bracket."""


class MonotonicityBroken(GroundstateError):
    """Monotone iteration lost its nodewise ordering; the shift is too small."""


class SignMixed(GroundstateError):
    """An input expected to be one-signed changes sign on the grid."""


class NotCooperative(GroundstateError):
    """Coupling matrix has a nonpositive off-diagonal entry."""


class RectangleEscape(GroundstateError):
    """Too many iterate entries left the invariant rectangle."""


class WindowViolation(GroundstateError):
    """The requested mu lies outside the admissible window around Lambda."""


class MalformedInput(GroundstateError):
    """A data file or config payload does not match its documented format."""
