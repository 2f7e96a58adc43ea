"""Exception types shared across the package.

An error keeps the arguments it was built with in ``args`` and formats its
message in ``__str__`` from its attributes, so Python's default exception
pickling, the class called on ``args`` plus the instance dict, rebuilds it
with the same type, message and attributes: a forked path part
(``simulate._in_parts``) sends its error to the parent that way.
"""


class SdetciError(Exception):
    """Base class for all package errors."""


class InvalidCoefficient(SdetciError):
    """A coefficient evaluated to a non-finite value."""

    def __init__(self, name, point):
        super().__init__(name, point)
        self.name = name
        self.point = point

    def __str__(self):
        return f"coefficient {self.name!r} is non-finite at {self.point}"


class BlowupError(SdetciError):
    """A simulated path left the finite range at a known step."""

    def __init__(self, step):
        super().__init__(step)
        self.step = step

    def __str__(self):
        return f"path blew up at step {self.step}"


class NotContractive(SdetciError):
    """The Picard map failed to contract at the given regularization level."""

    def __init__(self, lam, ratios):
        super().__init__(lam, ratios)
        self.lam = lam
        self.ratios = list(ratios)

    def __str__(self):
        return f"fixed-point iteration not contractive at lambda={self.lam}"


class EllipticSolverError(SdetciError):
    """Sparse elliptic solve failed."""


class GradientTooLarge(SdetciError):
    """Measured sup-gradient of u exceeds the acceptance threshold."""

    def __init__(self, grad_bound, threshold):
        super().__init__(grad_bound, threshold)
        self.grad_bound = grad_bound
        self.threshold = threshold

    def __str__(self):
        return f"grad bound {self.grad_bound:.4f} >= threshold {self.threshold:.4f}; raise lambda"


class OutOfDomain(SdetciError):
    """A point left the grid box during evaluation or inversion."""


class InconclusiveEstimate(SdetciError):
    """Monte Carlo noise exceeds the signal being measured."""


class FitFailure(SdetciError):
    """No finite constants satisfy the target inequality on the fit grid."""

    def __init__(self, message, worst_point=None):
        self.worst_point = worst_point
        super().__init__(message)


class ConsistencyFailure(SdetciError):
    """Pathwise transform error failed to decrease under mesh refinement."""


class UseSinkhorn(SdetciError):
    """Instance too large for the exact transport solver."""


class ConfigError(SdetciError, ValueError):
    """A configuration or argument value is malformed or out of range."""

    def __init__(self, message, key_path=""):
        self.message = message
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)
