"""Exception types shared across the package."""

import functools


class SdetciError(Exception):
    """Base class for all package errors.

    An error pickles as its class called on the arguments it was built
    with, plus its attributes: the default pickle calls the class on
    ``args``, the formatted message alone, which a subclass whose
    constructor formats its message misreads.  So an error raised in a
    forked path part (``simulate._in_parts``) rebuilds in the parent with
    the same type, message and attributes.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._built_with = (args, kwargs)
        return self

    def __reduce__(self):
        args, kwargs = self._built_with
        return functools.partial(type(self), *args, **kwargs), (), self.__dict__


class InvalidCoefficient(SdetciError):
    """A coefficient evaluated to a non-finite value."""

    def __init__(self, name, point):
        self.name = name
        self.point = point
        super().__init__(f"coefficient {name!r} is non-finite at {point}")


class BlowupError(SdetciError):
    """A simulated path left the finite range at a known step."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"path blew up at step {step}")


class NotContractive(SdetciError):
    """The Picard map failed to contract at the given regularization level."""

    def __init__(self, lam, ratios):
        self.lam = lam
        self.ratios = list(ratios)
        super().__init__(f"fixed-point iteration not contractive at lambda={lam}")


class EllipticSolverError(SdetciError):
    """Sparse elliptic solve failed."""


class GradientTooLarge(SdetciError):
    """Measured sup-gradient of u exceeds the acceptance threshold."""

    def __init__(self, grad_bound, threshold):
        self.grad_bound = grad_bound
        self.threshold = threshold
        super().__init__(
            f"grad bound {grad_bound:.4f} >= threshold {threshold:.4f}; raise lambda"
        )


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
