"""Exception types shared across the package."""


class CaeError(ValueError):
    """Base class for all library-specific errors."""


class SeriesError(CaeError):
    """Structural problem with a series operation (mismatched p, bad order...)."""


class NonDifferentiableError(CaeError):
    """Raised when differentiating a combined series whose leading fast part
    is not identically zero."""


class MissingEvaluatorError(CaeError):
    """A numeric value of a fast coefficient was required but no evaluator
    (closed form, basis, or exact finite tail) is attached."""


class InsufficientTailError(CaeError):
    """A tail coefficient beyond the stored truncation depth was required."""


class DomainError(CaeError):
    """Evaluation requested outside the declared domain of an evaluator."""


class CompatibilityError(CaeError):
    """Inner and outer data violate the matching identity c_{n,m} = z_{n+m,-m}.

    Carries the first violating index pair as ``.n`` and ``.m``.
    """

    def __init__(self, msg, n=None, m=None):
        super().__init__(msg)
        self.n = n
        self.m = m


class InfeasibleError(CaeError):
    """Pole order or polynomial degree grows too fast for a combined series
    to exist.  Carries the first violating order as ``.n``."""

    def __init__(self, msg, n=None, pole=None, bound=None):
        super().__init__(msg)
        self.n = n
        self.pole = pole
        self.bound = bound


class BlowupError(CaeError):
    """A trajectory left the admissible region; ``.where`` records the
    independent-variable location, and ``.member``, when a batch of
    trajectories was shot, the index of the one that left it."""

    member = None

    def __init__(self, msg, where=None):
        super().__init__(msg)
        self.where = where
