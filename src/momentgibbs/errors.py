"""Exception types shared across the library.

Everything that signals bad *input* derives from ValueError so callers can
catch one base; solver non-convergence is a RuntimeError because the inputs
were fine. Every class survives `pickle` with its type, message and fields:
the three whose constructors take more than the message say how to rebuild
them in `__reduce__`.
"""


class DimensionMismatch(ValueError):
    """A point or covector has the wrong number of components."""


class LengthMismatch(ValueError):
    """Two per-state vectors index different numbers of states."""


class DuplicatePoint(ValueError):
    """Two states share the same energy vector; the embedding is violated."""


class EmptyStateSet(ValueError):
    """A state set needs at least one state."""


class UnsupportedDimension(ValueError):
    """Hull enumeration is capped at affine dimension 6."""


class OffAffineSpan(ValueError):
    """Query point does not lie on the affine span of the states."""


class ZeroDirection(ValueError):
    """A limit direction must be nonzero."""


class AllZeroWeights(ValueError):
    """Projective weights must not all vanish."""


class NotNegativeDefinite(ValueError):
    """The form -x'Mx is only valid for positive definite M."""


class BadSplit(ValueError):
    """A coordinate projection must keep between 1 and n-1 coordinates."""


class InvalidTotal(ValueError):
    """Particle totals must be positive integers below 2**63."""


class TargetOutsideHull(ValueError):
    """Requested mean lies outside the hull of the states.

    Carries the signed interior margin (negative outside, in the units of
    the energy coordinates).
    """

    def __init__(self, margin: float, message: str | None = None):
        self.margin = float(margin)
        super().__init__(message or f"target outside hull (margin {self.margin:.6g})")

    def __reduce__(self):
        return type(self), (self.margin, str(self)), vars(self)


class TargetOnBoundary(ValueError):
    """Requested mean sits on (or within tolerance of) the hull boundary.

    The inverse-temperature solution diverges there, so the solve is refused.
    Carries the signed interior margin.
    """

    def __init__(self, margin: float, message: str | None = None):
        self.margin = float(margin)
        super().__init__(message or f"target on hull boundary (margin {self.margin:.6g})")

    def __reduce__(self):
        return type(self), (self.margin, str(self)), vars(self)


class NoConvergence(RuntimeError):
    """Solver hit its iteration cap; the partial report rides along."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.report), vars(self)
