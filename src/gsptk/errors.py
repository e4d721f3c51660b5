"""Exception types shared across the toolkit."""


class GsptkError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrixError(GsptkError):
    """A linear system has no unique solution at the working tolerance."""


class NotConvergedError(GsptkError):
    """An iterative routine exhausted its budget without converging."""


class BadSizeError(GsptkError, ValueError):
    """A size argument is outside the valid range for the requested object."""


class ParseError(GsptkError, ValueError):
    """A graph/signal/plan file could not be parsed."""


class DomainMismatchError(GsptkError):
    """A signal was supplied in the wrong domain (vertex vs spectral)."""


class RepeatedEigenvaluesError(GsptkError):
    """The shift has (numerically) repeated eigenvalues, so no valid basis exists."""

    def __init__(self, min_gap: float, tol: float):
        self.min_gap = min_gap
        self.tol = tol
        super().__init__(
            f"repeated eigenvalues: smallest eigenvalue gap {min_gap:.3e} <= tolerance {tol:.3e}"
        )


class ReconstructionMismatchError(GsptkError):
    """An explicit basis does not diagonalize the shift it claims to."""


class ZeroScaleError(GsptkError, ValueError):
    """A rescaling vector contains a zero entry."""


class DimensionMismatchError(GsptkError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteError(GsptkError, ValueError):
    """An array that must be finite holds a NaN or an infinity."""


class NotBandlimitedError(GsptkError):
    """A spectral signal has out-of-band energy above the tolerance."""

    def __init__(self, worst: float, tol: float):
        self.worst = worst
        self.tol = tol
        super().__init__(
            f"signal is not bandlimited: largest out-of-band magnitude {worst:.3e} > {tol:.3e}"
        )


class InfeasibleError(GsptkError):
    """No valid sampling plan exists for the requested band/selection."""


class SizeMismatchError(GsptkError, ValueError):
    """A sampled vector does not match the plan it is used with."""


class NotDivisibleError(GsptkError, ValueError):
    """An operation requiring K | N was called with a non-divisor."""
