"""Exception hierarchy shared across the package.

Validation errors mean the inputs are unusable (the CLI maps them to exit
code 2); numerical errors mean a computation failed on valid inputs (exit
code 3).
"""


class ResonanceSizerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ResonanceSizerError):
    """An input violates a precondition."""


class TooFewCenters(ValidationError):
    """A configuration needs at least two centers."""


class CoincidentCenters(ValidationError):
    """Two centers coincide (or are closer than the coincidence threshold)."""

    def __init__(self, pair: tuple[int, int], distance: float):
        self.pair = pair
        self.distance = distance
        super().__init__(
            f"centers {pair[0]} and {pair[1]} coincide "
            f"(distance {distance:.3e})"
        )


class NonpositiveScale(ValidationError):
    """Scaling factors must be strictly positive."""


class SizeMismatch(ValidationError):
    """Two objects that must share the same N do not."""


class TooLarge(ValidationError):
    """An input exceeds a hard cap: N > 10 for full symmetric-group
    enumeration (the expansion and the genericity test); in the walk down
    from V, a level of more than 10! partial permutations, or N > 63 (its
    fixed-point masks are int64 bitmasks)."""


class TooFewPoints(ValidationError):
    """Not enough data points left for a least-squares fit."""


class SamplingExhausted(ValidationError):
    """Rejection sampling could not satisfy the minimum-gap constraint."""


class NumericalError(ResonanceSizerError):
    """A numerical procedure failed to converge or to produce a usable result."""

    def __init__(self, message: str, where=None):
        self.where = where
        super().__init__(message)


class ContourThroughZero(NumericalError):
    """The integration contour passes too close to a zero, even after nudging."""


class EvaluationOverflow(NumericalError):
    """f or f' overflowed double precision on a contour: the terms
    e^{i b z} grow like e^{b |Im z|}, past log(DBL_MAX) ~ 709.78."""


class QuadratureDivergence(NumericalError):
    """The winding-number quadrature did not stabilize within the point budget."""
