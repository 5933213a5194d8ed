"""Exception hierarchy shared by all gkzrank modules."""


class GkzError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(GkzError):
    """Input of the wrong shape: a ragged or empty matrix where a rectangular
    integer matrix was expected, a malformed problem file, or a point whose
    length is not the number of matrix rows."""


class RankDeficient(GkzError):
    """The exponent matrix does not have full row rank over the rationals."""

    def __init__(self, actual_rank, expected_rank):
        self.actual_rank = actual_rank
        self.expected_rank = expected_rank
        super().__init__(f"matrix rank is {actual_rank}, expected {expected_rank}")


class NotInCone(GkzError):
    """A lattice vector lies outside the positive hull of the exponent columns."""


class FaceContainsOrigin(GkzError):
    """Operation requires a face of the Newton polytope that avoids the origin."""


class NotAFacePair(GkzError):
    """The second face is not a codimension-one face of the first."""


class TruncationTooSmall(GkzError):
    """The requested or capped truncation cannot certify the computation."""

    def __init__(self, needed, cap):
        self.needed = needed
        self.cap = cap
        super().__init__(f"truncation degree {needed} exceeds cap {cap}")


class DegenerateFiber(GkzError):
    """The coefficient fiber is degenerate; rank statements do not apply."""


class MismatchAtDegree(GkzError):
    """A per-degree dimension disagrees with the predicted series coefficient."""

    def __init__(self, degree, got, expected):
        self.degree = degree
        self.got = got
        self.expected = expected
        super().__init__(
            f"dimension {got} at degree {degree}, series predicts {expected}"
        )


class NotARelation(GkzError):
    """Vector is not a nonzero integer relation among the exponent columns."""


class UnknownSubcommand(GkzError):
    """CLI subcommand name is not recognized."""


class GammaNotNormalized(UserWarning):
    """The parameter vector was not shifted into the dual-nonpositive region.

    Computations proceed, but the rank guarantees are void for such a
    representative.
    """
