"""Exceptions shared across the package.

The CLI maps these onto exit codes: input and precondition problems are
exit 2, search exhaustion is 3, tower height exhaustion is 4.  A failed
certificate verification is not an exception at all (verifiers return
reports); it is exit 1.
"""


class QuadcylError(Exception):
    """Base class for everything raised on purpose by this package."""


class InputFormatError(QuadcylError):
    """A file or literal does not parse as the expected exact format."""


class TowerError(QuadcylError):
    """Misuse of tower scalars (incompatible towers, bad adjunction)."""


class TowerLimitError(TowerError):
    """Adjoining one more square root would exceed the height limit."""


class ZeroDivisorError(TowerError):
    """Division by a nonzero element of zero conjugate norm.

    Happens when a radicand is secretly a perfect square lower in the
    tower.  The square detection in sqrt_if_present is shallow, so this
    is not limited to user-supplied radicand lists: over Q(sqrt2),
    try_sqrt(3 + 2*sqrt2) adjoins a new radicand although 1 + sqrt2 is
    already a square root of it.
    """


class RankTooLowError(QuadcylError):
    """The quadratic form has rank below what the operation needs."""


class FormNotSmoothError(QuadcylError):
    """The operation needs a full-rank quadratic form."""


class PointNotOnQuadricError(QuadcylError):
    """A point expected to lie on the quadric does not."""


class SingularPointError(QuadcylError):
    """The point is on the quadric but in its radical / singular locus."""


class OutOfDomainError(QuadcylError):
    """A point is outside the domain of the chart being applied."""


class EndpointError(QuadcylError):
    """An endpoint violates the connect preconditions (wrong side of the
    quadric, singular, or not on the intersection)."""


class LineNotInXError(QuadcylError):
    """The given line does not lie inside the intersection of the pencil."""


class DuplicateLambdaError(QuadcylError):
    """Diagonal pencil parameters must be pairwise distinct."""


class RetryLimitError(QuadcylError):
    """A randomized search exhausted its retry budget."""
