"""Exception types shared across the package.

Every error raised on a contract violation derives from BarrelError so
callers (and the CLI) can distinguish domain failures from programming
bugs.  Where a ValueError is the natural builtin category the class
inherits from both.
"""


class BarrelError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamsError(BarrelError, ValueError):
    """Graph or operator parameters outside the valid domain."""


class StructuralViolationError(BarrelError):
    """A constructed graph, matching, profile or selection breaks an invariant.

    The message names the first invariant that failed.  Internal
    invariants raise it rather than assert, so they hold under -O too.
    """


class TooLargeError(BarrelError):
    """Instance exceeds a configured size cap for the requested method."""


class TooManyMatchingsError(BarrelError):
    """Enumeration would produce more matchings than the configured cap."""


class NotPerfectMatchingError(BarrelError, ValueError):
    """An edge set that was required to be a perfect matching is not one."""


class UnknownFormatError(BarrelError, ValueError):
    """Unrecognized serialization format name."""


class SectorError(BarrelError, ValueError):
    """Sector index invalid for the operation (out of range or wrong parity)."""


class SizeMismatchError(BarrelError, ValueError):
    """Two point sets that must have equal cardinality do not."""


class ParityViolationError(BarrelError, ValueError):
    """Input breaks a parity constraint (site parity or step-count parity)."""


class OrderingViolationError(BarrelError, ValueError):
    """Coordinates do not satisfy the required strict ordering."""


class DegenerateRootsError(BarrelError, ValueError):
    """A root selection contains repeated roots."""


class ResidualExceededError(BarrelError):
    """An eigenpair residual is above the admitted tolerance."""


class RankDeficientError(BarrelError):
    """A family of vectors that must span its space does not."""


class PositivityViolationError(BarrelError):
    """A vector expected to be strictly positive is not."""


class FormulaMismatchError(BarrelError):
    """Two independent routes to the same quantity disagree.

    Raised instead of silently preferring one route; signals a
    transcription or implementation bug that must not be masked.
    """


class ToleranceError(BarrelError):
    """A numeric routine cannot certify the requested tolerance."""


class UnsupportedParameterError(BarrelError, ValueError):
    """Parameter outside the finite family the operation supports."""
