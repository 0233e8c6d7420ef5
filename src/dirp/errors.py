"""Exception hierarchy shared by all dirp modules."""


class DirpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DirpError):
    """Malformed direction spec, polynomial file, or RV spec."""


class PrecisionExhausted(DirpError):
    """A quantity could not be separated from zero (or resolved) within
    the precision cap, and no exact decision procedure applies."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class ZeroFunction(DirpError):
    """Operation requires a nonzero polynomial."""


class DimensionMismatch(DirpError):
    """Frequency / direction / grid dimensions disagree."""


class DepthNotCertified(DirpError):
    """A continued fraction could not be certified to the requested depth."""


class RationalRatio(DirpError):
    """A convergent walk needs an irrational slope."""


class NonpositiveSigma(DirpError):
    """delta exponents need sigma > 0."""


class PrecisionCapExceeded(DirpError):
    """Generator family index requires more digits than the context allows."""


class UnderResolved(DirpError):
    """Grid too coarse for the requested scale t."""


class GridMismatch(DirpError):
    """Grid measures/functions with different M combined."""


class ZeroDrift(DirpError):
    """Density-floor check needs E[Y] != 0."""
