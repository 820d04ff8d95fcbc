"""Exception types shared across the package."""


class CubenetError(Exception):
    """Base class for all cubenet errors."""


class SpecError(CubenetError):
    """Invalid or unsupported construction/analysis specification."""


class ConstructionError(CubenetError):
    """A builder could not produce a valid (connected, well-formed) topology."""


class ResourceLimitError(CubenetError):
    """Requested object exceeds the configured size guards."""


class NumericError(CubenetError):
    """A numeric solve failed or an analysis has no meaningful answer."""
