"""Exception types shared across the package."""


class CaAdamError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CaAdamError):
    """Operands have incompatible or invalid dimensions."""


class NonFiniteError(CaAdamError):
    """A NaN or Inf appeared where only finite values are allowed.

    ``members`` holds the indices of the networks whose values were not
    finite: of the members of a stacked network (``nn.stack``), or ``(0,)``
    for one network."""

    def __init__(self, message: str = "", members: tuple[int, ...] = (0,)):
        super().__init__(message)
        self.members = members


class StructureError(CaAdamError):
    """A network or summary violates a structural requirement."""


class ConfigError(CaAdamError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(CaAdamError):
    """A dataset could not be loaded, parsed, or partitioned."""
