"""Exception hierarchy shared by all seplab modules."""


class SeplabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SeplabError):
    """Operands live in spaces of incompatible dimension."""


class NotHermitian(SeplabError):
    """Operator fails the hermiticity check required by the operation."""


class NonCommuting(SeplabError):
    """Projector pair does not commute within tolerance."""


class EmptySubspace(SeplabError):
    """A required witness subspace has rank zero for this projector pair."""


class UnknownTest(SeplabError):
    """Named test or observable is not defined for this entity or protocol."""


class InvalidArgument(SeplabError, ValueError):
    """Argument lies outside the range the operation is defined on."""


class ConfigError(SeplabError):
    """Scenario configuration is malformed; message names the offending field."""


class ScenarioError(SeplabError):
    """A scenario failed while running; wraps the underlying module error."""


class IoError(SeplabError):
    """Report could not be written to the requested destination."""
