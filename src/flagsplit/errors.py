"""Shared exception types."""


class FlagsplitError(Exception):
    """Base class for all library errors."""


class InputError(FlagsplitError, ValueError):
    """Invalid user input (bad type/rank, weight outside a precondition, ...)."""


class ResourceLimitError(FlagsplitError, RuntimeError):
    """A configured cap (term count, dimension, enumeration size) was exceeded."""


class InvariantError(FlagsplitError, RuntimeError):
    """A computed result broke an identity it must satisfy (for instance a
    chart function that is not 1 at X=0).  This is a bug in flagsplit, not
    bad input; unlike an ``assert`` the check also runs under ``python -O``."""
