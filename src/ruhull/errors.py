"""Exception types shared across the package."""


class RuhullError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RuhullError, ValueError):
    """Input data violates a structural invariant (bad vector, bad label, ...)."""


class LayoutMismatch(RuhullError, ValueError):
    """Two objects that must share a coordinate layout do not."""


class CapExceeded(RuhullError, RuntimeError):
    """A desk-scale enumeration cap would be exceeded."""


class InstanceParseError(RuhullError, ValueError):
    """An instance or report file is malformed; carries a location string."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)

