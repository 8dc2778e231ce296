"""Exception types shared across the package."""


class SingularityError(RuntimeError):
    """Raised when bodies get close enough that the force law blows up.

    ``time`` carries the failure time when the error comes out of an
    integration, and is None for static evaluations.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DocumentError(ValueError):
    """Raised for malformed problem documents; the message names the field."""
