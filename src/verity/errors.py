"""Exception hierarchy shared across the package."""

from typing import Optional


class VerityError(Exception):
    """Base class for all package errors."""


class ValidationError(VerityError):
    """Input violates a documented precondition or invariant."""


class FormatError(VerityError):
    """Malformed or cut-off input file; names the file and the line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path} line {line}: {message}")
        self.path = path
        self.line = line


class TransportError(VerityError):
    """Retryable backend failure (network, 5xx, rate limit).

    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class GatewayHardError(VerityError):
    """Non-retryable gateway failure; the current claim is abandoned."""


class ReplayMissError(GatewayHardError):
    """Replay backend has no recorded response for a request hash."""
