"""Shared exception types."""


class CotwistError(Exception):
    """Base class for errors raised by this package."""


class AuditError(CotwistError):
    """An exact self-check failed."""
