"""Exception types shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DomainError(WorkbenchError):
    """An argument is outside the domain an operation accepts."""


class PreconditionError(WorkbenchError):
    """A stated precondition does not hold for the given inputs."""


class ResourceError(WorkbenchError):
    """An enumeration would exceed the configured cap."""


class MalformedCodeError(WorkbenchError):
    """A code table is missing entries or maps outside its alphabet."""


class InternalCheckError(WorkbenchError):
    """An internal consistency re-check failed; this indicates a bug."""


class Int64RangeError(DomainError):
    """An integer table entry lies outside int64."""
