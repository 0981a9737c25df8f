# Shared exception types. cli.main maps each class to its exit code: 2, 3, 4.

from __future__ import annotations


class SpecError(ValueError):
    """Malformed experiment spec, bad flag value, or rejected input file."""


class CapExceeded(RuntimeError):
    """A request walked past a documented desk-scale size cap."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed on otherwise valid input."""
