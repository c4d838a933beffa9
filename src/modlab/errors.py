"""Exception types and input checks shared across the package."""

import math


def require_keys(record: dict, keys, where: str) -> None:
    """Reject a JSON object that lacks one of ``keys``, naming where it came from."""
    for key in keys:
        if key not in record:
            raise ValueError(f"{where} has no {key!r} key")


def require_exponent(p: float) -> None:
    """Reject an exponent that is not a finite p >= 1, NaN included."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"the exponent must be a finite p >= 1, got {p}")


class ModlabError(Exception):
    """Base class for modlab-specific failures."""


class DegenerateCurveError(ModlabError, ValueError):
    """Raised for operations that require a curve of positive length."""


class DomainError(ModlabError, ValueError):
    """Raised when a curve leaves the grid box."""


class ScheduleError(ModlabError, RuntimeError):
    """Raised when no admissible Fuglede subsequence can be selected."""
