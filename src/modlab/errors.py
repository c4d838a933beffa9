"""Exception types and input checks shared across the package."""

import math
from contextlib import contextmanager

import numpy as np


def require_keys(record: dict, keys, where: str) -> None:
    """Reject a JSON object that lacks one of ``keys``, naming where it came from."""
    for key in keys:
        if key not in record:
            raise ValueError(f"{where} has no {key!r} key")


def require_exponent(p: float) -> None:
    """Reject an exponent that is not a finite p >= 1, NaN included."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"the exponent must be a finite p >= 1, got {p}")


@contextmanager
def overflow_as_value_error(message: str, **errstate):
    """Run the block with float64 overflow raising, plus any further
    ``np.errstate`` settings such as ``invalid="raise"``, and turn the
    FloatingPointError that stops it into a ValueError carrying ``message``."""
    try:
        with np.errstate(over="raise", **errstate):
            yield
    except FloatingPointError:
        raise ValueError(message) from None


class ModlabError(Exception):
    """Base class for modlab-specific failures."""


class DegenerateCurveError(ModlabError, ValueError):
    """Raised for operations that require a curve of positive length."""


class DomainError(ModlabError, ValueError):
    """Raised when a curve leaves the grid box."""


class ScheduleError(ModlabError, RuntimeError):
    """Raised when no admissible Fuglede subsequence can be selected."""
