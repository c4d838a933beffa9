"""Exception types and the input rules, each decided here once: a JSON
object holding named keys (``require_keys``), a count (``require_count``),
a flat list of finite real numbers (``require_reals``), a tolerance
(``require_tolerance``) and an exponent (``require_exponent``). A reader of
a file wraps them in ``named`` to put the file in the message."""

import math
import numbers
import sys
from contextlib import contextmanager

import numpy as np


def require_keys(record, keys) -> list:
    """The values of ``keys`` in ``record``, which must be a JSON object holding them all."""
    if not isinstance(record, dict):
        raise ValueError(f"must be a JSON object, got {type(record).__name__}")
    for key in keys:
        if key not in record:
            raise ValueError(f"has no {key!r} key")
    return [record[key] for key in keys]


def require_count(value, name: str, minimum: int = 1, whole_floats: bool = False) -> int:
    """``value`` as an int, if it is an integer (not a bool) >= ``minimum``.
    With ``whole_floats``, as in JSON records, 4.0 counts as 4."""
    if whole_floats and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        got = repr(value) if isinstance(value, numbers.Number) else f"a {type(value).__name__}"
        raise ValueError(f"{name} must be an integer >= {minimum}, got {got}")
    return int(value)


def require_reals(values, name: str) -> list:
    """The entries of a flat list or array of finite real numbers, or of one number, as Python
    ints (kept exact) and floats; strings, bools, None and nested lists are refused."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    items = [x.item() if isinstance(x, np.generic) else x for x in (items if isinstance(items, (list, tuple)) else [items])]
    for x in items:
        # NaN fails the comparison, and so does an int beyond float64's range
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise ValueError(f"{name} must hold finite numbers only, got {x!r}")
    return items


def require_tolerance(tol: float) -> None:
    """Reject a tolerance that is not finite and positive, NaN included."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def require_exponent(p: float) -> None:
    """Reject an exponent that is not a finite p >= 1, NaN included."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"the exponent must be a finite p >= 1, got {p}")


@contextmanager
def named(where: str):
    """Prefix the message of a ValueError raised in the block with ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
