"""Exception types and the input rules, each decided here once: a JSON
object holding named keys (``require_keys``), a count (``require_count``),
a flat list of finite real numbers (``require_reals``), an array of real
numbers (``require_real_array``), a tolerance (``require_tolerance``), an
exponent (``require_exponent``) and a CSV body (``read_csv``). A reader of
a file wraps them in ``named`` to put the file in the message."""

import math
import numbers
import sys
from contextlib import contextmanager
from pathlib import Path

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


def require_real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, if it holds real numbers only: an array needs
    an integer or float dtype, a test of O(1), and the entries of a list, at any
    depth, must pass ``require_reals``; strings and bools are refused."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold real numbers, got an array of dtype {values.dtype}")
    else:
        require_reals(np.asarray(values, dtype=object).ravel(), name)
    return np.asarray(values, dtype=float)


def require_tolerance(tol: float) -> None:
    """Reject a tolerance that is not finite and positive, NaN included."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def require_exponent(p: float) -> None:
    """Reject an exponent that is not a finite p >= 1, NaN included."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"the exponent must be a finite p >= 1, got {p}")


# ASCII controls but tab (read_text turns CR and CRLF into newlines)
_CONTROLS = [chr(c) for c in (*range(9), *range(11, 32), 127)]
# numpy's reader refuses a row holding any other of them, but strips these as whitespace
_STRIPPED = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _loadtxt(rows, dtype, usecols=None):
    """``rows``, a list of lines, parsed by the one reader of every CSV body."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=dtype, usecols=usecols)


def read_csv(path, header=False, width=None, index_columns=0, noun="value"):
    """The rows of the CSV file ``path``, one per non-blank line after a header
    line (with ``header``), as (the first ``index_columns`` columns as int64,
    the others as finite float64, ``where``); ``where(r)`` names row r as
    "line N of <path>", blank lines counted in N.

    The grammar is what the writers produce: ASCII with no control character
    but tab, comma-separated integers and floats as ``np.loadtxt`` reads
    them, spaces and tabs around a token,
    ``width`` columns a row (the first row's count if None; the first row is
    tested before ``width`` sizes the row type). One ``np.loadtxt`` call reads
    the body; only if it fails is the first line that the same reader refuses
    sought, and the ValueError names the file, the line and the rule.
    """
    text = Path(path).read_text()
    lines = text.split("\n")

    def where(row):
        return f"line {[n for n, ln in enumerate(lines, 1) if ln.strip()][header + row]} of {path}"

    rows = list(filter(str.strip, lines))  # the non-blank lines
    # C-level passes, no regex; the header, which the reader skips, is tested for every control
    unread = rows[0] if header and rows else ""
    if not text.isascii() or any(c in text for c in _STRIPPED) or any(c in unread for c in _CONTROLS):
        n, c = next((n, c) for n, ln in enumerate(lines, 1) for c in ln if not c.isascii() or c in _CONTROLS)
        raise ValueError(f"line {n} of {path}: character {c!r} is neither printable ASCII nor a tab")
    body = rows[header:]
    if not body:  # np.loadtxt would warn that it read no data
        return np.zeros((0, index_columns), dtype=np.int64), np.zeros((0, 0)), where
    first = body[0].count(",") + 1
    width, need = (first, f" where the first row has {first}") if width is None else (
        width, f"; every row needs {index_columns} index and {width - index_columns} {noun} columns")
    try:
        if first != width:  # before width, perhaps a sidecar's dim_M of 1e15, sizes the row type
            raise ValueError
        table = _loadtxt(body, [("i", np.int64, (index_columns,)), ("v", float, (width - index_columns,))])
    except ValueError:
        for r, ln in enumerate(body):
            tokens = ln.split(",")
            if len(tokens) != width:
                raise ValueError(f"{where(r)} has {len(tokens)} columns{need}") from None
            for k, token in enumerate(tokens):
                index = k < index_columns
                try:
                    _loadtxt([ln], np.int64 if index else float, usecols=k)
                except ValueError:
                    rule = "index {!r} is not an integer that fits in int64" if index else noun + " {!r} is not a number"
                    raise ValueError(f"{where(r)}: " + rule.format(token.strip())) from None
        raise
    if not np.isfinite(table["v"]).all():
        r = int(np.argmin(np.isfinite(table["v"]).all(axis=1)))
        raise ValueError(f"{where(r)} holds a {noun} that is not a finite number: {table['v'][r].tolist()}")
    return table["i"], table["v"], where


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
