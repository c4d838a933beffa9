"""Reports as the JSON they are written as, with deterministic serialization.

A check is the dict ``{"name", "value", "bound", "margin", "pass"}`` and a
series the dict ``{"name", "columns", "rows"}``; a ``Report`` holds them as
they are written. Every check of a value against a bound is built by
``bounded_check``, or by ``bounded_checks`` for arrays of them, so one rule
holds in every report: the margin is bound - value (value - bound for a
lower bound), and it is >= 0 exactly when the check passes.

Reports are byte-stable for a fixed configuration and artifact version,
except for the wall-time field; floats are emitted with 17 significant
digits, and strings (keys too) as JSON string literals that escape every
control character. The writer takes the JSON types only (dict, list, str,
float, int, bool and None) and raises TypeError on any other.

``hashlib``, and with it OpenSSL's libcrypto, loads on the first input
digest (``sha256_digest``), so a process that digests no file never maps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False) without an encoder per call
from pathlib import Path

import numpy as np

__version__ = "0.1.0"


def bounded_check(name: str, value, bound, lower: bool = False, passed: bool | None = None) -> dict:
    """The record of a check of value <= bound, or of value >= bound when ``lower``.

    The margin is nonnegative on the passing side. ``passed`` overrides the
    verdict where the gate is not literally that comparison (a strict
    inequality, an equality, a rung-by-rung test).
    """
    margin = value - bound if lower else bound - value
    if passed is None:
        passed = value >= bound if lower else value <= bound
    return {"name": name, "value": value, "bound": bound, "margin": margin, "pass": bool(passed)}


def bounded_checks(names, values, bounds) -> list:
    """``bounded_check(name, value, bound)`` for each entry of float arrays,
    with ``bounds`` broadcast to the shape of ``values``."""
    values = np.asarray(values, dtype=float)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=float), values.shape)
    columns = values.tolist(), bounds.tolist(), (bounds - values).tolist(), (values <= bounds).tolist()
    return [
        {"name": name, "value": value, "bound": bound, "margin": margin, "pass": passed}
        for name, value, bound, margin, passed in zip(names, *columns)
    ]


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)
    series: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "version": __version__,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": self.checks,
            "series": self.series,
            "meta": self.meta,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
        }


def format_float(x: float) -> str:
    """Floats rendered with 17 significant digits (lossless round trip)."""
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f"{pad}  {encode_basestring(k)}: {_dumps(v, indent + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    raise TypeError(f"a report holds JSON types only, got {type(obj).__name__}")


def report_to_json(report: Report) -> str:
    return _dumps(report.to_dict()) + "\n"


def sha256_digest(path) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL, which only the CLI's input digests need

    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
