"""JSON-serializable records of checks, with deterministic serialization.

Every check of a value against a bound is built by ``bounded_check``, so one
rule holds in every report: the margin is bound - value (value - bound for a
lower bound), and it is >= 0 exactly when the check passes.

Reports are byte-stable for a fixed configuration and artifact version,
except for the wall-time field; floats are emitted with 17 significant
digits, and strings (keys too) as JSON string literals that escape every
control character.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False) without an encoder per call
from pathlib import Path

__version__ = "0.1.0"


@dataclass
class CheckRecord:
    """One named check: value against bound, margin, and the verdict."""

    name: str
    value: float | list | None = None
    bound: float | None = None
    margin: float | None = None
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "pass": bool(self.passed),
        }


def bounded_check(name: str, value, bound, lower: bool = False, passed: bool | None = None) -> CheckRecord:
    """A check of value <= bound, or of value >= bound when ``lower``.

    The margin is nonnegative on the passing side. ``passed`` overrides the
    verdict where the gate is not literally that comparison (a strict
    inequality, an equality, a rung-by-rung test).
    """
    margin = value - bound if lower else bound - value
    if passed is None:
        passed = value >= bound if lower else value <= bound
    return CheckRecord(name=name, value=value, bound=bound, margin=margin, passed=bool(passed))


@dataclass
class Series:
    """Tabular series (ladders, refinement studies) for plot-data export."""

    name: str
    columns: list
    rows: list

    def to_dict(self) -> dict:
        return {"name": self.name, "columns": list(self.columns), "rows": [list(r) for r in self.rows]}


@dataclass
class Report:
    command: str
    checks: list = field(default_factory=list)
    series: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    version: str = __version__
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": [c.to_dict() for c in self.checks],
            "series": [s.to_dict() for s in self.series],
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
            items.append(f"{pad}  {encode_basestring(str(k))}: {_dumps(v, indent + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or type(obj).__name__ == "bool_":
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    # numpy scalars and anything else numeric-like
    try:
        return format_float(float(obj))
    except (TypeError, ValueError):
        return _dumps(str(obj), indent)


def report_to_json(report: Report) -> str:
    return _dumps(report.to_dict()) + "\n"


def sha256_digest(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
