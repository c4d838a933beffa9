"""Field CSV rows for loader tests: shuffled, respelled, and broken one way at a time.

Rows are lists of string tokens, so a test can break one before
``write_field`` joins them into a file with a header, scattered blank lines
and a sidecar.
"""

import json
import re

import numpy as np

VALUE_FORMATS = [lambda x: format(x, ".17g"), repr, lambda x: format(x, ".3f"), lambda x: format(x, ".6e")]


def shuffled_rows(g, M, rng):
    """Token lists of one row per cell, in a random order, with values spanning many magnitudes."""
    values = rng.standard_normal((g.num_cells, M)) * 10.0 ** rng.integers(-30, 30, size=(g.num_cells, M))
    index = np.unravel_index(np.arange(g.num_cells), g.shape)
    return [
        [str(int(i[c])) for i in index] + [VALUE_FORMATS[rng.integers(4)](float(x)) for x in values[c]]
        for c in rng.permutation(g.num_cells)
    ]


def respelled(token, rng):
    """``token``, or a spelling of it that Python's int and float read as the same number."""
    kind = rng.integers(4)
    if kind == 1 and not token.startswith("-"):
        return "+" + token
    if kind == 2:
        pair = re.search(r"\d\d", token)  # "_" may group two digits
        return token if pair is None else token[: pair.start() + 1] + "_" + token[pair.start() + 1 :]
    if kind == 3:
        return " " * rng.integers(1, 3) + token + " " * rng.integers(0, 3)
    return token


def write_field(path, g, M, rows, rng):
    """The rows under a header, with blank and blank-looking lines scattered through, and a sidecar."""
    lines = [",".join(row) for row in rows]
    for _ in range(3):
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "  ", "\t"]))
    header = ",".join([f"i{k + 1}" for k in range(g.ndim)] + [f"v{k + 1}" for k in range(M)])
    path.write_text("\n".join([header] + lines) + "\n")
    sidecar = {"norm_tag": "l2", "dim_M": M, "grid": g.to_json()}
    path.with_name(path.name + ".json").write_text(json.dumps(sidecar))
    return path


FAULTS = [
    "short-row", "long-row", "float-index", "negative-index", "index-past-the-grid", "index-at-int64-max",
    "repeated-cell", "two-repeated-cells", "missing-row", "extra-row", "inf", "-inf", "nan", "NaN", "text-value",
]


def add_fault(fault, rows, g, rng):
    """Break the rows in one way.

    Each of FAULTS makes the per-row reader raise a ValueError; so does
    "index-beyond-int64" in load_field_csv, where the per-row reader let a
    TypeError escape.
    """
    N = g.ndim
    r, k = int(rng.integers(len(rows))), int(rng.integers(N))
    row = rows[r]
    if fault == "short-row":
        row.pop()
    elif fault == "long-row":
        row.append("0.5")
    elif fault == "float-index":
        row[k] = f"{int(row[k])}.0"
    elif fault == "negative-index":
        row[k] = "-1"
    elif fault == "index-past-the-grid":
        row[k] = str(g.shape[k] + int(rng.integers(2)))
    elif fault == "index-at-int64-max":
        row[k] = str(2**63 - 1)
    elif fault == "index-beyond-int64":
        row[k] = rng.choice(["99999999999999999999", "-99999999999999999999"])
    elif fault == "repeated-cell":
        row[:N] = rows[(r + 1) % len(rows)][:N]
    elif fault == "two-repeated-cells":
        for r in rng.choice(len(rows) - 1, size=2, replace=False):
            rows[r][:N] = rows[r + 1][:N]
    elif fault == "missing-row":
        rows.pop(r)
    elif fault == "extra-row":
        rows.insert(r, list(rows[(r + 1) % len(rows)]))
    elif fault in ("inf", "-inf", "nan", "NaN", "text-value"):
        row[N + int(rng.integers(len(row) - N))] = "x" if fault == "text-value" else fault
    return rows
