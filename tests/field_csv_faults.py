"""Field CSV rows for loader tests: shuffled, respelled, and broken one way at a time.

Rows are lists of string tokens, so a test can break one before
``write_field`` joins them into a file with a header, scattered blank lines
and a sidecar. ``token_rows`` draws the same kind of rows from a token
grammar for hypothesis, and ``refuse_some`` puts tokens from REFUSED into
them; ``polyline_rows`` draws vertex rows from the same grammar.
"""

import json

import numpy as np
from hypothesis import strategies as st

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
    """``token``, or a spelling of it that numpy's reader reads as the same number."""
    kind = rng.integers(3)
    if kind == 1 and not token.startswith("-"):
        return "+" + token
    if kind == 2:
        return " " * rng.integers(1, 3) + token + " " * rng.integers(0, 3)
    return token


def write_field(path, g, M, rows, rng):
    """The rows under a header, with blank and blank-looking lines scattered through, and a sidecar."""
    lines = [",".join(row) for row in rows]
    for _ in range(3):
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "  ", "\t"]))
    header = ",".join([f"i{k + 1}" for k in range(g.ndim)] + [f"v{k + 1}" for k in range(M)])
    # unlinked first: rewriting a file in place can wait for its write-back
    path.unlink(missing_ok=True)
    path.write_text("\n".join([header] + lines) + "\n")
    sidecar = {"norm_tag": "l2", "dim_M": M, "grid": g.to_json()}
    sidecar_path = path.with_name(path.name + ".json")
    sidecar_path.unlink(missing_ok=True)
    sidecar_path.write_text(json.dumps(sidecar))
    return path


FAULTS = [
    "short-row", "long-row", "float-index", "negative-index", "index-past-the-grid", "index-at-int64-max",
    "repeated-cell", "two-repeated-cells", "missing-row", "extra-row", "inf", "-inf", "nan", "NaN", "text-value",
    "index-beyond-int64",
]


def add_fault(fault, rows, g, rng):
    """Break the rows in one way; return the position of the row a message should name.

    Each of FAULTS makes load_field_csv raise a ValueError. A repeated cell
    names the first row whose cell an earlier row holds; a missing or extra
    row names none (None).
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
    if fault in ("missing-row", "extra-row"):
        return None
    if fault in ("repeated-cell", "two-repeated-cells"):
        seen = set()
        for r, row in enumerate(rows):
            cell = tuple(int(t) for t in row[:N])
            if cell in seen:
                return r
            seen.add(cell)
    return r


def line_of(path, row):
    """1-based line number of the first line of ``path`` that is ``row``'s tokens joined by commas."""
    return path.read_text().split("\n").index(",".join(row)) + 1


# Tokens the reader refuses in some column, or that parse to a value a file
# may not hold: a float index, text, "_" between digits, a non-ASCII digit
# or letter, a comma that splits one token in two, a control character
# that numpy's reader would strip as whitespace (U+001F, U+000B, U+000C) or
# refuses itself (U+0001, U+007F), an empty token, an index beyond int64 or
# below 0, and values that are not finite.
REFUSED = ["7.0", "x", "1_0", "\u0661\u0660", "1,5", "\x1f1", "1\x1f", "\x0b1", "\x0c1", "\x011", "1\x7f", "\u01fe7",
           "", " ", "99999999999999999999", "-1", "nan", "inf", "-Infinity", "1e400"]
# The REFUSED tokens that a value column reads, and the values they read as.
VALUE_READS = {"7.0": 7.0, "-1": -1.0, "99999999999999999999": 1e20}


def spellings(token):
    """``token`` or a spelling of it that numpy's reader reads as the same number: a sign or padding."""
    return st.one_of(
        st.just(token),
        st.sampled_from(["+", " ", "\t", " \t"]).map(lambda pre: token if token[0] in "+-" else pre + token),
        st.sampled_from([" ", "\t"]).map(lambda post: token + post),
    )


@st.composite
def refuse_some(draw, rows, index_columns):
    """Replace up to two tokens of ``rows`` in place by tokens of REFUSED.

    Returns whether a token the reader must refuse landed, and the values at
    the (row, column) positions where a value column reads what landed.
    """
    landed = {}
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(rows[r]) - 1))
        rows[r][k] = landed[r, k] = draw(st.sampled_from(REFUSED))
    read = {key: VALUE_READS[t] for key, t in landed.items() if key[1] >= index_columns and t in VALUE_READS}
    return len(read) < len(landed), read


floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def token_rows(draw, g, M):
    """Rows of one cell of ``g`` each in a drawn order, every token respelled, then ``refuse_some``.

    Returns the rows, the float64 values they hold in cell order (every
    respelling keeps the value), and whether a refused token landed.
    """
    index = np.unravel_index(np.arange(g.num_cells), g.shape)
    values = np.zeros((g.num_cells, M))
    cells = draw(st.permutations(range(g.num_cells)))
    rows = []
    for c in cells:
        values[c] = [draw(floats) for _ in range(M)]
        indices = [draw(spellings(draw(st.sampled_from(["", "0", "00"])) + str(int(i[c])))) for i in index]
        rows.append(indices + [draw(spellings(repr(x))) for x in values[c].tolist()])
    refused, read = draw(refuse_some(rows, g.ndim))
    for (r, k), x in read.items():
        values[cells[r], k - g.ndim] = x
    return rows, values, refused


@st.composite
def polyline_rows(draw, N):
    """Two to six vertex rows of N coordinates in [0, 1], respelled, then ``refuse_some``.

    Returns the rows and whether a refused token landed.
    """
    rows = [[draw(spellings(repr(draw(st.floats(0.0, 1.0))))) for _ in range(N)] for _ in range(draw(st.integers(2, 6)))]
    refused, _ = draw(refuse_some(rows, 0))
    return rows, refused
