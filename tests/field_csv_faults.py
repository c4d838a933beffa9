"""Field CSV rows for loader tests: shuffled, respelled, and broken one way at a time.

Rows are lists of string tokens, so a test can break one before
``write_field`` joins them into a file with a header, scattered blank lines
and a sidecar. ``token_rows`` draws the same kind of rows from a token
grammar for hypothesis.
"""

import json
import re

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
]


def add_fault(fault, rows, g, rng):
    """Break the rows in one way; return the position of the row a message should name.

    Each of FAULTS makes the per-row reader raise a ValueError; so does
    "index-beyond-int64" in load_field_csv, where the per-row reader let a
    TypeError escape. A repeated cell names the first row whose cell an
    earlier row holds; a missing or extra row names none (None).
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


# Zeros of digit blocks Python's int and float read as decimal digits:
# Arabic-Indic, extended Arabic-Indic, Devanagari and fullwidth.
UNICODE_ZEROS = ["\u0660", "\u06f0", "\u0966", "\uff10"]

# Tokens Python's int or float refuses in some column, or that parse to a
# value a field file may not hold: a float index, text, a comma that splits
# one token in two, U+001F (which numpy's reader strips as whitespace),
# U+01FE before a digit (which numpy's reader reads as a number), an empty
# token, an index beyond int64 or below 0, and values that are not finite.
REFUSED = ["7.0", "x", "1,5", "\x1f1", "1\x1f", "\u01fe7", "", " ", "99999999999999999999", "-1",
           "nan", "inf", "-Infinity", "1e400"]


def spellings(token, ascii_only):
    """``token`` or a spelling of it that Python's int and float read as the same number.

    Only ASCII spellings without "_" when ``ascii_only``, which numpy's reader reads too.
    """
    options = [
        st.just(token),
        st.sampled_from(["+", " ", "\t", " \t"]).map(lambda pre: token if token[0] in "+-" else pre + token),
        st.sampled_from([" ", "\t"]).map(lambda post: token + post),
    ]
    if not ascii_only:
        options.append(st.just(re.sub(r"(\d)(\d)", r"\1_\2", token, count=1)))
        options.append(st.sampled_from(UNICODE_ZEROS).map(
            lambda zero: token.translate(str.maketrans("0123456789", "".join(chr(ord(zero) + d) for d in range(10))))
        ))
    return st.one_of(options)


@st.composite
def token_rows(draw, g, M):
    """One row per cell of ``g`` in a drawn order, every token respelled, then up to two replaced from REFUSED."""
    index = np.unravel_index(np.arange(g.num_cells), g.shape)
    ascii_only = draw(st.booleans())
    rows = []
    for c in draw(st.permutations(range(g.num_cells))):
        indices = [draw(spellings(draw(st.sampled_from(["", "0", "00"])) + str(int(i[c])), ascii_only)) for i in index]
        values = [draw(spellings(repr(draw(st.floats(allow_nan=False, allow_infinity=False))), ascii_only))
                  for _ in range(M)]
        rows.append(indices + values)
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(REFUSED))
    return rows
