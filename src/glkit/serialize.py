"""File formats: CSV for signal/covariance matrices, JSON for graphs
and reports.

CSV is headerless by default, one row per vertex, values printed with
17 significant digits so a write/read round trip is bit exact. Graphs
are JSON objects {"n", "kind", "directed", "edges": [{"i", "j", "w"}]}
with zero-based indices; Laplacians store their nonnegative edge
weights, precision/generic shifts store raw entries including (i, i)
diagonal records. Long record lists (graph edges, test tables) are
written as they are formatted, in the same bytes as
``json.dumps(payload, indent=1)``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .graphcore import ShiftKind, ShiftOperator, build_shift

FLOAT_FMT = "%.17g"


def write_matrix_csv(path, M) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt=FLOAT_FMT,
               delimiter=",")


def read_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Read a comma-separated matrix, one row per line.

    numpy's C parser reads the file (correctly rounded, so a
    ``write_matrix_csv`` round trip is bit exact) without holding its
    text. With ``header`` the first line is skipped. Blank lines are
    skipped too. An empty file raises ``DataError`` naming the file; so
    do ragged rows, an empty or non-numeric field (``#`` lines, trailing
    commas, ``1_000``) and a non-finite value, naming also the first
    offending line of the file (counted from 1, header and blank lines
    included) and its column.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            M = np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2,
                           comments=None)
    except UserWarning:
        raise DataError(f"{path}: empty matrix file") from None
    except ValueError as exc:
        if _is_blank(path):
            raise DataError(f"{path}: empty matrix file") from None
        where = _first_bad_line(path, header) or f"malformed CSV ({exc})"
        raise DataError(f"{path}: {where}") from exc
    if not np.isfinite(M).all():
        raise DataError(f"{path}: {_first_bad_line(path, header)}")
    return M


def _parses(field: str) -> bool:
    """Whether numpy's parser reads ``field`` as one number (Python's
    float also takes ``1_000``, which numpy rejects)."""
    if not field.strip():  # loadtxt would skip it as a blank line
        return False
    try:
        return np.loadtxt([field], delimiter=",", comments=None, ndmin=1).size == 1
    except ValueError:
        return False


def _first_bad_line(path, header: bool):
    """The error message for the first line of a CSV file that numpy's
    parser rejects alone, whose width differs from the first data
    line's, or that holds a non-finite value; None when there is none.
    It re-reads the file line by line, so only the error path calls it."""
    first = width = None
    # undecodable bytes, which numpy's parser rejects, reach it as such
    with open(path, errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if header and line_no == 1 or not line.strip():
                continue
            try:
                row = np.loadtxt([line], delimiter=",", comments=None, ndmin=1)
            except ValueError:
                fields = line.rstrip("\r\n").split(",")
                col = next((c for c, f in enumerate(fields, 1) if not _parses(f)), 1)
                return (f"malformed CSV at line {line_no}, column {col}: "
                        f"{fields[col - 1].strip()!r} is not a number")
            if first is None:
                first, width = line_no, row.size
            elif row.size != width:
                return (f"malformed CSV at line {line_no}, column "
                        f"{min(row.size, width) + 1}: width {row.size}, but line "
                        f"{first} has width {width}")
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                return f"non-finite value {row[bad[0]]} at line {line_no}, column {bad[0] + 1}"
    return None


def _is_blank(path, chunk: int = 1 << 20) -> bool:
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            if block.strip():
                return False
    return True


def write_graph_json(path, shift: ShiftOperator) -> None:
    i, j, w = shift.edge_columns()
    write_records_json(path, {"n": shift.n, "kind": shift.kind.value,
                              "directed": shift.directed},
                       "edges", {"i": i, "j": j, "w": w})


def read_graph_json(path) -> ShiftOperator:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    try:
        kind = ShiftKind(payload.get("kind", "adjacency"))
        edges = [(e["i"], e["j"], e["w"]) for e in payload["edges"]]
        return build_shift(edges, int(payload["n"]), kind,
                           directed=bool(payload.get("directed", False)))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed graph object ({exc})") from exc


def read_shift_any(path) -> ShiftOperator:
    """Graph JSON or raw CSV matrix, by extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_graph_json(path)
    M = read_matrix_csv(path)
    sym = np.abs(M - M.T).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(M).max())
    return ShiftOperator(M, ShiftKind.GENERIC, directed=not sym)


def write_shift_any(path, shift: ShiftOperator) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        write_graph_json(path, shift)
    else:
        write_matrix_csv(path, shift.data)


def write_report_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


RECORDS_PER_WRITE = 4096


def write_records_json(path, head: dict, key: str, columns: dict) -> None:
    """Write ``{**head, key: records}`` byte for byte as
    :func:`write_report_json` would, with record r = {name: col[r]} over
    the equal-length 1-D arrays in ``columns`` (bool, integer or float).

    The records are formatted and written a block at a time, so neither
    they nor the text are ever held whole; json's pure-Python indenting
    encoder would hold both, and a test table has N(N-1)/2 records.
    """
    text = json.dumps({**head, key: []}, indent=1)
    m = len(next(iter(columns.values())))
    with open(path, "w") as fh:
        if m == 0:
            fh.write(text + "\n")
            return
        fh.write(text[:-len("]\n}")] + "\n")
        record = "  {\n" + ",\n".join(
            f"   {json.dumps(name).replace('%', '%%')}: %s" for name in columns) + "\n  }"
        for start in range(0, m, RECORDS_PER_WRITE):
            block = zip(*(_json_tokens(col[start:start + RECORDS_PER_WRITE])
                          for col in columns.values()))
            fh.write((",\n" if start else "") + ",\n".join(record % row for row in block))
        fh.write("\n ]\n}\n")


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_tokens(col) -> list:
    """json's spelling of each entry of a bool, integer or float array."""
    col = np.asarray(col)
    values = col.tolist()
    if col.dtype == bool:
        return [("false", "true")[v] for v in values]
    if col.dtype.kind in "iu":
        return list(map(int.__repr__, values))
    tokens = list(map(float.__repr__, values))
    for k in np.flatnonzero(~np.isfinite(col)).tolist():
        tokens[k] = _JSON_NON_FINITE[tokens[k]]
    return tokens
