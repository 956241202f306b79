"""File formats: CSV for signal/covariance matrices, JSON for graphs
and reports.

CSV is headerless by default, one row per vertex, values printed with
17 significant digits so a write/read round trip is bit exact. Graphs
are JSON objects {"n", "kind", "edges": [{"i", "j", "w"}]} with
zero-based indices; Laplacians store their nonnegative edge weights,
precision/generic shifts store raw entries including (i, i) diagonal
records.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .graphcore import ShiftKind, ShiftOperator, build_shift

FLOAT_FMT = "%.17g"


def write_matrix_csv(path, M) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt=FLOAT_FMT,
               delimiter=",")


def read_matrix_csv(path, header: bool = False) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        raise DataError(f"{path}: empty matrix file")
    lines = text.splitlines()
    if header:
        lines = lines[1:]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines if line]
    except ValueError as exc:
        raise DataError(f"{path}: malformed CSV ({exc})") from exc
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def write_graph_json(path, shift: ShiftOperator) -> None:
    payload = {
        "n": shift.n,
        "kind": shift.kind.value,
        "directed": shift.directed,
        "edges": [{"i": i, "j": j, "w": float(w)} for i, j, w in shift.edges()],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


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
