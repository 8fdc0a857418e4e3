"""CSV ingestion and output.

Dialect is fixed: comma-separated, '.' decimal point, UTF-8, LF line
endings.  Numeric payloads are written with 12 significant digits, and
sample ids are quoted where CSV requires it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateSampleId, ParseError
from .estimators import ExtremeEstimates


@dataclass(frozen=True)
class CoverageTable:
    """Sample ids plus the n x p (log-)coverage matrix."""

    sample_ids: tuple[str, ...]
    values: np.ndarray


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(row, col, f"cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(row, col, f"non-finite value {cell!r}")
    return value


def _parse_row(cells: list[str], row: int) -> np.ndarray:
    """Convert one row's value cells in a single numpy call.

    numpy parses each string as ``float()`` does; the per-cell scan runs
    only when that call fails, so that the error names the first bad cell.
    """
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return np.array([_parse_cell(c, row, j) for j, c in enumerate(cells, start=2)])
    nonfinite = ~np.isfinite(values)
    if nonfinite.any():
        j = int(nonfinite.argmax())
        raise ParseError(row, j + 2, f"non-finite value {cells[j]!r}")
    return values


def load_coverage_csv(path) -> CoverageTable:
    """Read a coverage table: header row, first column sample id, the rest
    positions.  Raises ParseError / DuplicateSampleId / DimensionMismatch."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch("file is empty; a header row is required") from None
        p = len(header) - 1
        if p < 2:
            raise DimensionMismatch("need at least 2 position columns")
        ids: list[str] = []
        seen: set[str] = set()
        rows: list[np.ndarray] = []
        for i, record in enumerate(reader, start=2):
            if len(record) != p + 1:
                raise DimensionMismatch(
                    f"row {i} has {len(record)} fields, expected {p + 1}"
                )
            sample_id = record[0]
            if sample_id in seen:
                raise DuplicateSampleId(f"duplicate sample id {sample_id!r} at row {i}")
            seen.add(sample_id)
            ids.append(sample_id)
            rows.append(_parse_row(record[1:], i))
    if len(rows) < 2:
        raise DimensionMismatch("need at least 2 sample rows")
    return CoverageTable(sample_ids=tuple(ids), values=np.stack(rows))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with quotes doubled, when it holds a
    comma, a quote or a line break.  csv.writer with a '\\n' line terminator
    would leave a lone '\\r' unquoted, and csv.reader would split the row there."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_estimates_csv(
    path, estimates: ExtremeEstimates, sample_ids: Sequence[str]
) -> None:
    """Write sampleId, thetaR, thetaL, range, method rows.

    Fields the method does not produce (e.g. thetaR for iRep) are left empty.
    """
    n = len(estimates.range)
    if len(sample_ids) != n:
        raise ValueError(f"{len(sample_ids)} sample ids for {n} estimates")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sampleId,thetaR,thetaL,range,method\n")
        for i, sid in enumerate(sample_ids):
            tr = None if estimates.theta_r is None else float(estimates.theta_r[i])
            tl = None if estimates.theta_l is None else float(estimates.theta_l[i])
            fh.write(
                f"{_csv_field(sid)},{_fmt(tr)},{_fmt(tl)},{_fmt(float(estimates.range[i]))},"
                f"{estimates.method.value}\n"
            )


def load_grouped_csv(path) -> list[tuple[str, np.ndarray]]:
    """Read (sampleId, group, value) rows; returns groups in first-seen order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch("file is empty; a header row is required") from None
        if len(header) != 3:
            raise DimensionMismatch("expected exactly 3 columns: sampleId,group,value")
        groups: dict[str, list[float]] = {}
        for i, record in enumerate(reader, start=2):
            if len(record) != 3:
                raise DimensionMismatch(f"row {i} has {len(record)} fields, expected 3")
            groups.setdefault(record[1], []).append(_parse_cell(record[2], i, 3))
    if len(groups) < 2:
        raise DimensionMismatch("need at least 2 groups")
    return [(label, np.array(vals, dtype=float)) for label, vals in groups.items()]
