"""CSV ingestion and output.

Dialect is fixed: comma-separated, '.' decimal point, UTF-8, records ending
in LF, CRLF or CR.  Numeric payloads are written with 12 significant digits,
and sample ids are quoted where CSV requires it.

A coverage table is read in two stages.  A plain numeric file is parsed by
``np.loadtxt`` over the value parts of its rows, in two blocks of rows: this
process parses the first half, and a child made with ``os.fork`` parses the
second into a shared anonymous mmap, which then holds the table.  The child
reads only the rows of its half, writes only their block of the mmap, and
leaves with ``os._exit``; the parent always waits for it.  Where there is no
``os.fork``, where the fork fails, or where other Python threads run, one
block is parsed in this process.  Every other file, and every file with an
error in either block, goes to the exact loader, which converts one record
at a time so that an error names the first bad cell.  All give the same ids,
value bytes and error messages: loadtxt parses each number on its own with
``PyOS_string_to_double``, as ``float()`` does, and the first stage declines
the inputs on which the two differ.  Only a quoted
record goes through ``csv.reader``, so only a quoted field is held to its
limit of 131072 characters.
"""

from __future__ import annotations

import csv
import itertools
import math
import mmap
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateSampleId, InputError, ParseError
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


def _records(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(row, fields) of each CSV record in ``lines``, rows numbered from 1.

    ``lines`` come from a file opened with ``newline=""``.  A line without a
    quote is split at its commas, as ``csv.reader`` would split it; a quoted
    record goes through ``csv.reader``, which may continue it over the lines
    that follow.
    """
    lines = iter(lines)
    for row, line in enumerate(lines, start=1):
        if '"' not in line:
            line = line.rstrip("\r\n")
            yield row, line.split(",") if line else []
            continue
        try:
            record = next(csv.reader(itertools.chain([line], lines)))
        except csv.Error as exc:
            raise InputError(f"row {row}: {exc}") from None
        yield row, record


# float() rejects the ASCII separators U+001C..U+001F next to a number, and
# loadtxt strips them as whitespace.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _value_parts(lines: list[str], ids: list[str]) -> Iterator[str]:
    """Each line's value part, one at a time, so that they are never all held
    at once; ValueError at the first that is blank, on which loadtxt would
    warn of no data."""
    for sample_id, line in zip(ids, lines):
        rest = line[len(sample_id) + 1 :]
        if not rest or rest.isspace():
            raise ValueError("a row has no values")
        yield rest


def _parse_rows(lines: list[str], ids: list[str], p: int) -> np.ndarray:
    """The value parts of ``lines`` as a len(ids) x p array, in one
    ``np.loadtxt`` call; ValueError when they are not that."""
    rests = _value_parts(lines, ids)
    values = np.loadtxt(rests, delimiter=",", comments=None, dtype=float, ndmin=2)
    if values.shape != (len(ids), p):
        raise ValueError(f"shape {values.shape}, expected {(len(ids), p)}")
    return values


def _parse_split(lines: list[str], ids: list[str], p: int) -> np.ndarray:
    """``_parse_rows`` over all rows, the second half of them in a forked child.

    The child parses rows [h, n) into a shared anonymous mmap, which then
    holds the table, and leaves with ``os._exit``.  ValueError when either
    half fails or the child does not exit 0.  One block, in this process,
    where there is no ``os.fork``, where it fails, or where other Python
    threads run: a lock one of them holds would stay held in the child.
    """
    fork = getattr(os, "fork", None)
    if fork is None or threading.active_count() > 1:
        return _parse_rows(lines, ids, p)
    n, h = len(ids), len(ids) // 2
    values = np.frombuffer(mmap.mmap(-1, n * p * 8), dtype=float).reshape(n, p)
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork() warns in the parent, after the child
            # exists, when the process has other OS threads (BLAS starts
            # some).  Raised as an error, it would leave the child unreaped.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = fork()
    except OSError:
        return _parse_rows(lines, ids, p)
    if pid == 0:
        code = 1
        try:
            values[h:] = _parse_rows(lines[h:], ids[h:], p)
            code = 0
        finally:
            os._exit(code)
    try:
        values[:h] = _parse_rows(lines[:h], ids[:h], p)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ValueError(f"the child parsing rows {h}..{n - 1} ended with wait status {status}")
    return values


def _load_plain_numeric(lines: list[str]) -> CoverageTable | None:
    """The table parsed by ``np.loadtxt``, or None for the exact loader.

    A table needs no quote and no U+001C..U+001F, at least 2 positions and 2
    rows, a comma and a non-blank value part on every row, distinct sample
    ids, and p finite values on every row.  Any other input gives None, never
    an error.  loadtxt rejects the underscores and non-ASCII digits that
    ``float()`` accepts, so those files go to the exact loader too.
    """
    if len(lines) < 3 or any(mark in line for line in lines for mark in _NOT_PLAIN):
        return None
    p = lines[0].count(",")
    ids = []
    for line in lines[1:]:
        comma = line.find(",")
        if comma < 0:
            return None
        ids.append(line[:comma])
    if p < 2 or len(set(ids)) < len(ids):
        return None
    try:
        values = _parse_split(lines[1:], ids, p)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return CoverageTable(sample_ids=tuple(ids), values=values)


def _load_exact(lines: list[str]) -> CoverageTable:
    records = _records(lines)
    try:
        _, header = next(records)
    except StopIteration:
        raise DimensionMismatch("file is empty; a header row is required") from None
    p = len(header) - 1
    if p < 2:
        raise DimensionMismatch("need at least 2 position columns")
    ids: list[str] = []
    seen: set[str] = set()
    rows: list[np.ndarray] = []
    for i, record in records:
        if len(record) != p + 1:
            raise DimensionMismatch(f"row {i} has {len(record)} fields, expected {p + 1}")
        sample_id = record[0]
        if sample_id in seen:
            raise DuplicateSampleId(f"duplicate sample id {sample_id!r} at row {i}")
        seen.add(sample_id)
        ids.append(sample_id)
        rows.append(_parse_row(record[1:], i))
    if len(rows) < 2:
        raise DimensionMismatch("need at least 2 sample rows")
    return CoverageTable(sample_ids=tuple(ids), values=np.stack(rows))


def load_coverage_csv(path) -> CoverageTable:
    """Read a coverage table: header row, first column sample id, the rest
    positions.  Raises ParseError / DuplicateSampleId / DimensionMismatch,
    or InputError for a record that cannot be tokenized."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    table = _load_plain_numeric(lines)
    return _load_exact(lines) if table is None else table


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
        records = _records(fh)
        try:
            _, header = next(records)
        except StopIteration:
            raise DimensionMismatch("file is empty; a header row is required") from None
        if len(header) != 3:
            raise DimensionMismatch("expected exactly 3 columns: sampleId,group,value")
        groups: dict[str, list[float]] = {}
        for i, record in records:
            if len(record) != 3:
                raise DimensionMismatch(f"row {i} has {len(record)} fields, expected 3")
            groups.setdefault(record[1], []).append(_parse_cell(record[2], i, 3))
    if len(groups) < 2:
        raise DimensionMismatch("need at least 2 groups")
    return [(label, np.array(vals, dtype=float)) for label, vals in groups.items()]
