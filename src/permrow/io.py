"""CSV ingestion and output.

Dialect is fixed: comma-separated, '.' decimal point, UTF-8, records ending
in LF, CRLF or CR.  Numeric payloads are written with 12 significant digits,
and sample ids are quoted where CSV requires it.

A coverage table is read in two stages.  A plain numeric file is mapped
read-only with ``mmap``, each row's id and value part are found, and
``np.loadtxt`` parses the parts in two blocks of rows: this process decodes
and parses the first half, and a child made with ``os.fork`` the second, into
a shared anonymous mmap that then holds the table.  The child touches only its
rows and their block of the mmap, and leaves with ``os._exit``; the parent
always waits for it.  Where there is no ``os.fork``, where the fork fails, or
where other Python threads run, one block is parsed in this process.  Every
other file, every file with an error in either block, and a file that cannot
be mapped (empty, or a pipe) goes to the exact loader; R's ``write.csv``
output, which quotes labels and ids, is one.  It streams the records of the
same open handle and holds one record at a time besides the rows parsed, so
the error it raises is the first in file order, and names the first bad cell
of its row; the handle decodes 8192 bytes at a time, so a byte that is not
UTF-8 is met when its block is.  All give the same ids, value bytes and error
messages: loadtxt parses each number on its own with ``PyOS_string_to_double``,
as ``float()`` does, and the first stage declines the inputs on which the two
differ.  Only a quoted record goes through ``csv.reader``, so only a quoted
field is held to its limit of 131072 characters.  The file must not be
truncated while it is read: touching a mapped page past its end raises SIGBUS.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import mmap
import os
import re
import threading
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateSampleId, InputError, ParseError, shown
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
        raise ParseError(row, col, f"cannot parse {shown(cell)} as a number") from None
    if not math.isfinite(value):
        raise ParseError(row, col, f"non-finite value {shown(cell)}")
    return value


def _parse_row(cells: list[str], row: int) -> np.ndarray:
    """Convert one row's value cells in a single numpy call.

    numpy parses each string as ``float()`` does.  When a cell fails or is not
    finite, ``_parse_cell`` scans the cells again, one at a time, and names
    the first bad one.
    """
    try:
        values = np.array(cells, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_cell(c, row, j) for j, c in enumerate(cells, start=2)])


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
_NOT_PLAIN = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_rows(mapping: mmap.mmap, spans: list[tuple[int, int]], p: int) -> np.ndarray:
    """The value parts at ``spans`` as a finite len(spans) x p array, from one
    ``np.loadtxt`` call that decodes each only as it reads it; ValueError when
    they are not that, or at a blank part, on which loadtxt would warn."""

    def value_parts() -> Iterator[str]:
        for start, end in spans:
            rest = mapping[start:end].decode("utf-8")
            if not rest or rest.isspace():
                raise ValueError("a row has no values")
            yield rest

    values = np.loadtxt(value_parts(), delimiter=",", comments=None, dtype=float, ndmin=2)
    if values.shape != (len(spans), p) or not np.isfinite(values).all():
        raise ValueError(f"not a finite {len(spans)} x {p} table")
    return values


def _parse_split(mapping: mmap.mmap, spans: list[tuple[int, int]], p: int) -> np.ndarray:
    """``_parse_rows`` over all rows, the second half of them in a forked child.

    The child parses rows [h, n) into a shared anonymous mmap, which then
    holds the table, and leaves with ``os._exit``.  ValueError when either
    half fails or the child does not exit 0.  One block, in this process,
    where there is no ``os.fork``, where it fails, or where other Python
    threads run: a lock one of them holds would stay held in the child.
    """
    fork = getattr(os, "fork", None)
    if fork is None or threading.active_count() > 1:
        return _parse_rows(mapping, spans, p)
    n, h = len(spans), len(spans) // 2
    values = np.frombuffer(mmap.mmap(-1, n * p * 8), dtype=float).reshape(n, p)
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork() warns in the parent, after the child
            # exists, when the process has other OS threads (BLAS starts
            # some).  Raised as an error, it would leave the child unreaped.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = fork()
    except OSError:
        return _parse_rows(mapping, spans, p)
    if pid == 0:
        code = 1
        try:
            values[h:] = _parse_rows(mapping, spans[h:], p)
            code = 0
        finally:
            os._exit(code)
    try:
        values[:h] = _parse_rows(mapping, spans[:h], p)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise ValueError(f"the child parsing rows {h}..{n - 1} ended with wait status {status}")
    return values


def _load_plain_numeric(mapping: mmap.mmap) -> CoverageTable | None:
    """The table that ``np.loadtxt`` parses from a mapped file, or None.

    None, never an error, unless the file is UTF-8 with no quote, no
    U+001C..U+001F and no CR but before LF, has at least 2 positions and 2
    rows, a comma and a non-blank value part on every row, distinct sample
    ids, and p finite values on every row.  loadtxt rejects the underscores
    and non-ASCII digits that ``float()`` accepts, so those give None too.
    """
    if any(mapping.find(mark) >= 0 for mark in _NOT_PLAIN):
        return None
    if mapping.find(b"\r") >= 0 and re.search(rb"\r(?!\n)", mapping):
        return None
    size, start = len(mapping), mapping.find(b"\n") + 1
    ids, spans = [], []
    try:
        p = mapping[:start].decode("utf-8").count(",")
        while 0 < start < size:
            end = mapping.find(b"\n", start)
            end = size if end < 0 else end
            comma = mapping.find(b",", start, end)
            if comma < 0:
                return None
            ids.append(mapping[start:comma].decode("utf-8"))
            spans.append((comma + 1, end))
            start = end + 1
        if p < 2 or len(ids) < 2 or len(set(ids)) < len(ids):
            return None
        values = _parse_split(mapping, spans, p)
    except ValueError:  # UnicodeDecodeError among them
        return None
    return CoverageTable(sample_ids=tuple(ids), values=values)


def _load_exact(lines: Iterable[str]) -> CoverageTable:
    """The table in ``lines``, read one record at a time: the first bad
    record in file order raises."""
    records = _records(lines)
    try:
        _, header = next(records)
    except StopIteration:
        raise DimensionMismatch("file is empty; a header row is required") from None
    p = len(header) - 1
    if p < 2:
        raise DimensionMismatch("need at least 2 position columns")
    rows: dict[str, np.ndarray] = {}  # sample id -> values, in file order
    for i, record in records:
        if len(record) != p + 1:
            raise DimensionMismatch(f"row {i} has {len(record)} fields, expected {p + 1}")
        sample_id = record[0]
        if sample_id in rows:
            raise DuplicateSampleId(f"duplicate sample id {shown(sample_id)} at row {i}")
        rows[sample_id] = _parse_row(record[1:], i)
    if len(rows) < 2:
        raise DimensionMismatch("need at least 2 sample rows")
    return CoverageTable(sample_ids=tuple(rows), values=np.stack(list(rows.values())))


def load_coverage_csv(path) -> CoverageTable:
    """Read a coverage table: header row, first column sample id, the rest
    positions.  Raises ParseError / DuplicateSampleId / DimensionMismatch,
    or InputError for a record that cannot be tokenized."""
    with open(path, "rb") as raw:
        try:
            mapping = mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # an empty file, a pipe, a terminal
            table = None
        else:
            with mapping:
                table = _load_plain_numeric(mapping)
        if table is not None:
            return table
        # the same handle, still unread: opening a pipe again may wait forever
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            return _load_exact(fh)


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
    columns = [
        [""] * n if column is None else [f"{x:.12g}" for x in column.tolist()]
        for column in (estimates.theta_r, estimates.theta_l, estimates.range)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sampleId,thetaR,thetaL,range,method\n")
        fh.writelines(
            f"{_csv_field(sid)},{tr},{tl},{rg},{estimates.method.value}\n"
            for sid, tr, tl, rg in zip(sample_ids, *columns)
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
