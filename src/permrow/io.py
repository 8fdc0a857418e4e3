"""CSV ingestion and output.

Dialect is fixed: comma-separated, '.' decimal point, UTF-8, records ending
in LF, CRLF or CR.  Numeric payloads are written with 12 significant digits,
and sample ids are quoted where CSV requires it.

Both tables, the coverage matrix and the ``sampleId,group,value`` table, are
read record by record through one reader, ``_records``.  It raises the rules
the two share: an empty file, a record not as wide as the header, and a
sample id (first field) repeated by a later record.  Each loader keeps only
its own header width, cell parse and least number of rows or groups.

A coverage table is read in two stages.  A plain numeric file is mapped
read-only with ``mmap``, each row's id and value part are found, and
``np.loadtxt`` parses the parts in two blocks of rows: this process decodes
and parses the first half, and a child made with ``os.fork`` the second, into
a shared anonymous mmap that then holds the table.  The child touches only its
rows and their block of the mmap, and leaves with ``os._exit``; the parent
always waits for it.  Where there is no ``os.fork``, where other Python
threads run, or where SIGCHLD is ignored (the system would reap the child
before the wait), this process parses one block, as it does where the fork
fails.  The first stage declines only by raising ValueError or
OSError, and every file on which it raises goes to the exact loader: one
that cannot be mapped (empty, or a pipe), one that is not plain, bytes that
are not UTF-8, an error in either block, a child that a handler reaped, or a
result mapping the OS refuses.  R's ``write.csv`` output, which quotes labels
and ids, is one.
The exact loader streams the records of the same open handle and holds one
record at a time besides the rows parsed, so the error it raises is the first
in file order, and names the first bad cell of its row; the handle decodes
8192 bytes at a time, so a byte that is not UTF-8 is met when its block is.
All give the same ids, value bytes and error messages, because the exact
loader decides every message: loadtxt parses each number on its own with
``PyOS_string_to_double``, as ``float()`` does, and the first stage declines
the inputs on which the two differ.  Only a quoted record goes through
``csv.reader``, so only a quoted field is held to its limit of 131072
characters.  The file must not be truncated while it is read: touching a
mapped page past its end raises SIGBUS.
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
    """(row, fields) of the header and then of each data record of the CSV
    table in ``lines``, rows numbered by record from 1.

    ``lines`` come from a file opened with ``newline=""``.  A line without a
    quote is split at its commas, as ``csv.reader`` would split it; a quoted
    record goes through ``csv.reader``, which may continue it over the lines
    that follow.  Raises DimensionMismatch for an empty file or a data record
    not as wide as the header, and DuplicateSampleId for a data record whose
    first field, its sample id, an earlier one has.  A data record is read
    only once the caller has taken the header, which every caller requires
    to have 3 fields or more, so a record of the header's width has an id.
    """
    lines, width, ids = iter(lines), None, set()
    for row, line in enumerate(lines, start=1):
        if '"' not in line:
            line = line.rstrip("\r\n")
            record = line.split(",") if line else []
        else:
            try:
                record = next(csv.reader(itertools.chain([line], lines)))
            except csv.Error as exc:
                raise InputError(f"row {row}: {exc}") from None
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise DimensionMismatch(f"row {row} has {len(record)} fields, expected {width}")
        elif record[0] in ids:
            raise DuplicateSampleId(f"duplicate sample id {shown(record[0])} at row {row}")
        else:
            ids.add(record[0])
        yield row, record
    if width is None:
        raise DimensionMismatch("file is empty; a header row is required")


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
    half fails or the child does not exit 0, and ChildProcessError when a
    SIGCHLD handler reaped it first.  One block, in this process, where there
    is no ``os.fork``, where other Python threads run (a lock one of them
    holds would stay held in the child), where SIGCHLD is ignored (the system
    reaps the child, so it could not be waited for), or where the fork fails.
    """
    import signal  # here, not at module level: only a fork needs it

    fork = getattr(os, "fork", None)
    if fork is None or threading.active_count() > 1 \
            or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
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


def _load_plain_numeric(mapping: mmap.mmap) -> CoverageTable:
    """The table that ``np.loadtxt`` parses from a mapped file; ValueError
    where the file is not plain, or where the plain file does not parse.

    It is plain when it has no quote, no U+001C..U+001F and no CR but before
    LF, at least 2 positions and 2 rows, a comma on every row and distinct
    sample ids.  A plain file raises ValueError where it is not UTF-8, where
    a value part is blank or not p finite values, or where the child fails,
    and OSError where the wait or the result mapping does.  loadtxt rejects
    the underscores and non-ASCII digits that ``float()`` accepts, so those
    raise too; the caller reads every such file with the exact loader.
    """
    if any(mapping.find(mark) >= 0 for mark in _NOT_PLAIN):
        raise ValueError("a quote or an ASCII separator")
    if mapping.find(b"\r") >= 0 and re.search(rb"\r(?!\n)", mapping):
        raise ValueError("a CR not before LF")
    size, start = len(mapping), mapping.find(b"\n") + 1
    p = mapping[:start].decode("utf-8").count(",")
    ids, spans = [], []
    while 0 < start < size:
        end = mapping.find(b"\n", start)
        end = size if end < 0 else end
        comma = mapping.find(b",", start, end)
        if comma < 0:
            raise ValueError("a row with no comma")
        ids.append(mapping[start:comma].decode("utf-8"))
        spans.append((comma + 1, end))
        start = end + 1
    if p < 2 or len(ids) < 2 or len(set(ids)) < len(ids):
        raise ValueError("fewer than 2 positions or rows, or a repeated id")
    return CoverageTable(sample_ids=tuple(ids), values=_parse_split(mapping, spans, p))


def _load_exact(lines: Iterable[str]) -> CoverageTable:
    """The table in ``lines``, read one record at a time: the first bad
    record in file order raises."""
    records = _records(lines)
    _, header = next(records)
    if len(header) < 3:
        raise DimensionMismatch("need at least 2 position columns")
    rows = {record[0]: _parse_row(record[1:], i) for i, record in records}
    if len(rows) < 2:
        raise DimensionMismatch("need at least 2 sample rows")
    return CoverageTable(sample_ids=tuple(rows), values=np.stack(list(rows.values())))


def load_coverage_csv(path) -> CoverageTable:
    """Read a coverage table: header row, first column sample id, the rest
    positions.  Raises ParseError / DuplicateSampleId / DimensionMismatch,
    or InputError for a record that cannot be tokenized."""
    with open(path, "rb") as raw:
        try:
            with mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as mapping:
                return _load_plain_numeric(mapping)
        except (ValueError, OSError):  # not mappable, not plain, or failed
            pass
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
    """Read (sampleId, group, value) rows; returns groups in first-seen order.
    Raises ParseError / DuplicateSampleId / DimensionMismatch, or InputError
    for a record that cannot be tokenized."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = _records(fh)
        _, header = next(records)
        if len(header) != 3:
            raise DimensionMismatch("expected exactly 3 columns: sampleId,group,value")
        groups: dict[str, list[float]] = {}
        for i, record in records:
            groups.setdefault(record[1], []).append(_parse_cell(record[2], i, 3))
    if len(groups) < 2:
        raise DimensionMismatch("need at least 2 groups")
    return [(label, np.array(vals, dtype=float)) for label, vals in groups.items()]
