import contextlib
import csv
import io
import json
import math
import os
import signal
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import permrow.io as permrow_io
from oracles import load_coverage_csv_per_cell
from strategies import NUMBERS
from permrow import (
    DimensionMismatch,
    DuplicateSampleId,
    EstimatorMethod,
    NonFiniteEstimate,
    ParseError,
    direct_sorting_extremes,
    irep_extremes,
    load_coverage_csv,
    order_statistic_extremes,
    regression_extremes,
    spectral_extremes,
    write_estimates_csv,
)
from permrow.cli import build_parser, entrypoint, main
from permrow.errors import cut, shown
from permrow.io import load_grouped_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


COVERAGE = "sample,c1,c2,c3\ns1,-1,0,1\ns2,-2,0,2\n"


class TestLoadCoverage:
    def test_round_trip_shape(self, tmp_path):
        table = load_coverage_csv(write(tmp_path / "c.csv", COVERAGE))
        assert table.sample_ids == ("s1", "s2")
        assert table.values.shape == (2, 3)
        np.testing.assert_array_equal(table.values, [[-1, 0, 1], [-2, 0, 2]])

    def test_na_cell_named(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,NA\ns2,2,3\n"
        with pytest.raises(ParseError) as err:
            load_coverage_csv(write(tmp_path / "c.csv", bad))
        assert err.value.row == 2 and err.value.col == 3

    def test_duplicate_sample_id(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,2\ns1,3,4\n"
        with pytest.raises(DuplicateSampleId, match="at row 3"):
            load_coverage_csv(write(tmp_path / "c.csv", bad))

    def test_ragged_row(self, tmp_path):
        bad = "sample,c1,c2\ns1,1,2\ns2,3\n"
        with pytest.raises(DimensionMismatch):
            load_coverage_csv(write(tmp_path / "c.csv", bad))

    def test_too_small(self, tmp_path):
        with pytest.raises(DimensionMismatch):
            load_coverage_csv(write(tmp_path / "c.csv", "sample,c1,c2\ns1,1,2\n"))


def one_cell(cell):
    return f"sample,c1,c2\ns1,{cell},2\ns2,3,4\n"


PARITY_CORPUS = {
    "underscore": one_cell("1_000"),
    "whitespace": one_cell(" 1.5 "),
    "arabic-indic-digit": one_cell("\u0663"),
    "quoted-number": one_cell('"2.5"'),
    "negative-zero": one_cell("-0.0"),
    "nan": one_cell("nan"),
    "minus-infinity": one_cell("-Infinity"),
    "overflow-to-inf": one_cell("1e500"),
    "hex": one_cell("0x10"),
    "dangling-exponent": one_cell("1e"),
    "empty-cell": one_cell(""),
    "abc-after-inf": "sample,c1,c2,c3\ns1,1,2,3\ns2,inf,abc,1\n",
    "abc-before-inf": "sample,c1,c2,c3\ns1,1,2,3\ns2,abc,inf,1\n",
    "bad-cell-then-ragged-row": "sample,c1,c2\ns1,1,2\ns2,1,x\ns3,1\n",
    "blank-line": "sample,c1,c2\ns1,1,2\n\ns2,3,4\n",
    "crlf": "sample,c1,c2\r\ns1,1.25,2\r\ns2,3,-4e-3\r\n",
    # a message shows the first 100 bytes of a long repr, in whole characters
    "long-bad-cell": one_cell("1" * 150 + "x"),
    "long-duplicate-id": "sample,c1,c2\n{0},1,2\n{0},3,4\n".format("s" * 150),
    "long-4-byte-bad-cell": one_cell("\U0001F600" * 30 + "x"),
    "long-4-byte-duplicate-id": "sample,c1,c2\n{0},1,2\n{0},3,4\n".format("\U0001F600" * 30),
}
# Bytes that are not UTF-8 raise UnicodeDecodeError wherever they are; a BOM
# stays in the first header field.  A CR ends a record unless an LF follows.
ENCODING_CORPUS = {
    "invalid-byte-in-header": b"sample,c\xff1,c2\ns1,1,2\ns2,3,4\n",
    "invalid-byte-in-id": b"sample,c1,c2\ns\xff1,1,2\ns2,3,4\n",
    "invalid-byte-in-parent-half": b"sample,c1,c2\ns1,1,2\xff\ns2,3,4\n",
    "invalid-byte-in-child-half": b"sample,c1,c2\ns1,1,2\ns2,3,\xff4\n",
    "bom": b"\xef\xbb\xbfsample,c1,c2\ns1,1,2\ns2,3,4\n",
    "lone-cr": b"sample,c1,c2\rs1,1,2\rs2,3,4\r",
    "cr-inside-header": b"sample,c1,c2\rs0,1\ns1,1,2,3\ns2,4,5,6\n",
    "cr-inside-id": b"sample,c1,c2\ns1\r,1,2\ns2,3,4\n",
    "cr-inside-value": b"sample,c1,c2\ns1,1\r5,2\ns2,3,4\n",
    "final-row-ends-in-cr": b"sample,c1,c2\r\ns1,1,2\r\ns2,3,4\r",
}
PARITY_BYTES = {**{key: text.encode("utf-8") for key, text in PARITY_CORPUS.items()},
                **ENCODING_CORPUS}


def load_outcome(loader, path):
    """Ids and value bytes of a load, or the exception class and message."""
    try:
        table = loader(path)
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)
    return table.sample_ids, table.values.shape, table.values.tobytes()


class TestLoaderParity:
    """The row-at-a-time loader matches the per-cell reference loader."""

    @pytest.mark.parametrize("data", PARITY_BYTES.values(), ids=PARITY_BYTES.keys())
    def test_same_outcome_as_per_cell_loader(self, tmp_path, data):
        path = tmp_path / "c.csv"
        path.write_bytes(data)
        got = load_outcome(load_coverage_csv, path)
        assert got == load_outcome(load_coverage_csv_per_cell, path)

    def test_error_names_first_bad_cell(self, tmp_path):
        for text, col, reason in (
            (PARITY_CORPUS["abc-after-inf"], 2, "non-finite value 'inf'"),
            (PARITY_CORPUS["abc-before-inf"], 2, "cannot parse 'abc' as a number"),
        ):
            with pytest.raises(ParseError) as err:
                load_coverage_csv(write(tmp_path / "c.csv", text))
            assert (err.value.row, err.value.col, err.value.reason) == (3, col, reason)

    @pytest.mark.parametrize("key", [key for key in ENCODING_CORPUS if "invalid" in key])
    def test_invalid_utf8_one_line_exit_2(self, tmp_path, capsys, key):
        path = tmp_path / "in.csv"
        path.write_bytes(ENCODING_CORPUS[key])
        with pytest.raises(UnicodeDecodeError):
            load_coverage_csv(path)
        assert main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("permrow: error: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o.csv").exists()

    # TextIOWrapper decodes 8192 bytes at a time: a byte that is not UTF-8
    # past the first chunk is met only after the rows before it
    LATE_BAD_BYTE = b"".join(b"s%d,1,2\n" % k for k in range(2, 2000)) + b"s,1,\xff\n"

    def test_bad_cell_before_a_late_bad_byte(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"sample,c1,c2\ns1,abc,2\n" + self.LATE_BAD_BYTE)
        assert path.stat().st_size > 2 * 8192
        message = "row 2, column 2: cannot parse 'abc' as a number"
        assert load_outcome(load_coverage_csv, path) == (ParseError, message)
        assert load_outcome(load_coverage_csv_per_cell, path) == (ParseError, message)
        assert main(["estimate", "--input", str(path), "--output", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"permrow: error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_compare_bad_cell_before_a_late_bad_byte(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"sampleId,group,value\na,A,abc\n" + self.LATE_BAD_BYTE)
        assert main(["compare", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "permrow: error: row 2, column 3: cannot parse 'abc' as a number\n"
        )


def spy_exact(monkeypatch):
    """How many lines each handle that the exact loader is called with holds,
    as a growing list: the lines it consumed plus any it left unread.  The
    loader must be given an iterator, never a list of the file's lines."""
    exact = permrow_io._load_exact
    calls = []

    def spy(lines):
        assert iter(lines) is lines
        consumed = []

        def counted():
            for line in lines:
                consumed.append(line)
                yield line

        try:
            return exact(counted())
        finally:
            calls.append(len(consumed) + sum(1 for _ in lines))

    monkeypatch.setattr(permrow_io, "_load_exact", spy)
    return calls


class TestUnmappedInput:
    """A file that cannot be mapped goes to the exact loader through the
    handle it was opened with."""

    def test_empty_file(self, tmp_path, monkeypatch):
        calls = spy_exact(monkeypatch)
        with pytest.raises(DimensionMismatch) as err:
            load_coverage_csv(write(tmp_path / "c.csv", ""))
        assert str(err.value) == "file is empty; a header row is required"
        assert calls == [0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_opened_once(self, tmp_path, monkeypatch):
        data = split_text(5, 4).encode("utf-8")
        regular, fifo = tmp_path / "c.csv", tmp_path / "pipe.csv"
        regular.write_bytes(data)
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(permrow_io, "open", counting_open, raising=False)
        calls = spy_exact(monkeypatch)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            got = load_outcome(load_coverage_csv, fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive() and calls == [6] and opened == [fifo]
        assert got == load_outcome(load_coverage_csv_per_cell, regular)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.25e}".format),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(-1e3, 1e3).map(" {!r}\x0c".format),
)
# csv.reader rejects NUL before Python 3.11
NUL = "\x00" if sys.version_info >= (3, 11) else ""
# Characters on which csv.reader, float() and loadtxt disagree, or that change
# a record's shape.
FUZZ_CHARS = '0123456789.-e"_# ,\r\n\x0c\x1c٣' + NUL
# Padding around a number: float() strips the first two and the non-ASCII
# ones, and rejects the separators U+001C..U+001F, which loadtxt strips.
# Both reject NUL.
PADS = " \x0c\x1c\x1d\x1e\x1f\x85\u2003" + NUL
ODD_CELLS = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e500", "1_000", "٣", '"1"', '"a,b"',
                     '"1\n2"', "#1", ""]),
    st.text(alphabet=FUZZ_CHARS, max_size=4),
    st.tuples(st.sampled_from(PADS), NUMBER_CELLS, st.sampled_from(["", *PADS])).map("".join),
)
ODD_IDS = st.sampled_from(["s0", "s1", "", '"s0"', '"s,0"', "s\x1c", "s٣", f"s{NUL}"])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.integers(1, 4),
    defects=st.lists(
        st.sampled_from(["cell", "cell", "id", "ragged", "trailing-comma", "blank-line"]),
        max_size=2,
    ),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    data=st.data(),
)
def test_loader_parity_fuzz(n, p, defects, ending, data):
    """Same ids and value bytes as the per-cell loader, or the same error, and
    no warning, on numeric tables with up to two defects, whichever of the
    two stages reads the file."""
    rows = [[f"s{k}", *data.draw(st.lists(NUMBER_CELLS, min_size=p, max_size=p))]
            for k in range(n)]
    for defect in defects if rows else ():
        row = rows[data.draw(st.integers(0, n - 1))]
        if defect == "cell":
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(ODD_CELLS)
        elif defect == "id":
            row[0] = data.draw(ODD_IDS)
        elif defect == "ragged":
            row.pop()
        elif defect == "trailing-comma":
            row.append("")
    lines = [",".join(["sample", *(f"c{j}" for j in range(p))]), *map(",".join, rows)]
    if "blank-line" in defects:
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    text = ending.join(lines) + data.draw(st.sampled_from([ending, ""]))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        got = load_outcome(load_coverage_csv, path)
        event("table" if isinstance(got[0], tuple) else got[0].__name__)
        assert got == load_outcome(load_coverage_csv_per_cell, path)


# (rows below the header "sample,c1,c2", whether the loadtxt stage reads them)
FAST_PATH_CASES = {
    "plain": (["s1,1,2", "s2,3,-4e-3"], True),
    "crlf-and-padding": (["s1, 1 ,2\r", "s2,3,\x0c4\r"], True),
    "quoted-id": (['"s1",1,2', "s2,3,4"], False),
    "info-separator": (["s1,1\x1c,2", "s2,3,4"], False),
    "blank-line": (["s1,1,2", "", "s2,3,4"], False),
    "blank-value-part": (["s1,1,2", "s2, "], False),
    "cr-inside-value": (["s1,1\r,2", "s2,3,4"], False),
    "all-value-parts-blank": (["s1,", "s2,"], False),
    "one-row": (["s1,1,2"], False),
    "repeated-id": (["s1,1,2", "s1,3,4"], False),
    "underscore": (["s1,1_000,2", "s2,3,4"], False),
    "arabic-indic-digit": (["s1,٣,2", "s2,3,4"], False),
    "unparseable": (["s1,abc,2", "s2,3,4"], False),
    "ragged": (["s1,1,2", "s2,3"], False),
    "short-rows": (["s1,1", "s2,3"], False),
    "non-finite": (["s1,1,2", "s2,3,1e500"], False),
}


@pytest.mark.parametrize("rows, fast", FAST_PATH_CASES.values(), ids=FAST_PATH_CASES.keys())
def test_fast_path_taken_or_declined(tmp_path, monkeypatch, rows, fast):
    """The mapped stage reads exactly the plain numeric tables; on the rest
    the exact loader gets the file's lines and gives the per-cell loader's
    outcome.  Warnings are errors: loadtxt would warn "input contained no
    data" on all-blank value parts."""
    calls = spy_exact(monkeypatch)
    path = tmp_path / "c.csv"
    text = "sample,c1,c2\n" + "".join(f"{row}\n" for row in rows)
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(load_coverage_csv, path)
    assert calls == ([] if fast else [len(io.StringIO(text, newline="").readlines())])
    assert got == load_outcome(load_coverage_csv_per_cell, path)


LONG_NUMBER = "1." + "0" * 139998  # 140000 characters, above csv's field limit


@pytest.mark.parametrize("other_id", ["s2", '"s2"'], ids=["loadtxt-stage", "exact-loader"])
def test_long_unquoted_cell_parses(tmp_path, other_id):
    """csv.reader rejects a field over 131072 characters; an unquoted record
    never goes through it.  A quoted id elsewhere sends the file to the exact
    loader."""
    text = f"sample,c1,c2\ns1,{LONG_NUMBER},2\n{other_id},3,4\n"
    table = load_coverage_csv(write(tmp_path / "c.csv", text))
    assert table.sample_ids == ("s1", "s2")
    np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, 4.0]])
    groups = load_grouped_csv(
        write(tmp_path / "g.csv", f"sampleId,group,value\na,A,{LONG_NUMBER}\nb,B,2\n")
    )
    assert [(label, values.tolist()) for label, values in groups] == [("A", [1.0]), ("B", [2.0])]


def split_text(n, p, seed=0):
    """A plain numeric n x p table whose cells print with 17 digits."""
    values = np.random.default_rng(seed).normal(scale=1e3, size=(n, p))
    header = "sample," + ",".join(f"c{j}" for j in range(p)) + "\n"
    return header + "".join(f"s{i}," + ",".join(map(repr, row.tolist())) + "\n"
                            for i, row in enumerate(values))


class TestSplitParse:
    """The mapped stage parses the second half of the rows in a forked child,
    which decodes them from the mapping.  Its outcome is the one-block
    parse's, and no child outlives a load."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children os.fork made, as the parent saw them."""
        pids = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def one_block(path, monkeypatch):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            return load_outcome(load_coverage_csv, path)

    @pytest.mark.parametrize("n, p", [(2, 3), (3, 3), (4, 3), (5, 3), (2000, 50)])
    def test_same_table_as_one_block(self, tmp_path, monkeypatch, forks, n, p):
        path = write(tmp_path / "c.csv", split_text(n, p))
        got = load_outcome(load_coverage_csv, path)
        assert len(forks) == 1
        assert got == self.one_block(path, monkeypatch)
        assert got[:2] == (tuple(f"s{i}" for i in range(n)), (n, p))

    # n = 4: the parent parses file rows 2 and 3, the child rows 4 and 5
    @pytest.mark.parametrize("row", [3, 5], ids=["parent-half", "child-half"])
    @pytest.mark.parametrize(
        "defect, error, message",
        [
            ("abc", ParseError, "row {row}, column 3: cannot parse 'abc' as a number"),
            ("inf", ParseError, "row {row}, column 3: non-finite value 'inf'"),
            ("1e500", ParseError, "row {row}, column 3: non-finite value '1e500'"),
            (None, DimensionMismatch, "row {row} has 3 fields, expected 4"),
        ],
        ids=["bad-cell", "non-finite", "overflow", "short-row"],
    )
    def test_error_in_either_half(self, tmp_path, forks, row, defect, error, message):
        lines = split_text(4, 3).splitlines(keepends=True)
        cells = lines[row - 1].rstrip("\n").split(",")
        if defect is None:
            del cells[-1]
        else:
            cells[2] = defect
        lines[row - 1] = ",".join(cells) + "\n"
        with pytest.raises(error) as err:
            load_coverage_csv(write(tmp_path / "c.csv", "".join(lines)))
        assert str(err.value) == message.format(row=row)
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "n, rows",
        [(2, [2]), (2, [3]), (4, [2, 3]), (4, [4, 5])],
        ids=["n2-parent-half", "n2-child-half", "n4-parent-half", "n4-child-half"],
    )
    def test_half_of_one_value_rows(self, tmp_path, forks, n, rows):
        """A half whose rows hold one value each parses as a block that numpy
        would broadcast into the table; the shape check declines it."""
        lines = split_text(n, 3).splitlines(keepends=True)
        for row in rows:
            lines[row - 1] = ",".join(lines[row - 1].split(",")[:2]) + "\n"
        with pytest.raises(DimensionMismatch) as err:
            load_coverage_csv(write(tmp_path / "c.csv", "".join(lines)))
        assert str(err.value) == f"row {rows[0]} has 2 fields, expected 4"
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "rows, rest",
        [([3], " \t "), ([5], " "), ([2, 3], ""), ([4, 5], "")],
        ids=["parent-half", "child-half", "parent-half-blank", "child-half-blank"],
    )
    def test_blank_value_part_in_either_half(self, tmp_path, forks, rows, rest):
        """A row with no values fails its block before loadtxt sees it, so no
        all-blank block makes loadtxt warn of no data."""
        lines = split_text(4, 3).splitlines(keepends=True)
        for row in rows:
            lines[row - 1] = lines[row - 1].split(",")[0] + "," + rest + "\n"
        path = write(tmp_path / "c.csv", "".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch) as err:
                load_coverage_csv(path)
        assert str(err.value) == f"row {rows[0]} has 2 fields, expected 4"
        assert len(forks) == 1

    def test_fork_fails_or_is_missing(self, tmp_path, monkeypatch):
        path = write(tmp_path / "c.csv", split_text(5, 4))
        want = self.one_block(path, monkeypatch)

        def failing_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", failing_fork)
        assert load_outcome(load_coverage_csv, path) == want

    def test_other_threads_give_one_block(self, tmp_path, monkeypatch, forks):
        path = write(tmp_path / "c.csv", split_text(5, 4))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = load_outcome(load_coverage_csv, path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and forks == []
        assert got == self.one_block(path, monkeypatch)

    def test_fork_warning_in_the_parent_is_not_raised(self, tmp_path, monkeypatch, forks):
        """From Python 3.12 fork() warns in the parent, after the child exists,
        when the process has other OS threads; as an error it would leave the
        child unreaped."""
        path = write(tmp_path / "c.csv", split_text(5, 4))
        counting_fork = os.fork

        def warning_fork():
            pid = counting_fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead "
                              "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_outcome(load_coverage_csv, path)
        assert len(forks) == 1
        assert got == self.one_block(path, monkeypatch)

    def test_child_killed_goes_to_the_exact_loader(self, tmp_path, monkeypatch, forks):
        path = write(tmp_path / "c.csv", split_text(5, 4))
        want = self.one_block(path, monkeypatch)
        counting_fork = os.fork

        def dying_fork():
            pid = counting_fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        monkeypatch.setattr(os, "fork", dying_fork)
        calls = spy_exact(monkeypatch)
        assert load_outcome(load_coverage_csv, path) == want
        assert len(forks) == 1 and calls == [6]


LONG_QUOTED = '"' + "1" * 200000 + '"'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["estimate"], f"sample,c1,c2\ns1,1,2\ns2,{LONG_QUOTED},4\n"),
        (["compare"], f"sampleId,group,value\na,A,1\nb,B,{LONG_QUOTED}\n"),
    ],
    ids=["estimate", "compare"],
)
def test_csv_error_one_line_exit_2(tmp_path, capsys, argv, text):
    """A quoted field over csv's length limit names its row."""
    argv = [*argv, "--input", write(tmp_path / "in.csv", text)]
    if argv[0] == "estimate":
        argv += ["--output", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "permrow: error: row 3: field larger than field limit (131072)\n"
    )


def r_style_csv(values):
    """``values`` as R's write.csv writes a table: labels and ids quoted."""
    header = ",".join(['""', *(f'"c{j}"' for j in range(values.shape[1]))])
    rows = (",".join([f'"s{i}"', *map(repr, row)]) for i, row in enumerate(values.tolist()))
    return "\n".join([header, *rows]) + "\n"


def test_exact_loader_holds_one_record_at_a_time(tmp_path):
    """A quoted table goes to the exact loader, which holds the rows it has
    parsed and the record it is reading, not the whole file as text."""
    want = np.random.default_rng(7).normal(size=(100, 2000))
    path = write(tmp_path / "c.csv", r_style_csv(want))
    tracemalloc.start()
    try:
        table = load_coverage_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.sample_ids == tuple(f"s{i}" for i in range(100))
    assert table.values.tobytes() == want.tobytes()
    assert peak < 2.5 * table.values.nbytes, peak / table.values.nbytes


LONG = "x" * 10**6
EMOJI = "\U0001F600"  # four bytes in UTF-8


class TestLongValueEchoed:
    """A message echoes at most the first 100 bytes of a value's repr, in
    whole characters, so a huge value still gives one short stderr line."""

    def test_shown(self):
        assert shown("abc") == "'abc'"
        assert shown("y" * 98) == repr("y" * 98)
        assert shown("y" * 99) == "'" + "y" * 99 + "… (101 characters)"
        assert shown(LONG) == "'" + "x" * 99 + "… (1000002 characters)"
        assert shown([1] * 50) == "[" + "1, " * 33 + "… (150 characters)"
        assert cut("y" * 100) == "y" * 100
        assert cut("y" * 201, 200) == "y" * 200 + "… (201 characters)"

    def test_cut_counts_bytes(self):
        assert cut(EMOJI * 25) == EMOJI * 25
        assert cut(EMOJI * 26) == EMOJI * 25 + "… (26 characters)"
        assert cut("y" * 98 + EMOJI) == "y" * 98 + "… (99 characters)"
        assert cut("é" * 50) == "é" * 50
        assert cut("é" * 51) == "é" * 50 + "… (51 characters)"
        # stderr writes a lone surrogate as a six-byte backslash escape
        assert cut("\ud800" * 17) == "\ud800" * 16 + "… (17 characters)"
        assert shown(EMOJI * 10**6) == "'" + EMOJI * 24 + "… (1000002 characters)"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["simulate"], json.dumps({"kind": "S1", "n": 5, "p": 10, "alpha": EMOJI * 10**6}),
             f"alpha must be a number, got {shown(EMOJI * 10**6)}"),
            (["estimate"], "sample,c1,c2\n{0},1,2\n{0},3,4\n".format(EMOJI * 200000),
             f"duplicate sample id {shown(EMOJI * 200000)} at row 3"),
        ],
        ids=["scenario-alpha", "duplicate-ids"],
    )
    def test_four_byte_characters(self, tmp_path, capsys, argv, text, message):
        path = write(tmp_path / "in.txt", text)
        if argv[0] == "simulate":
            argv += ["--config", path, "--reps", "1", "--seed", "1"]
        else:
            argv += ["--input", path]
        code = main([*argv, "--output", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert err == f"permrow: error: {message}\n"
        assert code == 2
        assert_cli_outcome(code, err)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["estimate"], f"sample,c1,c2\ns1,{LONG},2\ns2,3,4\n",
             "row 2, column 2: cannot parse 'xxx"),
            (["estimate"], f"sample,c1,c2\n{LONG},1,2\n{LONG},3,4\n",
             "duplicate sample id 'xxx"),
            (["compare"], f"sampleId,group,value\na,A,1\nb,B,{LONG}\n",
             "row 3, column 3: cannot parse 'xxx"),
        ],
        ids=["coverage-cell", "duplicate-ids", "compare-value"],
    )
    def test_input_csv(self, tmp_path, capsys, argv, text, message):
        argv = [*argv, "--input", write(tmp_path / "in.csv", text)]
        if argv[0] == "estimate":
            argv += ["--output", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"permrow: error: {message}") and err.count("\n") == 1
        assert "… (1000002 characters)" in err and len(err.encode("utf-8")) < 300
        assert not (tmp_path / "o.csv").exists()

    def test_scenario_config(self, tmp_path, capsys):
        config = {"kind": "S1", "n": 5, "p": 10, "alpha": LONG}
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        code = main(["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"permrow: error: alpha must be a number, got {shown(LONG)}\n"
        )
        assert len(err.encode("utf-8")) < 300
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "config, estimators, message",
        [
            ({"kind": "S1", "n": 5, "p": 10, LONG: 1}, "os",
             f"unknown scenario config keys: {cut(LONG)}"),
            ({"kind": "S1", "n": 5, "p": 10}, LONG, f"unknown estimators: {shown([LONG])}"),
        ],
        ids=["config-key", "estimator"],
    )
    def test_simulate_names(self, tmp_path, capsys, config, estimators, message):
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        code = main(["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
                     "--output", str(tmp_path / "o.csv"), "--estimators", estimators])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"permrow: error: {message}\n"
        assert "… (1000" in err and len(err.encode("utf-8")) < 300
        assert not (tmp_path / "o.csv").exists()

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", "i.csv", "--output", "o.csv", "--method", LONG])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("permrow: error: argument --method: invalid choice: 'xxx")
        assert err.endswith(" characters)\n") and err.count("\n") == 1
        assert len(err.encode("utf-8")) < 300

    @pytest.mark.parametrize("width", [200, 201])
    def test_usage_message_cut_past_200_characters(self, capsys, width):
        with pytest.raises(SystemExit):
            build_parser().error("y" * width)
        assert capsys.readouterr().err == f"permrow: error: {cut('y' * width, 200)}\n"

    @pytest.mark.parametrize("name", ["missing.csv", "x" * 10**5], ids=["short", "long"])
    def test_os_error_path(self, tmp_path, capsys, monkeypatch, name):
        """The path of an OSError is echoed through ``shown``: a short one
        keeps the bytes of ``str(exc)``, a long one is cut."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as raised:
            open(name, encoding="utf-8")
        assert main(["estimate", "--input", name, "--output", "o.csv"]) == 2
        err = capsys.readouterr().err
        exc = raised.value
        assert err == f"permrow: error: [Errno {exc.errno}] {exc.strerror}: {shown(name)}\n"
        if len(name) < 100:
            assert err == f"permrow: error: {exc}\n"
        assert len(err.encode("utf-8")) < 300
        assert not (tmp_path / "o.csv").exists()


AWKWARD_IDS = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\r\n \t\x00\u0663'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(AWKWARD_IDS, min_size=2, max_size=5, unique=True),
    p=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_write_load_round_trip(ids, p, data):
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p)
    values = np.array(data.draw(st.lists(row, min_size=len(ids), max_size=len(ids))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # "\r\n" rows, so a lone "\r" is quoted
            writer.writerow(["sample", *(f"c{j}" for j in range(p))])
            writer.writerows([sid, *map(repr, row.tolist())] for sid, row in zip(ids, values))
        table = load_coverage_csv(path)
        assert table.sample_ids == tuple(ids)
        assert table.values.tobytes() == values.tobytes()

        with np.errstate(over="ignore"):
            spans = values.max(axis=1) - values.min(axis=1)
        if not np.isfinite(spans).all():
            # a row's max - min passes the float range (values near +-1.7e308)
            with pytest.raises(NonFiniteEstimate):
                order_statistic_extremes(table.values)
            return
        out = Path(tmp) / "est.csv"
        write_estimates_csv(out, order_statistic_extremes(table.values), table.sample_ids)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 5 for row in rows)


class TestWriteEstimates:
    def test_round_trip(self, tmp_path):
        table = load_coverage_csv(write(tmp_path / "in.csv", COVERAGE))
        est = spectral_extremes(table.values)
        out = tmp_path / "out.csv"
        write_estimates_csv(out, est, table.sample_ids)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sampleId,thetaR,thetaL,range,method"
        for i, line in enumerate(lines[1:]):
            sid, tr, tl, rg, method = line.split(",")
            assert sid == table.sample_ids[i]
            assert math.isclose(float(tr), est.theta_r[i], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(float(tl), est.theta_l[i], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(float(rg), est.range[i], rel_tol=1e-12, abs_tol=1e-12)
            assert method == "spectral"
            # internal consistency survives the round trip
            assert math.isclose(float(rg), float(tr) - float(tl), abs_tol=1e-10)
        # every method, and ids that need quoting: each line's exact bytes
        ids = ("plain", "a,b", 'say "hi"', "two\nlines", "cr\rid")
        quoted = ("plain", '"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\rid"')
        values = np.random.default_rng(5).normal(size=(5, 10)) + np.linspace(0, 3, 10)
        for estimate in (spectral_extremes, regression_extremes, direct_sorting_extremes,
                         order_statistic_extremes, irep_extremes):
            est = estimate(values)
            write_estimates_csv(out, est, ids)
            # irep leaves thetaR and thetaL empty
            assert (est.theta_r is None) == (est.method is EstimatorMethod.IREP)
            assert (est.theta_l is None) == (est.method is EstimatorMethod.IREP)
            columns = (est.theta_r, est.theta_l, est.range)
            expected = "sampleId,thetaR,thetaL,range,method\n" + "".join(
                ",".join([
                    quoted[i],
                    *("" if c is None else f"{float(c[i]):.12g}" for c in columns),
                    est.method.value,
                ]) + "\n"
                for i in range(5)
            )
            assert out.read_bytes() == expected.encode("utf-8")

    def test_fewer_ids_than_estimates(self, tmp_path):
        est = order_statistic_extremes(np.array([[1.0, 2.0], [3.0, 5.0]]))
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError) as exc:
            write_estimates_csv(out, est, ["s1"])
        assert str(exc.value) == "1 sample ids for 2 estimates"
        assert not out.exists()


class TestCliEstimate:
    def run_estimate(self, tmp_path, *extra):
        inp = write(tmp_path / "in.csv", COVERAGE)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", inp, "--output", str(out), *extra])
        return code, out

    def test_spectral_default(self, tmp_path):
        code, out = self.run_estimate(tmp_path)
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        values = [row.split(",") for row in rows]
        assert float(values[0][1]) == pytest.approx(1.0, abs=1e-9)
        assert float(values[1][3]) == pytest.approx(4.0, abs=1e-9)

    def test_every_method_runs(self, tmp_path):
        for method in ("spectral", "regression", "ds", "os"):
            code, out = self.run_estimate(tmp_path, "--method", method)
            assert code == 0
        code, out = self.run_estimate(tmp_path, "--method", "irep")
        assert code == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[1] == "" and row[2] == ""
        assert float(row[3]) == pytest.approx(2.0)

    def test_exp_scale(self, tmp_path):
        code, out = self.run_estimate(tmp_path, "--exp")
        assert code == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(math.exp(2.0), rel=1e-9)

    def test_awkward_ids_round_trip(self, tmp_path):
        ids = ["a,b", 'c"q', "cr\rx", "nl\nx", "plain"]
        inp = tmp_path / "in.csv"
        with open(inp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # "\r\n" rows, so a lone "\r" is quoted
            writer.writerow(["sample", "c1", "c2", "c3"])
            writer.writerows([sid, -k, 0, k] for k, sid in enumerate(ids, start=1))
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(inp), "--output", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sampleId", "thetaR", "thetaL", "range", "method"]
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 5 for row in rows)
        # ids with nothing to quote are written as they were before
        assert out.read_text(encoding="utf-8").splitlines()[-1].startswith("plain,")

    def test_parse_error_exit_code(self, tmp_path):
        inp = write(tmp_path / "in.csv", "sample,c1,c2\ns1,1,NA\ns2,1,2\n")
        code = main(["estimate", "--input", inp, "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_degenerate_exit_code(self, tmp_path):
        inp = write(tmp_path / "in.csv", "sample,c1,c2\ns1,1,1\ns2,2,2\n")
        code = main(["estimate", "--input", inp, "--output", str(tmp_path / "o.csv")])
        assert code == 3

    def test_missing_file_exit_code(self, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--output", "o.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, extra",
        [
            # centring overflows the row sums
            ("sample,c1,c2,c3\ns1,1e308,-1e308,1e308\ns2,-1e308,1e308,1e308\n"
             "s3,1e308,1e308,-1e308\n", ()),
            # the rowwise range max - min overflows
            ("sample,c1,c2,c3\ns1,1.7e308,0,-1.7e308\ns2,1,2,3\n", ("--method", "os")),
            # exp of a range above 709 overflows
            ("sample,c1,c2,c3\ns1,-400,0,400\ns2,1,2,3\n", ("--exp",)),
        ],
        ids=["center-overflow", "os-range-overflow", "exp-overflow"],
    )
    def test_non_finite_estimate_exit_3_one_line(self, tmp_path, run_cli, text, extra):
        inp = write(tmp_path / "in.csv", text)
        out = tmp_path / "o.csv"
        proc = run_cli("estimate", "--input", inp, "--output", out, *extra)
        assert proc.returncode == 3
        assert proc.stderr.startswith("permrow: numerical degeneracy:")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, extra, column",
        [
            ("s1,1.7e308,0,-1.7e308\ns2,1,2,3\n", ("--method", "os"), "range"),
            ("s1,0,1,710\ns2,1,2,3\n", ("--method", "os", "--exp"), "thetaR"),
            # s3 runs against the row-majority sign, so its thetaL of 711 is
            # above its thetaR of 709, and exp(711) overflows alone
            ("s1,0,1,2\ns2,0,1,2\ns3,711,710,709\n", ("--exp",), "thetaL"),
            ("s1,-400,0,400\ns2,1,2,3\n", ("--exp",), "range"),
        ],
        ids=["os-range", "exp-thetaR", "exp-thetaL", "exp-range"],
    )
    def test_non_finite_estimate_names_its_column(self, tmp_path, capsys, rows, extra, column):
        inp = write(tmp_path / "in.csv", "sample,c1,c2,c3\n" + rows)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--input", inp, "--output", str(out), *extra]) == 3
        assert capsys.readouterr().err == (
            f"permrow: numerical degeneracy: {column} overflowed to a non-finite value\n"
        )
        assert not out.exists()


BAD_CELLS = st.sampled_from(["abc", "NA", "", "nan", "inf", "1e500"])


def assert_cli_outcome(code, err):
    """The outcome every CLI fuzz allows: exit 0, 2 or 3, at most one stderr
    line, no traceback, and fewer than 300 bytes on stderr."""
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1, err[:300]
    assert "Traceback" not in err
    assert len(err.encode("utf-8")) < 300, err[:300]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.integers(2, 5),
    defect=st.sampled_from([None, None, "cell", "ragged"]),
    method=st.sampled_from(["spectral", "regression", "ds", "os", "irep"]),
    exp=st.booleans(),
    data=st.data(),
)
def test_estimate_fuzz_exit_code_and_one_line(n, p, defect, method, exp, data):
    """Any small CSV ends in exit 0, 2 or 3 with at most one short stderr line.

    Rows of finite and huge numbers get at most one defect: a non-numeric
    cell or a short row.  Warnings are errors here, so a numpy
    RuntimeWarning that would reach stderr escapes ``main`` and fails the
    test like any other traceback.
    """
    rows = [data.draw(st.lists(NUMBERS, min_size=p, max_size=p)) for _ in range(n)]
    i = data.draw(st.integers(0, n - 1))
    if defect == "cell":
        rows[i][data.draw(st.integers(0, p - 1))] = data.draw(BAD_CELLS)
    elif defect == "ragged":
        rows[i].pop()
    lines = ["sample," + ",".join(f"c{j}" for j in range(p))]
    lines += [f"s{k}," + ",".join(row) for k, row in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        inp = write(Path(tmp) / "in.csv", "\n".join(lines) + "\n")
        argv = ["estimate", "--input", inp, "--output", str(Path(tmp) / "o.csv"),
                "--method", method, *(["--exp"] if exp else [])]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    assert_cli_outcome(code, err.getvalue())


# sizes no machine can allocate: a (reps, pairs) risk array of at least
# 8e14 bytes, and n x p buffers of 8e14 bytes each (both past any
# user address space, and below numpy's own size limit)
HUGE_REPS = 10**14
HUGE_SHAPE = {"n": 10**7, "p": 10**7}


class TestCliSimulate:
    CONFIG = {
        "kind": "S1",
        "n": 5,
        "p": 20,
        "alpha": 3.0,
        "sigma": 1.0,
        "permutation": "UniformRandom",
    }

    def test_byte_identical_across_threads(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        outputs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv")):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--config",
                    cfg,
                    "--reps",
                    "6",
                    "--seed",
                    "123",
                    "--output",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_output(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert (
                main(
                    ["simulate", "--config", cfg, "--reps", "3", "--seed", seed,
                     "--output", str(out)]
                )
                == 0
            )
            texts.append(out.read_text(encoding="utf-8"))
        assert texts[0] != texts[1]

    @pytest.mark.parametrize(
        "extra",
        [
            {"sigmma": 5},
            {"alpha": float("nan")},
            {"n": float("inf")},
            {"n": 5.7},
            {"p": "20"},
            {"seed": True},
            {"a": [1.0] * 5, "eta": [0.0] * 20, "b": [0.0] * 5},
            {"permutation": "Identity", "givenPermutation": list(range(20))},
        ],
        ids=["unknown-key", "nan-alpha", "infinite-n", "fractional-n", "string-p", "bool-seed",
             "unread-a-eta-b", "unread-given"],
    )
    def test_invalid_config_one_line_exit_2(self, tmp_path, capsys, extra):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.CONFIG, **extra}))
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("permrow: error:") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps({"kind": "S1", "n": 1, "p": 10}), "scenario requires n >= 2 and p >= 3"),
            (json.dumps({"kind": "S1", "n": 5, "p": 2}), "scenario requires n >= 2 and p >= 3"),
            ("[1, 2]", "scenario config must be a JSON object"),
        ],
        ids=["n-1", "p-2", "list"],
    )
    def test_config_guard_one_line_exit_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path / "cfg.json", text)
        code = main(["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"permrow: error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_scalar_given_permutation_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"kind": "S1", "n": 5, "p": 10, "permutation": "Given", "givenPermutation": 5}
        ))
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "permrow: error: givenPermutation must be a list of integers, got 5\n"
        )
        assert not (tmp_path / "o.csv").exists()

    def test_thread_pool_imported_only_by_a_pooled_run(self, run_cli):
        """A subcommand that starts no worker pool never imports
        concurrent.futures, nor the logging that it imports."""
        proc = run_cli("rates", "--t", "5", "--beta-r", "0.5", "--sigma", "1", "--n", "50",
                       "--p", "1000", env={"PYTHONPROFILEIMPORTTIME": "1"})
        assert proc.returncode == 0, proc.stderr
        assert "permrow.simulation" in proc.stderr  # the import-time table was written
        assert "concurrent" not in proc.stderr and "logging" not in proc.stderr

    @pytest.mark.parametrize(
        "text",
        ["[" * 5000 + "]" * 5000, '{"kind": ' + "[" * 5000 + "]" * 5000 + "}"],
        ids=["top-level", "kind-value"],
    )
    def test_deeply_nested_config_one_line_exit_2(self, tmp_path, capsys, text):
        cfg = write(tmp_path / "cfg.json", text)
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "permrow: error: scenario config is nested too deeply\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_one_line_exit_2(self, tmp_path, capsys, threads):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        code = main(
            ["simulate", "--config", cfg, "--reps", "2", "--seed", "1",
             "--output", str(tmp_path / "o.csv"), "--threads", threads]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "permrow: error: threads must be at least 1\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "estimators, message",
        [
            ("spectral,os,spectral", "repeated estimators: ['spectral']"),
            ("", "unknown estimators: ['']"),
        ],
        ids=["repeated", "empty"],
    )
    def test_bad_estimators_one_line_exit_2(self, tmp_path, capsys, estimators, message):
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        code = main(
            ["simulate", "--config", cfg, "--reps", "2", "--seed", "1",
             "--output", str(tmp_path / "o.csv"), "--estimators", estimators]
        )
        assert code == 2
        assert capsys.readouterr().err == f"permrow: error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all_replicates_fail_exit_3_one_line(self, tmp_path, capsys, threads):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.CONFIG, "sigma": 1e308}))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", cfg, "--reps", "3", "--seed", "1",
                         "--output", str(out), "--threads", threads])
        assert code == 3
        assert capsys.readouterr().err == (
            "permrow: numerical degeneracy: all 3 replicates failed, the first with "
            "NonFiniteInput: observation matrix contains NaN or infinite entries\n"
        )
        assert not out.exists()

    def test_every_risk_overflows_exit_3_one_line(self, tmp_path, capsys):
        cases = [
            # irep's estimate of the true range 2a overflows to inf
            ([1.7e308, 1.7e308], [-1, 0, 1], "irep", "range overflowed to a non-finite value"),
            # every estimate is finite (irep's range is +1e308), but the true
            # range is -1e308, so the range risk of 2e308 overflows
            *(([-1e308, -1e308], [-0.5, 0, 0.5], names, "a risk overflowed to a non-finite value")
              for names in ("irep", "os", "spectral,ds")),
        ]
        for a, eta, estimators, message in cases:
            config = {"kind": "CustomLinear", "n": 2, "p": 3, "sigma": 0.0,
                      "permutation": "Identity", "a": a, "eta": eta, "b": [0, 0]}
            cfg = write(tmp_path / "cfg.json", json.dumps(config))
            out = tmp_path / "o.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["simulate", "--config", cfg, "--reps", "2", "--seed", "1",
                             "--output", str(out), "--estimators", estimators])
            assert code == 3
            assert capsys.readouterr().err == (
                "permrow: numerical degeneracy: all 2 replicates failed, the first with "
                f"NonFiniteEstimate: {message}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_some_replicates_fail_one_stderr_line(self, tmp_path, capsys, threads):
        # a_i is 0 or 5e-324, so most replicates have a zero centred matrix
        config = {"kind": "S1", "n": 2, "p": 5, "alpha": 5e-324, "sigma": 0.0}
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", cfg, "--reps", "8", "--seed", "1",
                         "--output", str(out), "--threads", threads])
        assert code == 0
        assert capsys.readouterr().err == (
            "permrow: warning: 7 of 8 replicates failed, the first with ZeroMatrixError; "
            "the risk CSV leaves them out\n"
        )
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 9 and {row.split(",")[2] for row in rows} == {"2"}

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "reps, extra", [(HUGE_REPS, {}), (2, HUGE_SHAPE)], ids=["risk-array", "buffers"]
    )
    def test_out_of_memory_one_line_exit_2(self, tmp_path, capsys, threads, reps, extra):
        cfg = write(tmp_path / "cfg.json", json.dumps({**self.CONFIG, **extra}))
        out = tmp_path / "o.csv"
        code = main(["simulate", "--config", cfg, "--reps", str(reps), "--seed", "1",
                     "--output", str(out), "--threads", threads])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("permrow: error: not enough memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_thread_start_failure_one_line_exit_2(self, tmp_path, capsys, monkeypatch):
        def start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = write(tmp_path / "cfg.json", json.dumps(self.CONFIG))
        out = tmp_path / "o.csv"
        code = main(["simulate", "--config", cfg, "--reps", "3", "--seed", "1",
                     "--output", str(out), "--threads", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "permrow: error: cannot start 2 worker threads: can't start new thread\n"
        )
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", "{not json")
        code = main(
            ["simulate", "--config", cfg, "--reps", "1", "--seed", "1",
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2


ESTIMATOR_NAMES = st.sampled_from(["spectral", "regression", "ds", "os", "irep"])
ESTIMATOR_LISTS = st.one_of(
    st.lists(ESTIMATOR_NAMES, min_size=1, unique=True),
    st.lists(st.one_of(ESTIMATOR_NAMES, st.sampled_from(["", " ", "bogus", " os", "ds "])),
             max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(
    tokens=ESTIMATOR_LISTS,
    reps=st.one_of(st.integers(-2, 5), st.just(HUGE_REPS)),
    threads=st.integers(-1, 3),
)
def test_simulate_fuzz_run_flags_exit_code_and_one_line(tokens, reps, threads):
    """Any --estimators list (subsets, repeats, empty, unknown names, stray
    commas and spaces), --reps (also one too large to allocate) and
    --threads ends in exit 0, 2 or 3 with at most one short stderr line;
    warnings are errors, as in the estimate fuzz."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "cfg.json", json.dumps({"kind": "S1", "n": 3, "p": 6}))
        out = Path(tmp) / "o.csv"
        argv = ["simulate", "--config", cfg, "--reps", str(reps), "--seed", "1",
                "--output", str(out), "--threads", str(threads),
                "--estimators", ",".join(tokens)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert out.exists() == (code == 0)
    event(f"exit {code}")
    assert_cli_outcome(code, err.getvalue())


POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 3.0, 1e200, 1e308, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)
FINITE = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1.0, -3.0, 1e200, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
OUT_OF_RANGE = st.sampled_from([-1.0, -5e-324, float("nan"), float("inf"), float("-inf")])


@st.composite
def scenario_configs(draw):
    """Scenario configs at the smallest shapes, or S1 and S2 at a shape too
    large to allocate: huge, tiny and zero alpha, sigma and CustomLinear
    a/eta/b, and at most one of those (or one entry) negative or non-finite."""
    n, p = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([3, 4, 8]))
    kind = draw(st.sampled_from(["S1", "S2", "CustomLinear"]))
    permutation = draw(st.sampled_from(["Identity", "UniformRandom", "Given"]))
    if kind != "CustomLinear" and permutation != "Given" and draw(st.integers(0, 7)) == 0:
        n, p = HUGE_SHAPE["n"], HUGE_SHAPE["p"]
    doc = {"kind": kind, "n": n, "p": p, "alpha": draw(POSITIVE),
           "sigma": draw(st.one_of(st.just(0.0), POSITIVE)), "permutation": permutation}
    if permutation == "Given":
        doc["givenPermutation"] = draw(st.permutations(range(p)))
    if kind == "CustomLinear":
        for key, length in (("a", n), ("eta", p), ("b", n)):
            doc[key] = draw(st.lists(FINITE, min_size=length, max_size=length))
    bad = draw(st.sampled_from([None, "alpha", "sigma", *(("a", "eta", "b") if "a" in doc else ())]))
    if bad in ("alpha", "sigma"):
        doc[bad] = draw(OUT_OF_RANGE)
    elif bad is not None:
        doc[bad][draw(st.integers(0, len(doc[bad]) - 1))] = draw(OUT_OF_RANGE)
    event(f"{kind} {permutation}")
    return doc


@settings(max_examples=80, deadline=None)
@given(config=scenario_configs(), threads=st.sampled_from([1, 2]))
def test_simulate_fuzz_configs_exit_code_and_one_line(config, threads):
    """Any small scenario config ends in exit 0, 2 or 3 with at most one short
    stderr line, at one and two threads, with every estimator; warnings are
    errors, as in the estimate fuzz."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "cfg.json", json.dumps(config))  # NaN and Infinity as JSON
        out = Path(tmp) / "o.csv"
        argv = ["simulate", "--config", cfg, "--reps", "3", "--seed", "1",
                "--output", str(out), "--threads", str(threads),
                "--estimators", "spectral,regression,ds,os,irep"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert out.exists() == (code == 0)
    event(f"exit {code}")
    assert_cli_outcome(code, err.getvalue())


class TestCliRates:
    def test_json_output(self, capsys):
        code = main(
            ["rates", "--t", "70.7106781", "--beta-r", "0.5", "--sigma", "1",
             "--n", "100", "--p", "10000"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "intermediate"
        assert doc["psi"] == pytest.approx(math.sqrt(math.log(10000) / 100))
        assert doc["rate"] > doc["psi"]

    def test_range_rate_with_beta_l(self, capsys):
        code = main(
            ["rates", "--t", "200", "--beta-r", "0.5", "--beta-l", "0.25",
             "--sigma", "1", "--n", "100", "--p", "10000"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rateRange"] > doc["rate"]


    def test_t_zero_gives_the_tail(self, capsys):
        code = main(["rates", "--t", "0", "--beta-r", "0.5", "--sigma", "2",
                     "--n", "10", "--p", "100"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "weak"
        assert doc["rate"] == doc["psi"] * 2.0

    @pytest.mark.parametrize(
        "n, p, code",
        [(10**400, 10, 2), (10, 10**400, 2), (10**200, 10**200, 0)],
        ids=["n-1e400", "p-1e400", "n-p-1e200"],
    )
    def test_huge_integer_flags(self, run_cli, n, p, code):
        """An integer past the float range exits 2 with one line; n and p
        that a float holds but whose product it does not still give JSON."""
        proc = run_cli("rates", "--t", "5", "--beta-r", "0.5", "--sigma", "1",
                       "--n", n, "--p", p)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stdout == ""
            assert proc.stderr == (
                "permrow: error: n and p must be finite and within the float range\n"
            )
        else:
            assert proc.stderr == ""
            assert json.loads(proc.stdout, parse_constant=pytest.fail)["regime"] == "weak"


RATES_ARGS = ["--t", "5", "--beta-r", "0.5", "--sigma", "1", "--n", "10", "--p", "100"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rates", *RATES_ARGS[:-4], "--n", "x", "--p", "100"],
         "argument --n: invalid int value: 'x'"),
        (["rates", *RATES_ARGS[:-2]], "the following arguments are required: --p"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["simulate", "--reps", "1"], "the following arguments are required:"),
        (["rates", *RATES_ARGS, "--bogus"], "unrecognized arguments: --bogus"),
        # removed flags: the estimators take no settings
        (["estimate", "--input", "i.csv", "--output", "o.csv", "--sign", "row-majority"],
         "unrecognized arguments: --sign row-majority"),
        (["estimate", "--input", "i.csv", "--output", "o.csv", "--trim", "0.05"],
         "unrecognized arguments: --trim 0.05"),
    ],
    ids=["bad-value", "missing-flag", "unknown-subcommand", "missing-flags", "unknown-flag",
         "removed-sign", "removed-trim"],
)
def test_usage_error_one_line_exit_2(run_cli, argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"permrow: error: {message}")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["rates", "--help"]])
def test_help_prints_usage_exit_0(run_cli, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(f"usage: permrow {'rates ' if argv[0] == 'rates' else ''}[-h]")


@pytest.mark.parametrize(
    "argv, code",
    [(["rates", *RATES_ARGS], 0), (["estimate", "--input", "missing.csv", "--output", "o.csv"], 2)],
    ids=["ok", "missing-input"],
)
def test_entrypoint_exits_with_main_code(tmp_path, monkeypatch, argv, code):
    """The console script's ``entrypoint()`` raises SystemExit with the code
    ``main`` returns for the same argv."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    monkeypatch.setattr(sys, "argv", ["permrow", *argv])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == code


# Raw argv: "{name}" stands for a file written (or a path left missing) by
# the test.  Every flag is followed by one drawn value, so a value can never
# become another flag's; no unknown flag abbreviates a real one.  --threads
# stays at 4 or below, and --reps at 10 or below or past any allocation.
ARGV_JUNK = st.sampled_from(["", " ", "x", "1.5", "1e400", "-1e400", "inf", "-inf", "nan", "-", "--"])
ARGV_INTS = st.one_of(st.integers(-3, 12), st.integers(-10**400, 10**400)).map(str) | ARGV_JUNK
ARGV_NUMBERS = st.floats().map(repr) | ARGV_INTS
ARGV_PATHS = st.sampled_from(["{coverage}", "{grouped}", "{config}", "{bad_config}", "{missing}", ""])
ARGV_OUTPUTS = st.sampled_from(["{missing}/o.csv", "{dir}", ""])


def flag_value(usual, other):
    """A flag value: from ``usual`` three times in four, else from ``other``."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else usual)


ARGV_FLAGS = {
    "estimate": {
        "--input": flag_value(st.just("{coverage}"), ARGV_PATHS),
        "--output": flag_value(st.just("{out}"), ARGV_OUTPUTS),
        "--method": st.sampled_from(["spectral", "regression", "ds", "os", "irep", "bogus", ""]),
        "--exp": None,
    },
    "simulate": {
        "--config": flag_value(st.just("{config}"), ARGV_PATHS),
        "--reps": flag_value(
            st.integers(1, 10).map(str),
            st.one_of(st.integers(-10**400, 0), st.integers(HUGE_REPS, 10**400)).map(str)
            | ARGV_JUNK,
        ),
        "--seed": ARGV_INTS,
        "--output": flag_value(st.just("{out}"), ARGV_OUTPUTS),
        "--threads": flag_value(st.integers(1, 4).map(str),
                                st.integers(-10**400, 0).map(str) | ARGV_JUNK),
        "--estimators": flag_value(st.lists(ESTIMATOR_NAMES, min_size=1, unique=True),
                                   ESTIMATOR_LISTS).map(",".join),
    },
    "rates": {
        "--t": flag_value(st.floats(0.0, 1e3).map(repr), ARGV_NUMBERS),
        "--beta-r": flag_value(st.floats(0.0, 1.0).map(repr), ARGV_NUMBERS),
        "--beta-l": flag_value(st.floats(0.0, 1.0).map(repr), ARGV_NUMBERS),
        "--sigma": flag_value(st.floats(1e-3, 1e3).map(repr), ARGV_NUMBERS),
        "--n": flag_value(st.integers(1, 10**6).map(str), ARGV_INTS),
        "--p": flag_value(st.integers(2, 10**9).map(str), ARGV_INTS),
    },
    "compare": {
        "--input": flag_value(st.just("{grouped}"), ARGV_PATHS),
        "--test": st.sampled_from(["f", "t", "x", ""]),
        "--variant": st.sampled_from(["welch", "pooled", "x"]),
    },
}
ARGV_UNKNOWN = {"--bogus": ARGV_NUMBERS, "-q": None}


@st.composite
def raw_argv(draw, command):
    """``command`` (None for none) and its flags in any order: each kept nine
    times in ten, then up to two more, repeated or unknown, and --help once
    in twenty.  A command that is not a subcommand draws the rates flags."""
    own = ARGV_FLAGS.get(command, ARGV_FLAGS["rates"])
    flags = {**own, **ARGV_UNKNOWN, "--help": None}
    chosen = [flag for flag in own if draw(st.integers(0, 9)) < 9]
    chosen += draw(st.lists(st.sampled_from(sorted({**own, **ARGV_UNKNOWN})), max_size=2))
    chosen += ["--help"] * (draw(st.integers(0, 19)) == 19)
    argv = [] if command is None else [command]
    for flag in draw(st.permutations(chosen)):
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    return argv


@pytest.mark.parametrize("command", [*ARGV_FLAGS, None, "bogus", ""])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raw_argv_fuzz_exit_code_and_one_line(command, data):
    """Any raw argv, for each subcommand, none and an unknown one, ends in
    exit 0, 2 or 3 with at most one short stderr line and no traceback;
    warnings are errors, as in the other fuzzes."""
    argv = data.draw(raw_argv(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "coverage": write(Path(tmp) / "cov.csv", COVERAGE),
            "grouped": write(Path(tmp) / "g.csv", TestCliCompare.GROUPED),
            "config": write(Path(tmp) / "cfg.json", json.dumps({"kind": "S2", "n": 3, "p": 6})),
            "bad_config": write(Path(tmp) / "bad.json", "[1, 2]"),
            "missing": str(Path(tmp) / "missing"),
            "out": str(Path(tmp) / "o.csv"),
            "dir": tmp,
        }
        argv = [token.format(**paths) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error or --help
                code = exc.code
    event(f"exit {code}{' (help)' if out.getvalue().startswith('usage:') else ''}")
    assert_cli_outcome(code, err.getvalue())


class TestCliCompare:
    GROUPED = (
        "sampleId,group,value\n"
        "a1,A,1\na2,A,2\na3,A,3\n"
        "b1,B,2\nb2,B,3\nb3,B,4\n"
        "c1,C,3\nc2,C,4\nc3,C,5\n"
    )

    def test_f_test(self, tmp_path, capsys):
        inp = write(tmp_path / "g.csv", self.GROUPED)
        assert main(["compare", "--input", inp, "--test", "f"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["F"] == pytest.approx(3.0, abs=1e-12)
        assert (doc["df1"], doc["df2"]) == (2, 6)

    def test_pairwise_t(self, tmp_path, capsys):
        inp = write(tmp_path / "g.csv", self.GROUPED)
        code = main(
            ["compare", "--input", inp, "--test", "t", "--variant", "pooled"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["comparisons"]) == 3
        ab = doc["comparisons"][0]
        assert ab["groups"] == ["A", "B"]
        assert ab["t"] == pytest.approx(-math.sqrt(1.5), abs=1e-9)

    def test_degenerate_exit_code(self, tmp_path):
        inp = write(
            tmp_path / "g.csv",
            "sampleId,group,value\na1,A,1\na2,A,1\nb1,B,2\nb2,B,2\n",
        )
        assert main(["compare", "--input", inp, "--test", "f"]) == 3

    @pytest.mark.parametrize(
        "values, argv, expected",
        [
            ((1e308, -1e308, 1e308, -1e308), ["--test", "f"], {"F": 0.0, "pValue": 1.0}),
            ((1e308, -1e308, 1e308, -1e308), ["--test", "t"],
             {"t": 0.0, "df": 2.0, "pValue": 1.0}),
            ((1e200, -1e200, 3e200, -1e200), ["--test", "f"], {"F": 0.2}),
            ((1e200, -1e200, 3e200, -1e200), ["--test", "t"],
             {"t": -1 / math.sqrt(5), "df": 25 / 17}),
        ],
        ids=["1e308-f", "1e308-t", "1e200-f", "1e200-t"],
    )
    def test_huge_values_give_finite_json(self, tmp_path, capsys, values, argv, expected):
        rows = "".join(f"{g}{i},{g},{v!r}\n" for i, (g, v) in enumerate(zip("AABB", values)))
        inp = write(tmp_path / "g.csv", "sampleId,group,value\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--input", inp, *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out, parse_constant=pytest.fail)
        got = doc if argv[1] == "f" else doc["comparisons"][0]
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "file is empty; a header row is required"),
            ("sampleId,group\na,A\nb,B\n", "expected exactly 3 columns: sampleId,group,value"),
            ("sampleId,group,value\na,A,1\nb,B\n", "row 3 has 2 fields, expected 3"),
        ],
        ids=["empty", "two-columns", "short-row"],
    )
    def test_malformed_table_one_line_exit_2(self, tmp_path, capsys, text, message):
        inp = write(tmp_path / "g.csv", text)
        assert main(["compare", "--input", inp]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"permrow: error: {message}\n"

    def test_pooled_t_on_constant_groups_exit_3_one_line(self, tmp_path, capsys):
        inp = write(tmp_path / "g.csv", "sampleId,group,value\na1,A,1\na2,A,1\na3,A,1\n"
                    "b1,B,2\nb2,B,2\n")
        assert main(["compare", "--input", inp, "--test", "t", "--variant", "pooled"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "permrow: numerical degeneracy: pooled variance is zero\n"

    @pytest.mark.parametrize("test", ["f", "t"])
    def test_non_finite_statistic_exit_3_one_line(self, tmp_path, capsys, test):
        # group A spreads over 1e-160, far below the between-group gap of 1
        inp = write(tmp_path / "g.csv", "sampleId,group,value\na1,A,0\na2,A,1e-160\n"
                    "b1,B,1\nb2,B,1\n")
        assert main(["compare", "--input", inp, "--test", test]) == 3
        err = capsys.readouterr().err
        assert err.startswith("permrow: numerical degeneracy:") and err.count("\n") == 1


def _run_json_command(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, with warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_strict_json_outcome(code, out, err):
    """``assert_cli_outcome``, and on exit 0 a stdout that parses as JSON
    with no NaN or Infinity."""
    event(f"exit {code}")
    assert_cli_outcome(code, err)
    if code == 0:
        json.loads(out, parse_constant=pytest.fail)


GROUP_VALUES = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["0", "1e308", "-1e308", "1.7e308", "-1.7e308", "1e-160", "5e-324"]),
)


@settings(max_examples=100, deadline=None)
@given(
    # mostly valid, so that exit 0 is common: one group in five, a singleton
    # in one group of five, a zero-variance table and a bad cell in four
    sizes=st.sampled_from([2, 3, 4, 2, 1]).flatmap(
        lambda k: st.lists(st.sampled_from([2, 3, 4, 2, 1]), min_size=k, max_size=k)
    ),
    constant=st.sampled_from([False, False, False, True]),
    bad_cell=st.one_of(st.none(), st.none(), st.none(), BAD_CELLS),
    argv=st.sampled_from([["--test", "f"], ["--test", "t", "--variant", "welch"],
                          ["--test", "t", "--variant", "pooled"]]),
    data=st.data(),
)
def test_compare_fuzz_exit_code_and_strict_json(sizes, constant, bad_cell, argv, data):
    """Any small grouped CSV (one group, singletons, zero-variance groups,
    values near +-1e308 or tiny, at most one non-numeric cell) ends in exit
    0, 2 or 3 with at most one short stderr line, and prints strict JSON."""
    rows = []
    for g, size in enumerate(sizes):
        values = data.draw(st.lists(GROUP_VALUES, min_size=size, max_size=size))
        if constant:  # every group has zero variance
            values = [values[0]] * size
        rows += [(f"s{g}_{i}", f"G{g}", value) for i, value in enumerate(values)]
    if bad_cell is not None:
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = (*rows[i][:2], bad_cell)
    text = "sampleId,group,value\n" + "".join(",".join(row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        inp = write(Path(tmp) / "g.csv", text)
        _assert_strict_json_outcome(*_run_json_command(["compare", "--input", inp, *argv]))


RATE_SPECIALS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-308"])


def rate_flag(ordinary):
    """A flag value: one of the special values in three, else ``ordinary``."""
    return st.one_of(RATE_SPECIALS, ordinary.map(repr), ordinary.map(repr))


@settings(max_examples=150, deadline=None)
@given(
    t=rate_flag(st.floats(0.0, 1e3)),
    beta_r=rate_flag(st.floats(0.0, 1.0)),
    beta_l=st.one_of(st.none(), rate_flag(st.floats(0.0, 1.0))),
    sigma=rate_flag(st.floats(1e-3, 1e3)),
    n=st.sampled_from([0, 1, 2, 100, 10**6]),
    p=st.sampled_from([1, 2, 3, 1000, 10**9]),
)
def test_rates_fuzz_exit_code_and_strict_json(t, beta_r, beta_l, sigma, n, p):
    """Any rates flags (NaN, +-inf, 0, -1, 1e+-308 and ordinary values) end
    in exit 0, 2 or 3 with at most one short stderr line, and print strict JSON."""
    argv = ["rates", f"--t={t}", f"--beta-r={beta_r}", f"--sigma={sigma}", f"--n={n}",
            f"--p={p}", *([] if beta_l is None else [f"--beta-l={beta_l}"])]
    _assert_strict_json_outcome(*_run_json_command(argv))


@pytest.mark.parametrize("flag", ["--t=nan", "--t=inf", "--sigma=inf", "--sigma=nan"])
def test_rates_non_finite_flag_exit_2(capsys, flag):
    argv = ["rates", "--t=5", "--beta-r=0.5", "--sigma=1", "--n=10", "--p=100", flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("permrow: error:")


def test_rates_non_finite_result_exit_3_one_line(capsys):
    # sigma * psi overflows: sigma = 1e308 and psi = sqrt(ln 1000 / 1) > 2
    argv = ["rates", "--t=5", "--beta-r=0.5", "--sigma=1e308", "--n=1", "--p=1000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "permrow: numerical degeneracy: a result overflowed to a non-finite value\n"
