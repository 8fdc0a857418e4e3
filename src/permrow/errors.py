"""Exception hierarchy shared across the package.

Two branches matter to the CLI: input/validation problems (exit code 2)
and numerical degeneracies (exit code 3).  A message that echoes an input
value shows it through ``shown``, or through ``cut`` when it is already
text, so that it stays one short line.
"""

from itertools import accumulate


def cut(text: str, width: int = 100) -> str:
    """``text`` when it is at most ``width`` bytes long as stderr writes it;
    else its longest prefix of whole characters within ``width`` bytes, an
    ellipsis and its length in characters.  Bytes are counted in UTF-8, a
    lone surrogate as the backslash escape that stderr writes in its place,
    so an ASCII text keeps ``width`` characters."""
    ends = accumulate(len(c.encode("utf-8", "backslashreplace")) for c in text[:width])
    keep = sum(end <= width for end in ends)
    return text if keep == len(text) else f"{text[:keep]}… ({len(text)} characters)"


def shown(value) -> str:
    """``repr(value)``, cut to 100 bytes as ``cut`` does."""
    return cut(repr(value))


class PermrowError(Exception):
    """Base class for all package errors."""


class InputError(PermrowError):
    """Invalid or unparseable input."""


class NumericalDegeneracyError(PermrowError):
    """The computation is undefined for this input (zero signal, zero variance, ...)."""


class NonFiniteInput(InputError):
    """An input array contains NaN or infinite entries."""


class LengthMismatch(InputError):
    """Two vectors that must have equal length do not."""


class InsufficientColumns(InputError):
    """Too few columns remain after trimming to fit a slope."""


class DuplicateSampleId(InputError):
    """A coverage table repeats a sample identifier."""


class DimensionMismatch(InputError):
    """Rows of a table disagree in length, or the table is too small."""


class InvalidScenario(InputError, ValueError):
    """A scenario configuration has an unknown or missing key, a malformed
    or out-of-range value, or a given permutation that is not a permutation."""


class ParseError(InputError):
    """A cell of a CSV file could not be parsed.

    Carries 1-based ``row`` and ``col`` coordinates of the offending cell.
    """

    def __init__(self, row: int, col: int, reason: str):
        self.row = row
        self.col = col
        self.reason = reason
        super().__init__(f"row {row}, column {col}: {reason}")


class ZeroMatrixError(NumericalDegeneracyError):
    """The row-centered matrix is identically zero; no leading direction exists."""


class GramOverflow(NumericalDegeneracyError):
    """The matrix entries are too large for its singular values to stay finite."""


class NonFiniteEstimate(NumericalDegeneracyError):
    """An estimate of finite input overflowed to an infinite or NaN value."""


class DegenerateVariance(NumericalDegeneracyError):
    """Within-group variance is zero, or too small for a finite statistic."""
