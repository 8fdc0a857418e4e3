"""Exception hierarchy shared across the package.

Two branches matter to the CLI: input/validation problems (exit code 2)
and numerical degeneracies (exit code 3).
"""


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


class UncenteredEta(InputError):
    """A position vector that must sum to zero does not."""


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
    """The matrix entries are too large for its Gram product to stay finite."""


class ZeroSignal(NumericalDegeneracyError):
    """Slope or position vector has zero norm; signal indices are undefined."""


class DegenerateRegressor(NumericalDegeneracyError):
    """All regression scores are equal; the slope is undefined."""


class DegenerateVariance(NumericalDegeneracyError):
    """Within-group variance is zero; the test statistic is undefined."""
