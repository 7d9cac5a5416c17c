"""Exception types shared across the package."""


class GridWaveError(Exception):
    """Base class for every error raised by gridwave."""


class MapFormatError(GridWaveError, ValueError):
    """Map text that violates the ASCII grid format.

    ``row`` and ``col`` point at the offending cell (zero-based) when the
    problem is local to one; both are None for map-wide problems.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRowsError(MapFormatError):
    """Rows of unequal length."""


class UnknownSymbolError(MapFormatError):
    """A character outside the map alphabet."""


class NoSourceError(MapFormatError):
    """Map without a source cell."""


class MultipleSourcesError(MapFormatError):
    """More than one source cell."""


class MultipleDestinationsError(MapFormatError):
    """More than one destination cell."""


class MissingCostError(GridWaveError):
    """A descent step landed on a cell without a finite cost.

    Signals backtracking before flooding, or a cost field that does not
    belong to the map it is being used with.
    """


class NoPathError(GridWaveError):
    """The destination cannot be reached.

    For the best-first searches the exception carries the counters of the
    exhausted run in ``result`` (a SearchResult with ``path=None``) so
    callers can still report how much work was done.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class UnsatisfiableError(GridWaveError):
    """Random map generation ran out of retries."""


class DimensionMismatchError(GridWaveError):
    """Two grid-shaped values that should agree on width and height do not."""
