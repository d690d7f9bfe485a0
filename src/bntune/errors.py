"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for every error raised by this package."""


class ZeroEntry(Error):
    """A table entry selected for tuning has value 0 or 1, which admits no co-variation."""


class UnsupportedMultiEntryRow(Error):
    """More than one entry of the same table row was selected for tuning."""


class NotWellFormed(Error):
    """A network, table, or instantiation violates a structural requirement."""


class UnboundParameter(Error):
    """An instantiation is missing (or adds) a parameter relative to what is expected."""


class UnsupportedDegree(Error):
    """A polynomial has degree above one in some parameter where multi-affine form is required."""


class BadOrder(Error):
    """A supplied variable order is not a topological order of the network."""


class EvidenceImpossible(Error):
    """The evidence has probability zero, so no conditional probability exists."""


class TooLarge(Error):
    """A brute-force computation would exceed its enumeration guard."""


class BadRegion(Error):
    """A parameter box lies (partly) outside the declared parameter intervals."""


class CoverageUnreachable(Error):
    """Partitioning stopped short of the requested coverage.

    Either its box-count guard was spent, or only inconclusive boxes that
    have no live axis left to split remain.  The ``partial`` attribute holds
    the partition computed so far.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class UnsupportedForCD(Error):
    """The Chan-Darwiche log-ratio distance needs all parameters in one table
    (``distance_cd``) and two networks over the same variables and values (``cd_exact``)."""


class EmptyInput(Error):
    """An operation that needs at least one element received an empty collection."""


class UnknownValue(Error):
    """A variable or value name does not exist in the network."""


class ParseError(Error):
    """A textual input could not be parsed; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column
