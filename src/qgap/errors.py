"""Exception types shared across the package."""


class QgapError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(QgapError):
    """Operands have incompatible dimensions."""


class InvalidStateError(QgapError):
    """A state vector is zero or otherwise not a valid ray representative."""


class UnsupportedConnectiveError(QgapError):
    """A connective was applied outside its defined domain.

    Conjunction requires commuting operands; exclusive-or requires
    mutually orthogonal ones.
    """


class IncompleteAssignmentError(QgapError):
    """A classical valuation was asked for an atom it does not cover."""


class ImpossibleOutcomeError(QgapError):
    """A verification outcome annihilates the current state."""


class ParseError(QgapError):
    """Malformed scalar, vector, or proposition text."""


class InvalidValueError(QgapError, ValueError):
    """A value object was built from arguments that break its invariant, or cannot be printed.

    Raised by ``Projector``, ``SpinBasis``, ``Population`` and ``TruthValueSet.from_values``;
    by ``Particle``, ``Axis`` and ``Direction`` on an unknown value; by
    ``run_epr`` on a query that is too long or holds anything but ``Atom``s;
    by ``render_report`` and ``report_to_dict`` on an unknown semantics; and
    by ``str()`` of a scalar too long to print in decimal.
    It is also a ``ValueError``, so callers that catch ``ValueError`` keep working.
    """
