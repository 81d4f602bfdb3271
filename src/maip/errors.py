"""Exception types that callers catch by name.

A :class:`TangleError` subclass exists only for a condition some caller
catches by name; each one here is turned into exit 2 by the CLI.  A bad
argument raises ``ValueError`` instead.
"""


class TangleError(Exception):
    """Base class of the conditions a caller catches by name."""


class MissingSymbol(TangleError):
    """A numeric substitution did not cover every symbol present."""


class SymbolicExponent(TangleError):
    """An operation requiring constant exponents met a symbolic one."""


class DiagramParseError(TangleError):
    """Malformed diagram text; carries a 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, col {column or 1}: {message}"
        super().__init__(message)


class ValidationFailure(TangleError):
    """A diagram violated structural invariants; carries the full list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ArityMismatch(TangleError):
    """Boundary arities do not line up for stacking or composition."""


class OrientationMismatch(TangleError):
    """A gluing would join a start to a start or an end to an end."""


class HasSingular(TangleError):
    """Operation requires a diagram without singular crossings."""
