"""Exception types shared across the package."""


class TangleError(Exception):
    """Base class for all errors raised by this package."""


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


class DirectionMismatch(TangleError):
    """Generator-word rows disagree on a strand direction."""


class ArityMismatch(TangleError):
    """Boundary arities do not line up for stacking or composition."""


class OrientationMismatch(TangleError):
    """A gluing would join a start to a start or an end to an end."""


class NotClassical(TangleError):
    """Operation requires a classical crossing."""


class HasSingular(TangleError):
    """Operation requires a diagram without singular crossings."""


class NoSingular(TangleError):
    """Operation requires at least one singular crossing."""


class NotApplicable(TangleError):
    """A rewrite site does not exist on the given diagram."""


class InconsistentPlan(TangleError):
    """A hand-made glue plan names a component the factors do not have."""
