"""Exception types shared across the package."""


class MixmonoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MixmonoError):
    pass


class DomainError(MixmonoError):
    """Real or interval evaluation left the domain of an operator."""


class DivisionByZeroInterval(DomainError):
    """Interval division by an interval containing zero."""


class UnknownIdentifier(MixmonoError):
    pass


class ExprSyntaxError(MixmonoError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ModelSyntaxError(MixmonoError):
    """Model-file parse failure; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class UnboundedBothSides(MixmonoError):
    """A Clarke-derivative bound is unbounded on both sides."""


class InfiniteJacobianEntry(MixmonoError):
    """Centered/mixed-centered forms need two-sided finite Jacobian bounds."""


class NotSignStable(MixmonoError):
    """Vertex enumeration needs every partial-derivative bound sign-stable."""

    def __init__(self, entries):
        self.entries = list(entries)
        super().__init__(f"sign-unstable Jacobian entries: {self.entries}")


class CandidateExplosion(MixmonoError):
    pass


class CellBudgetExceeded(MixmonoError):
    pass


class MissingDiagonalValue(MixmonoError):
    pass


class EmptyIntersection(MixmonoError):
    pass


class EmptySolution(MixmonoError):
    """Set inversion ruled out the entire prior box."""


class InvertedBounds(MixmonoError):
    """Internal tripwire: an enclosure or embedding step produced lower > upper."""


class NonFiniteState(MixmonoError):
    pass


class ValidationError(MixmonoError):
    pass


class IoError(MixmonoError):
    pass
