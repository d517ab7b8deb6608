"""Exception types shared across the package."""


class DhppError(Exception):
    """Base class for all errors raised by this package.

    An error raised while program text is read carries the source position
    of the construct that caused it in filename, line and col; these stay
    None for an error raised elsewhere."""

    filename: str | None = None
    line: int | None = None
    col: int | None = None


class InvalidInterval(DhppError):
    """Interval endpoints out of order or outside the allowed range."""


class ConstantOutOfRange(DhppError):
    """A probability constant fell outside [0, 1]."""


class AnnotationRangeError(DhppError):
    """An annotation function produced a value outside [0, 1]."""


class UnknownAnnotationFunction(DhppError):
    """Annotation function name not in the built-in table."""


class UnknownAggregateFunction(DhppError):
    """Aggregate name not one of the eleven supported functions."""


class UnknownStrategy(DhppError):
    """Strategy name not registered, or registered with the wrong kind."""


class DuplicateName(DhppError):
    """Attempt to register a strategy under a name already taken."""


class EmptyMultiset(DhppError):
    """Strategy composition folded over an empty multiset."""


class ParseError(DhppError):
    """Syntax or static error in program text, with source position."""

    def __init__(self, message: str, filename: str = "<string>", line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}: {self.message}"


class UnsafeVariable(ParseError):
    """Variable in a head or negative body with no binding occurrence."""


class UnboundAnnotationVariable(DhppError):
    """Annotation variable left unbound after condition matching."""


class UniverseOverflow(DhppError):
    """Grounding exceeded the configured rule or index cap."""


class SearchSpaceOverflow(DhppError):
    """Solver search exceeded the configured candidate or node cap."""


class NonExpansiveStrategy(DhppError):
    """A disjunctive strategy lowers a fold of an atom's head annotations, or
    folds them, in the order a search meets them, to a value off the value
    lattice: the solver cannot enumerate completely."""


class TooLarge(DhppError):
    """Input exceeds the size the brute-force oracle is willing to handle."""


class UnsupportedConstruct(DhppError):
    """Classical construct with no counterpart in the target language."""
