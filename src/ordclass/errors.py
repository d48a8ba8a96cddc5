"""Exception types shared across the workbench."""


class OrdinalError(Exception):
    """Base class for all domain errors."""


class ParseError(OrdinalError):
    """Malformed input: an expression (at a character position) or a
    command line (position None)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class OrderUndecidable(OrdinalError):
    """Two leaves cannot be ordered by the generic-spacing rules."""

    def __init__(self, a, b):
        super().__init__(f"order undecidable between {a!r} and {b!r}")
        self.pair = (a, b)


class LevelViolation(OrdinalError):
    pass


class LeafOutsideDomain(OrdinalError):
    def __init__(self, leaf):
        super().__init__(f"leaf outside substitution domain: {leaf!r}")
        self.leaf = leaf


class MapInvalid(OrdinalError):
    pass


class CompositionUnsupported(OrdinalError):
    pass


class UndeclaredAtom(OrdinalError):
    def __init__(self, name):
        super().__init__(f"reference to undeclared atom {name!r}")
        self.name = name


class MissingMValue(OrdinalError):
    def __init__(self, term):
        super().__init__(f"no m-value available for {term!r}")
        self.term = term


class RegimeMixed(OrdinalError):
    pass


class Undecidable(OrdinalError):
    """A query (interval membership, ≤₁ fact) has no decided answer."""


class IterationCapExceeded(OrdinalError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class GridCapExceeded(OrdinalError):
    """Closure exceeded the point cap; carries the truncated grid points."""

    def __init__(self, partial_points, cap):
        super().__init__(f"grid closure exceeded cap of {cap} points")
        self.partial_points = partial_points
        self.cap = cap
