"""Exception types shared across the package."""


class GraphicahedronError(Exception):
    """Base class for all library-specific errors."""


class ParseError(GraphicahedronError):
    """Malformed graph input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CapacityError(GraphicahedronError):
    """The requested computation exceeds the configured size bound."""


class DisconnectedGraphError(GraphicahedronError):
    """The polytope construction requires a connected graph."""


class InternalInconsistencyError(GraphicahedronError):
    """Two independent computations of the same quantity disagree."""


class NotThinError(InternalInconsistencyError, ValueError):
    """A poset fails the frame check: to the CLI, which built the poset, an
    inconsistency; to a library caller, which passed it in, a ValueError."""
