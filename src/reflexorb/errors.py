"""Exceptions shared across the package. The CLI maps these to exit codes."""


class NotFullDimensionalError(ValueError):
    """Input points do not span the ambient space."""


class NotReflexiveError(ValueError):
    """Operation requires a reflexive polytope."""


class NotSimplicialError(ValueError):
    """Operation requires a simplicial fan."""


class HypothesisError(ValueError):
    """Formula hypotheses violated (ambient dimension below 4)."""


class AuditError(RuntimeError):
    """An internal invariant of a computation does not hold."""


class VertexFileError(ValueError):
    """Malformed vertex matrix text. Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
