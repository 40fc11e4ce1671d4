"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a data invariant.

    ``field`` names the offending field, indexed where possible
    (e.g. ``"eta[2][1]"``), so front ends can report it verbatim.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class CapacityError(RuntimeError):
    """An exact computation was requested beyond its size cap."""

    def __init__(self, message: str, cap: str | None = None, actual=None):
        super().__init__(message)
        self.cap = cap
        self.actual = actual


class SolverError(RuntimeError):
    """A linear program that should be solvable was reported unsolved."""
