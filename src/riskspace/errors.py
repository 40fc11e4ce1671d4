"""Exception types shared across the package, the one input check and the
one capacity check."""

import numpy as np


class ValidationError(ValueError):
    """An input violates a data invariant.

    ``field`` names the offending field, indexed where possible
    (e.g. ``"eta[2][1]"``), so front ends can report it verbatim.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def require(ok, name: str, reason: str) -> None:
    """Raise :class:`ValidationError` unless every entry of ``ok`` holds.

    State the valid condition, never the bad one: ``require(p >= 1, "p",
    ...)``, ``require(np.isfinite(a) & (a >= 0), "a", ...)``.  NaN fails
    every comparison, so a stated valid condition refuses it without a
    special case, where ``if p < 1: raise`` lets it through.

    ``ok`` is a boolean scalar or array.  The error names the first false
    entry in ``np.argwhere`` (C) order, ``name[i][j]`` for an array and
    ``name`` for a scalar, and its message is that field followed by
    ``reason``.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    field = name + "".join(f"[{i}]" for i in np.argwhere(~ok)[0])
    raise ValidationError(f"{field} {reason}", field=field)


class CapacityError(RuntimeError):
    """An exact computation was requested beyond its size cap."""

    def __init__(self, message: str, cap: str | None = None, actual=None):
        super().__init__(message)
        self.cap = cap
        self.actual = actual


def within_cap(actual: int, limit: int, cap: str, what: str) -> None:
    """Raise :class:`CapacityError` unless ``actual <= limit``.

    ``what`` says what needs the limit (``"a sample needs n"``); the message
    is ``what`` followed by ``<= limit, got actual``, and the error carries
    ``cap`` and ``actual`` for front ends.
    """
    if actual > limit:
        raise CapacityError(f"{what} <= {limit}, got {actual}", cap=cap,
                            actual=actual)


class SolverError(RuntimeError):
    """A linear program that should be solvable was reported unsolved."""
