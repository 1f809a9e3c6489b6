"""Exception hierarchy shared by all eikograph modules, and the one reader
of the numbers that public names take.

The contract: a public name raises an :class:`EikographError` subclass that
names the argument it cannot use.  Only two other kinds may escape: an
``OSError`` from the file readers and writers (``read_graph``'s
``FileNotFoundError``, say), and whatever a caller's own callback raises
(``field_from_function``'s ``fn``, ``induce_intrinsic``'s ``dist``).
"""

from __future__ import annotations

import math
from typing import Callable


class EikographError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EikographError):
    """Malformed input data (bad lengths, unknown ids, schema violations)."""


class ConnectivityError(EikographError):
    """A graph or subgraph that must be connected is not."""


class MetricError(EikographError):
    """A supplied distance table violates the metric axioms."""


class FieldError(EikographError):
    """A scalar field is missing values or violates its role constraints."""


class ProblemError(EikographError):
    """A Dirichlet problem is not well posed (e.g. empty boundary)."""


class GraphError(EikographError):
    """A graph query was asked at a vertex where it is undefined."""


class HamiltonianError(EikographError):
    """Hamiltonian evaluation failed or validation rejected it."""


class CoercivityError(HamiltonianError):
    """Root bracketing exceeded the coercivity cap without a sign change."""


class ConvergenceError(EikographError):
    """Fixed-point iteration did not converge; carries the residual history."""

    def __init__(self, message: str, history: list[float] | None = None):
        super().__init__(message)
        self.history = list(history or [])


def _is_json_number(value) -> bool:
    """An int or a float: JSON's numbers, not the booleans and strings that
    float() also takes."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _any(x: float) -> bool:
    """The rule "a number" where a later reader judges NaN and the infinities."""
    return True


def _not_nan(x: float) -> bool:
    """The rule "a number" of a tolerance: any but NaN."""
    return x == x


def _number(value, what: str, rule: str, ok: Callable, error: type = ValidationError, integer: bool = False):
    """``value`` as a door reads it: an int (never a bool) when ``integer``,
    else the float nearest to an int or float, an int beyond binary64 as an
    infinity.  Raises ``error`` "{what} must be {rule}, got {value!r}"
    unless it is such a number and ``ok`` holds of it."""
    if _is_json_number(value) and not (integer and isinstance(value, float)):
        try:
            x = value if integer else float(value)
        except OverflowError:
            x = math.inf if value > 0 else -math.inf
        if ok(x):
            return x
    raise error(f"{what} must be {rule}, got {value!r}")
