"""Exception hierarchy for hyplevy, and the argument type tests that
decide when its modules raise it.

Every error raised deliberately by the library derives from HyplevyError, so
callers can catch one base class. Domain violations also derive from
ValueError and convergence breakdowns from RuntimeError, matching what the
standard library would raise in the same situation.
"""

from __future__ import annotations

import numbers

__all__ = [
    "HyplevyError",
    "DomainError",
    "InadmissiblePairError",
    "DivergentMomentError",
    "ConvergenceError",
    "QuadratureError",
    "DecayDetectionError",
    "SamplerConfigError",
]


class HyplevyError(Exception):
    """Base class for all hyplevy errors."""


class DomainError(HyplevyError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InadmissiblePairError(DomainError):
    """A dimension pair (d, k) violates the admissibility constraints."""


class DivergentMomentError(DomainError):
    """A requested integral diverges (small-jump mean with index >= 1)."""


class ConvergenceError(HyplevyError, RuntimeError):
    """An iterative scheme failed to reach its tolerance within max_iter."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature could not certify the requested accuracy."""


class DecayDetectionError(ConvergenceError):
    """The characteristic function did not fall below the truncation
    threshold within the searched frequency window."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class SamplerConfigError(HyplevyError, ValueError):
    """A sampler configuration is unusable (for example the jump intensity
    at the requested cutoff overflows practical Poisson simulation)."""


def _integer(value) -> int | None:
    """value as a Python int if it is an integer, numpy's included; None
    for anything else, a bool too. A Python int skips the slow ABC test."""
    if type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool):
        return int(value)
    return None


def _real(value) -> float | None:
    """value as a Python float if it is a real number, numpy's included;
    None for anything else (a complex, a string, None), a bool too, and an
    int too large for a double. A Python float or int skips the slow ABC
    test."""
    if type(value) in (float, int) or (isinstance(value, numbers.Real) and type(value) is not bool):
        try:
            return float(value)
        except OverflowError:
            return None
    return None
