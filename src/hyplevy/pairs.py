"""Admissible dimension pairs and their closed-form moments.

A pair (d, k) is admissible when 1 <= k <= d - 1 and 2k > d + 1. Its Levy
measure has total second moment

    pi^((d-k)/2) Gamma((2k-d-1)/2) / Gamma((k-1)/2)

and m-th moment (omega_(d-k)/2) B(((k-1)m - (d-1))/2, (d-k)/2), where
omega_b is the surface measure of the unit sphere in R^b. Everything here
is evaluated in log space with math and specfun alone, so the CLI paths
that need only these numbers (variance, classify, probe) start without
numpy; the measures themselves live in hyplevy.measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InadmissiblePairError, _integer, _real
from .specfun import _log_gamma_ratio_size, log_gamma, log_gamma_ratio

__all__ = [
    "DimensionPair",
    "is_admissible",
    "log_sphere_surface",
    "variance",
    "log_variance",
    "cumulant",
]


def is_admissible(d: int, k: int) -> bool:
    """True when 1 <= k <= d - 1 and 2k > d + 1.

    The second constraint is what makes the total second moment finite;
    together they force the small-jump index (d-1)/(k-1) into (1, 2).
    False for anything but two integers (numpy's count, bools do not).
    """
    d, k = _integer(d), _integer(k)
    return d is not None and k is not None and 1 <= k <= d - 1 and 2 * k > d + 1


@dataclass(frozen=True)
class DimensionPair:
    """An admissible (dimension, flat-dimension) pair; numpy integers are
    held as Python ints, so equal pairs hash and serialize alike."""

    d: int
    k: int

    def __post_init__(self) -> None:
        if not is_admissible(self.d, self.k):
            raise InadmissiblePairError(
                f"(d, k) = ({self.d!r}, {self.k!r}) violates 1 <= k <= d-1, 2k > d+1"
            )
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "k", int(self.k))

    @property
    def r(self) -> int:
        """2k - d - 1, the Beta shape driving the second moment (>= 1)."""
        return 2 * self.k - self.d - 1

    @property
    def codim(self) -> int:
        """d - k (>= 1)."""
        return self.d - self.k

    @property
    def alpha(self) -> float:
        """Small-jump index (d-1)/(k-1), always in (1, 2)."""
        return (self.d - 1) / (self.k - 1)

    @property
    def u_power(self) -> float:
        """The substitution exponent 2/(k-1): u = x^u_power."""
        return 2.0 / (self.k - 1)


def log_sphere_surface(b: float) -> float:
    """log of the surface measure omega_b = 2 pi^(b/2) / Gamma(b/2) of the
    unit sphere in R^b."""
    value = _real(b)
    if value is None or not value > 0:
        raise DomainError(f"log_sphere_surface requires b > 0, got {b!r}")
    return math.log(2.0) + 0.5 * value * math.log(math.pi) - log_gamma(0.5 * value)


def _log_cumulant(pair: DimensionPair, m: int) -> float:
    """log of the m-th moment of the finite-dimension measure,
    pi^((d-k)/2) Gamma(p) / Gamma(p + (d-k)/2) with p = ((k-1)m - (d-1))/2."""
    p = 0.5 * ((pair.k - 1) * m - (pair.d - 1))
    return 0.5 * pair.codim * math.log(math.pi) - log_gamma_ratio(p, 0.5 * pair.codim)


def _log_cumulant_size(pair: DimensionPair, m: int) -> float:
    """The sum of the magnitudes of the terms _log_cumulant adds up: a few
    ulp of it bound that log's rounding error."""
    p = 0.5 * ((pair.k - 1) * m - (pair.d - 1))
    return 0.5 * pair.codim * math.log(math.pi) + _log_gamma_ratio_size(p, 0.5 * pair.codim)


def log_variance(pair: DimensionPair) -> float:
    """log of the total second moment of the finite-dimension measure."""
    return _log_cumulant(pair, 2)


def variance(pair: DimensionPair) -> float:
    """Total second moment (the variance of the zero-mean law).

    Closed form pi^((d-k)/2) Gamma((2k-d-1)/2) / Gamma((k-1)/2); the Gamma
    ratio is evaluated by log_gamma_ratio.
    """
    return math.exp(log_variance(pair))


def cumulant(pair: DimensionPair, m: int) -> float:
    """m-th cumulant of the zero-mean law, m >= 2.

    Equals the m-th moment of the measure,
    (omega_(d-k)/2) B(((k-1)m - (d-1))/2, (d-k)/2).
    """
    order = _integer(m)
    if order is None or order < 2:
        raise DomainError(f"cumulant requires integer order m >= 2, got {m!r}")
    return math.exp(_log_cumulant(pair, order))


def _check_codim(b) -> int:
    codim = _integer(b)
    if codim is None or codim < 1:
        raise DomainError(f"codimension must be an integer >= 1, got {b!r}")
    return codim
