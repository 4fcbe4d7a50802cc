"""The family of Levy measures on (0, 1) and their exact moments.

Two parametric families live here. The finite-dimension family has density

    coef * x^(-1 - (d-1)/(k-1)) * (1 - x^(2/(k-1)))^((d-k)/2 - 1)

on (0, 1) with coef = omega_(d-k) / (k - 1), where omega_b is the surface
measure of the unit sphere in R^b. Its total second moment has the closed
form pi^((d-k)/2) Gamma((2k-d-1)/2) / Gamma((k-1)/2), and all higher
moments are Beta values. The codimension-limit family (the b = d - k ->
constant limit of the unit-second-moment rescaling) has density

    Gamma(b/2)^(-1) * x^(-2) * (-log x)^((b-2)/2)

with m-th moment (m - 1)^(-b/2). Everything is evaluated in log space;
density evaluators are numpy vectorized and return 0 outside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InadmissiblePairError
from .specfun import log_gamma, log_gamma_ratio

__all__ = [
    "DimensionPair",
    "LevyMeasure1D",
    "LevyTriplet",
    "is_admissible",
    "sphere_surface",
    "log_sphere_surface",
    "levy_density",
    "variance",
    "log_variance",
    "cumulant",
    "normalized_density",
    "codim_limit_density",
    "codim_limit_cumulant",
    "make_measure",
]


def is_admissible(d: int, k: int) -> bool:
    """True when 1 <= k <= d - 1 and 2k > d + 1.

    The second constraint is what makes the total second moment finite;
    together they force the small-jump index (d-1)/(k-1) into (1, 2).
    """
    if not (isinstance(d, int) and isinstance(k, int)):
        return False
    return 1 <= k <= d - 1 and 2 * k > d + 1


@dataclass(frozen=True)
class DimensionPair:
    """An admissible (dimension, flat-dimension) pair."""

    d: int
    k: int

    def __post_init__(self) -> None:
        if not is_admissible(self.d, self.k):
            raise InadmissiblePairError(
                f"(d, k) = ({self.d}, {self.k}) violates 1 <= k <= d-1, 2k > d+1"
            )

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


@dataclass(frozen=True)
class LevyMeasure1D:
    """A Levy measure on (0, 1) with finite total second moment.

    density is a vectorized evaluator; the singularity metadata records the
    power-law behavior at the endpoints: density ~ C x^(-1 - sing_at_0)
    near 0 (times a power of -log x when sing_log_at_0 is set) and
    ~ C' (1 - x)^sing_at_1 near 1.
    """

    family: str
    pair: DimensionPair | None
    codim: int | None
    sing_at_0: float
    sing_log_at_0: bool
    sing_at_1: float
    total_second_moment: float
    density: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)


@dataclass(frozen=True)
class LevyTriplet:
    """Kolmogorov-style triplet (0, 0, measure) of the zero-mean laws."""

    gaussian_part: float
    drift: float
    measure: LevyMeasure1D

    def __post_init__(self) -> None:
        if self.gaussian_part != 0.0 or self.drift != 0.0:
            raise DomainError("these laws have triplet (0, 0, measure)")


def log_sphere_surface(b: float) -> float:
    """log of the surface measure of the unit sphere in R^b."""
    if not b > 0:
        raise DomainError(f"sphere_surface requires b > 0, got {b!r}")
    return math.log(2.0) + 0.5 * b * math.log(math.pi) - log_gamma(0.5 * b)


def sphere_surface(b: float) -> float:
    """Surface measure omega_b = 2 pi^(b/2) / Gamma(b/2); omega_1 = 2."""
    return math.exp(log_sphere_surface(b))


def _log_cumulant(pair: DimensionPair, m: int) -> float:
    """log of the m-th moment of the finite-dimension measure,
    pi^((d-k)/2) Gamma(p) / Gamma(p + (d-k)/2) with p = ((k-1)m - (d-1))/2."""
    p = 0.5 * ((pair.k - 1) * m - (pair.d - 1))
    return 0.5 * pair.codim * math.log(math.pi) - log_gamma_ratio(p, 0.5 * pair.codim)


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
    if not (isinstance(m, int) and m >= 2):
        raise DomainError(f"cumulant requires integer order m >= 2, got {m!r}")
    return math.exp(_log_cumulant(pair, m))


def _pair_density(pair: DimensionPair, x, log_coef: float):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > 0.0) & (arr < 1.0)
    if np.any(inside):
        lx = np.log(arr[inside])
        e1 = 0.5 * pair.codim - 1.0
        logf = log_coef + (-1.0 - pair.alpha) * lx
        if e1 != 0.0:
            logf = logf + e1 * np.log(-np.expm1(pair.u_power * lx))
        with np.errstate(over="ignore"):
            # inf for x below the representable range is the honest value
            out[inside] = np.exp(logf)
    return float(out[0]) if scalar else out


def _pair_log_coef(pair: DimensionPair) -> float:
    return log_sphere_surface(pair.codim) - math.log(pair.k - 1.0)


def levy_density(pair: DimensionPair, x):
    """Density of the finite-dimension measure at x; 0 outside (0, 1).

    Accepts scalars or arrays. The factor (1 - x^(2/(k-1)))^((d-k)/2 - 1)
    goes through expm1/log1p so that values near 1 keep full precision.
    """
    return _pair_density(pair, x, _pair_log_coef(pair))


def normalized_density(pair: DimensionPair, x):
    """Density of the unit-second-moment rescaling, levy_density / variance."""
    return _pair_density(pair, x, _pair_log_coef(pair) - log_variance(pair))


def _check_codim(b: int) -> None:
    if not (isinstance(b, int) and b >= 1):
        raise DomainError(f"codimension must be an integer >= 1, got {b!r}")


def codim_limit_density(b: int, x):
    """Density of the fixed-codimension limit measure; 0 outside (0, 1)."""
    _check_codim(b)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > 0.0) & (arr < 1.0)
    if np.any(inside):
        lx = np.log(arr[inside])
        e2 = 0.5 * (b - 2.0)
        logf = -log_gamma(0.5 * b) - 2.0 * lx
        if e2 != 0.0:
            logf = logf + e2 * np.log(-lx)
        with np.errstate(over="ignore"):
            # inf for x below the representable range is the honest value
            out[inside] = np.exp(logf)
    return float(out[0]) if scalar else out


def codim_limit_cumulant(b: int, m: int) -> float:
    """m-th cumulant (1/(m-1))^(b/2) of the fixed-codimension limit law."""
    _check_codim(b)
    if not (isinstance(m, int) and m >= 2):
        raise DomainError(f"cumulant requires integer order m >= 2, got {m!r}")
    return float(m - 1.0) ** (-0.5 * b)


def make_measure(kind: str, param) -> LevyMeasure1D:
    """Build one of the shipped measures.

    kind "hyperbolic" or "rescaled" takes a DimensionPair (raw measure,
    respectively its unit-second-moment rescaling); kind "limit" takes the
    codimension b of the fixed-codimension limit measure.
    """
    if kind in ("hyperbolic", "rescaled"):
        pair = param
        if not isinstance(pair, DimensionPair):
            raise DomainError(f"kind {kind!r} requires a DimensionPair, got {param!r}")
        rescale = kind == "rescaled"
        dens = (
            (lambda x, _p=pair: normalized_density(_p, x))
            if rescale
            else (lambda x, _p=pair: levy_density(_p, x))
        )
        return LevyMeasure1D(
            family=kind,
            pair=pair,
            codim=None,
            sing_at_0=pair.alpha,
            sing_log_at_0=False,
            sing_at_1=0.5 * pair.codim - 1.0,
            total_second_moment=1.0 if rescale else variance(pair),
            density=dens,
        )
    if kind == "limit":
        b = param
        _check_codim(b)
        return LevyMeasure1D(
            family="limit",
            pair=None,
            codim=b,
            sing_at_0=1.0,
            sing_log_at_0=True,
            sing_at_1=0.5 * (b - 2.0),
            total_second_moment=1.0,
            density=lambda x, _b=b: codim_limit_density(_b, x),
        )
    raise DomainError(f"unknown measure kind {kind!r}")
