"""The family of Levy measures on (0, 1) and their exact moments.

Two parametric families live here. The finite-dimension family has density

    coef * x^(-1 - (d-1)/(k-1)) * (1 - x^(2/(k-1)))^((d-k)/2 - 1)

on (0, 1) with coef = omega_(d-k) / (k - 1), where omega_b is the surface
measure of the unit sphere in R^b. Its moments are the closed forms of
hyplevy.pairs. The codimension-limit family (the b = d - k -> constant
limit of the unit-second-moment rescaling) has density

    Gamma(b/2)^(-1) * x^(-2) * (-log x)^((b-2)/2)

with m-th moment (m - 1)^(-b/2). Everything is evaluated in log space;
density evaluators are numpy vectorized and return 0 outside (0, 1).

Shapes and weights. A shipped measure is a shape times a weight
exp(log_weight). The shape fixes the substitution in which the measure's
integrals are written and the constant in front of them:

- PairShape, for a dimension pair: u = x^(2/(k-1)) turns the measure into
  (omega_b / 2) u^(-(d+1)/2) (1 - u)^(b/2-1) du on (0, 1);
- LimitShape, for the codimension limit: x = e^(-v) turns it into
  Gamma(b/2)^(-1) e^v v^((b-2)/2) dv on (0, inf).

The hyperbolic measure is its pair shape with weight 1 (log_weight 0); the
rescaled measure nu / sigma^2 has log_weight -log sigma^2, and the limit
measure weight 1. Everything linear in the measure (moments, psi, tail
masses, the compensator) carries the weight; the conditional jump law
does not, so measures of one shape share one jump table. A
LevyMeasure1D is exactly a shape and a log_weight: its density, family
label and second moment are derived from them, and the sampler and
spectral modules work from the two alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pairs import (
    DimensionPair,
    _check_codim,
    _log_cumulant,
    log_sphere_surface,
    log_variance,
)
from .specfun import log_gamma

__all__ = [
    "LevyMeasure1D",
    "PairShape",
    "LimitShape",
    "levy_density",
    "normalized_density",
    "codim_limit_density",
    "codim_limit_cumulant",
    "make_measure",
]


class _Shape:
    """What the pair and limit shapes share."""

    @property
    def end_power(self) -> float:
        """b/2 - 1, the power of the endpoint factor: 1 - u for a pair, v
        for the limit."""
        return 0.5 * self.codim - 1.0


@dataclass(frozen=True)
class PairShape(_Shape):
    """A pair measure in u = x^(2/(k-1)): (omega_b / 2) u^(-(d+1)/2)
    (1 - u)^(b/2-1) du on (0, 1).

    Above a cutoff the sampler works in y = 1 - u, where the density is
    y^(b/2-1) g_reg(y) up to the constant; x_of_y, y_of_x and their
    derivatives convert between y and x.
    """

    pair: DimensionPair
    half_line = False  # u runs over (0, 1)

    @property
    def codim(self) -> int:
        return self.pair.codim

    @property
    def alpha(self) -> float:
        return self.pair.alpha

    @property
    def log_coef(self) -> float:
        """log(omega_b / 2)."""
        return log_sphere_surface(self.pair.codim) - math.log(2.0)

    @property
    def log_density_coef(self) -> float:
        """log(omega_b / (k - 1)), the constant of the density in x."""
        return log_sphere_surface(self.pair.codim) - math.log(self.pair.k - 1.0)

    def end_factor(self, lx: np.ndarray) -> np.ndarray:
        """1 - x^(2/(k-1)) from lx = log x, without cancellation near 1."""
        return -np.expm1(self.pair.u_power * lx)

    def moment(self, m: int, log_weight: float = 0.0) -> float:
        """integral of x^m over the weighted measure, m >= 2; the weight
        is added in log space, where a tiny sigma^2 cannot underflow."""
        return math.exp(_log_cumulant(self.pair, m) + log_weight)

    def beta_args(self, delta: float, m: int):
        """(p, q, y) such that the share of moment(m) below delta is the
        regularized incomplete Beta I_y(p, q); None for m < 2."""
        if m < 2:
            return None
        p = 0.5 * ((self.pair.k - 1.0) * m - (self.pair.d - 1.0))
        return p, 0.5 * self.pair.codim, delta**self.pair.u_power

    def upper_integrand(self, delta: float, m: int):
        """(f, y_max): the integral of x^m over the measure above delta is
        the constant times the tanh_sinh integral of f over (0, y_max).

        It is the integral of u^((k-1)m/2 - (d+1)/2) (1-u)^(b/2-1) du over
        (a, 1), a = delta^(2/(k-1)), run in y = 1 - u: the node gives
        1 - u, and u = a + (y_max - y) keeps full precision at both ends."""
        pair = self.pair
        a = delta**pair.u_power
        e_pow = 0.5 * ((pair.k - 1.0) * m - pair.d - 1.0)
        e_side = self.end_power

        def integrand(y: np.ndarray, dist: np.ndarray) -> np.ndarray:
            out = np.exp(e_pow * np.log(a + dist))
            if e_side != 0.0:
                out = out * np.exp(e_side * np.log(y))
            return out

        return integrand, self.upper_y(delta)

    def phase_terms(self, u: np.ndarray, um1: np.ndarray):
        """psi's node factors at u (um1 = 1 - u): x, the measure's factor
        top = u^(-(d+1)/2) (1-u)^(b/2-1), the products x^j top for
        j = 2..5 built from the finite exponent (r/2 - 1) upward, so they
        stay finite where top overflows, and no forced-small mask."""
        pair = self.pair
        lu = np.log(u)
        x = np.exp(0.5 * (pair.k - 1.0) * lu)
        e_side = self.end_power
        side = np.exp(e_side * np.log(um1)) if e_side != 0.0 else 1.0
        w2 = np.exp((0.5 * pair.r - 1.0) * lu) * side
        w3 = w2 * x
        w4 = w3 * x
        w5 = w4 * x
        with np.errstate(over="ignore", invalid="ignore"):
            top = np.exp(-0.5 * (pair.d + 1.0) * lu) * side
        return x, top, (w2, w3, w4, w5), None

    def upper_y(self, delta: float) -> float:
        """y at the cutoff, 1 - delta^(2/(k-1)), without the cancellation
        of 1 - a as delta -> 1."""
        return -math.expm1(self.pair.u_power * math.log(delta))

    def g_reg(self, y: np.ndarray) -> np.ndarray:
        return np.power(1.0 - y, -0.5 * (self.pair.d + 1.0))

    def x_of_y(self, y: np.ndarray) -> np.ndarray:
        return np.power(1.0 - y, 0.5 * (self.pair.k - 1.0))

    def dx_dy(self, y: np.ndarray):
        c = 0.5 * (self.pair.k - 1.0)
        return -c * np.power(1.0 - y, c - 1.0)

    def y_of_x(self, x: np.ndarray) -> np.ndarray:
        return -np.expm1(self.pair.u_power * np.log(x))

    def dy_dx_abs(self, x: np.ndarray):
        p = self.pair.u_power
        return p * np.power(x, p - 1.0)


@dataclass(frozen=True)
class LimitShape(_Shape):
    """The codimension-limit measure in v = -log x: Gamma(b/2)^(-1) e^v
    v^((b-2)/2) dv on (0, inf), b = codim.

    Above a cutoff the sampler works in y = 1 - x, where the density is
    y^(b/2-1) g_reg(y) up to the constant.
    """

    codim: int
    half_line = True  # v runs over (0, inf)
    alpha = 1.0  # density ~ x^(-2) (-log x)^((b-2)/2) near 0

    @property
    def log_coef(self) -> float:
        """log(1 / Gamma(b/2)), also the constant of the density in x."""
        return -log_gamma(0.5 * self.codim)

    log_density_coef = log_coef

    def end_factor(self, lx: np.ndarray) -> np.ndarray:
        """-log x from lx = log x."""
        return -lx

    def moment(self, m: int, log_weight: float = 0.0) -> float:
        """integral of x^m over the weighted measure, (m - 1)^(-b/2) times
        the weight, m >= 2."""
        return math.exp(log_weight) * float(m - 1.0) ** (-0.5 * self.codim)

    def beta_args(self, delta: float, m: int):
        """None: the partial moments are incomplete Gammas, integrated by
        quadrature of integrand(m)."""
        return None

    def integrand(self, m: int):
        """e^(-(m-1) v) v^((b-2)/2): the integral of x^m over the measure is
        the constant times its integral in v. It is taken as one exp of
        ((b-2)/2) log v - (m-1) v, so v^((b-2)/2) never overflows on its
        own where the product is finite. It accepts (and ignores) the
        tanh_sinh distance argument."""
        e_log = self.end_power

        def f(v: np.ndarray, _unused=None) -> np.ndarray:
            lv = e_log * np.log(v) if e_log != 0.0 else 0.0
            with np.errstate(over="ignore"):
                return np.exp(lv - (m - 1.0) * v)

        return f

    def upper_integrand(self, delta: float, m: int):
        """(f, v_cut): the integral of x^m over the measure above delta is
        the constant times the tanh_sinh integral of f over (0, v_cut)."""
        return self.integrand(m), -math.log(delta)

    def phase_terms(self, v: np.ndarray):
        """psi's node factors at v: x = e^(-v), top = e^v v^((b-2)/2)
        (capped at v = 700, past which the mask forces the Taylor form)
        and the products x^j top for j = 2..5: the first is one exp of
        ((b-2)/2) log v - v, the others follow by factors e^(-v), so none
        forms the overflowing v^((b-2)/2) on its own."""
        e_log = self.end_power
        ev = np.exp(-v)
        lv = e_log * np.log(v) if e_log != 0.0 else 0.0
        with np.errstate(over="ignore"):
            p2 = np.exp(lv - v)
            top = np.exp(np.minimum(v, 700.0) + lv)
        p3 = p2 * ev
        p4 = p3 * ev
        return ev, top, (p2, p3, p4, p4 * ev), v > 700.0

    def upper_y(self, delta: float) -> float:
        return 1.0 - delta

    def g_reg(self, y: np.ndarray) -> np.ndarray:
        base = np.power(1.0 - y, -2.0)
        if self.end_power == 0.0:
            return base
        # (-log(1-y))/y -> 1 as y -> 0; series guard below 1e-8
        ratio = np.where(
            y > 1e-8,
            -np.log1p(-np.maximum(y, 1e-300)) / np.maximum(y, 1e-300),
            1.0 + 0.5 * y,
        )
        return base * np.power(ratio, self.end_power)

    def x_of_y(self, y: np.ndarray) -> np.ndarray:
        return 1.0 - y

    def dx_dy(self, y: np.ndarray):
        return -1.0

    def y_of_x(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x

    def dy_dx_abs(self, x: np.ndarray):
        return 1.0


@dataclass(frozen=True)
class LevyMeasure1D:
    """A Levy measure on (0, 1) with finite total second moment: its shape
    times the weight exp(log_weight) (see the module docstring).

    The shape holds the pair or codimension and the small-jump index
    alpha, with density ~ C x^(-1 - alpha) near 0 (times a power of -log x
    for the limit); everything else is derived from the two fields.
    """

    shape: PairShape | LimitShape
    log_weight: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.shape, (PairShape, LimitShape)):
            raise DomainError(f"a measure needs a PairShape or LimitShape, got {self.shape!r}")
        if not (isinstance(self.log_weight, (int, float)) and math.isfinite(self.log_weight)):
            raise DomainError(f"log_weight must be finite, got {self.log_weight!r}")

    @property
    def family(self) -> str:
        """The family label: "limit" for the limit shape, and for a pair
        shape "hyperbolic" at weight 1, "rescaled" at any other weight."""
        if isinstance(self.shape, LimitShape):
            return "limit"
        return "hyperbolic" if self.log_weight == 0.0 else "rescaled"

    @property
    def total_second_moment(self) -> float:
        return self.shape.moment(2, self.log_weight)

    @property
    def coef(self) -> float:
        """The constant in front of the shape's integrals, weight included."""
        return math.exp(self.shape.log_coef + self.log_weight)

    def density(self, x):
        """exp(log_coef) x^(-1 - alpha) s(x)^(b/2 - 1), s the shape's
        endpoint factor and log_coef the shape's density constant plus the
        weight; vectorized, 0 outside (0, 1), and inf for x below the
        representable range, which is the honest value."""
        shape = self.shape
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        inside = (arr > 0.0) & (arr < 1.0)
        if np.any(inside):
            lx = np.log(arr[inside])
            logf = shape.log_density_coef + self.log_weight + (-1.0 - shape.alpha) * lx
            if shape.end_power != 0.0:
                logf = logf + shape.end_power * np.log(shape.end_factor(lx))
            with np.errstate(over="ignore"):
                out[inside] = np.exp(logf)
        return float(out[0]) if scalar else out


def levy_density(pair: DimensionPair, x):
    """Density of the finite-dimension measure at x; 0 outside (0, 1).

    Accepts scalars or arrays. The factor (1 - x^(2/(k-1)))^((d-k)/2 - 1)
    goes through expm1/log1p so that values near 1 keep full precision.
    """
    return make_measure("hyperbolic", pair).density(x)


def normalized_density(pair: DimensionPair, x):
    """Density of the unit-second-moment rescaling, levy_density / variance."""
    return make_measure("rescaled", pair).density(x)


def codim_limit_density(b: int, x):
    """Density of the fixed-codimension limit measure; 0 outside (0, 1)."""
    return make_measure("limit", b).density(x)


def codim_limit_cumulant(b: int, m: int) -> float:
    """m-th cumulant (1/(m-1))^(b/2) of the fixed-codimension limit law."""
    _check_codim(b)
    if not (isinstance(m, int) and m >= 2):
        raise DomainError(f"cumulant requires integer order m >= 2, got {m!r}")
    return LimitShape(b).moment(m)


def make_measure(kind: str, param) -> LevyMeasure1D:
    """Build one of the shipped measures.

    kind "hyperbolic" or "rescaled" takes a DimensionPair (raw measure,
    respectively its unit-second-moment rescaling); kind "limit" takes the
    codimension b of the fixed-codimension limit measure.
    """
    if kind in ("hyperbolic", "rescaled"):
        if not isinstance(param, DimensionPair):
            raise DomainError(f"kind {kind!r} requires a DimensionPair, got {param!r}")
        shape = PairShape(param)
        log_weight = -log_variance(param) if kind == "rescaled" else 0.0
    elif kind == "limit":
        _check_codim(param)
        shape, log_weight = LimitShape(param), 0.0
    else:
        raise DomainError(f"unknown measure kind {kind!r}")
    return LevyMeasure1D(shape, log_weight)
