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

This module is the only one that tells the families apart. The sampler
and spectral modules ask the shape, never its type: for the incomplete
Beta or Gamma arguments of a partial moment (beta_args, gamma_args), for
the jump table's panels graded toward the cutoff (graded_bounds), and for
the half-line flag that picks psi's quadrature rule (half_line). A
quadrature result meets the measure's constant exp(log_coef + log_weight)
in one place, LevyMeasure1D._times_coef, whether it is a partial moment
or psi's complex rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _real
from .pairs import (
    DimensionPair,
    _check_codim,
    _log_cumulant,
    _log_cumulant_size,
    log_sphere_surface,
    log_variance,
)
from .specfun import _LOG_MAX, log_gamma

__all__ = [
    "LevyMeasure1D",
    "PairShape",
    "LimitShape",
    "make_measure",
]


class _Shape:
    """What the pair and limit shapes share."""

    @property
    def end_power(self) -> float:
        """b/2 - 1, the power of the endpoint factor: 1 - u for a pair, v
        for the limit."""
        return 0.5 * self.codim - 1.0

    def moment(self, m: int, log_weight: float = 0.0) -> float:
        """integral of x^m over the weighted measure, m >= 2:
        exp(log_moment), so it underflows to 0 only where the value does."""
        return math.exp(self.log_moment(m, log_weight))


@dataclass(frozen=True)
class PairShape(_Shape):
    """A pair measure in u = x^(2/(k-1)): (omega_b / 2) u^(-(d+1)/2)
    (1 - u)^(b/2-1) du on (0, 1).

    Above a cutoff the sampler works in y = 1 - u = end_factor(log x),
    where the density is y^(b/2-1) g_reg(y) up to the constant; x_of_y
    and the two derivatives convert between y and x.
    """

    pair: DimensionPair
    half_line = False  # u runs over (0, 1)

    def __post_init__(self) -> None:
        if not isinstance(self.pair, DimensionPair):
            raise DomainError(f"a pair shape needs a DimensionPair, got {self.pair!r}")

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

    def log_moment(self, m: int, log_weight: float = 0.0) -> float:
        """log of the integral of x^m over the weighted measure, m >= 2;
        the weight is added in log space, where a tiny sigma^2 cannot
        underflow."""
        return _log_cumulant(self.pair, m) + log_weight

    def log_moment_size(self, m: int) -> float:
        """The sum of the magnitudes of the terms log_moment adds up, weight
        aside: a few ulp of it bound log_moment's rounding error."""
        return _log_cumulant_size(self.pair, m)

    def beta_args(self, delta: float, m: int):
        """(p, q, y) such that the share of moment(m) below delta is the
        regularized incomplete Beta I_y(p, q); None for m < 2."""
        if m < 2:
            return None
        p = 0.5 * ((self.pair.k - 1.0) * m - (self.pair.d - 1.0))
        return p, 0.5 * self.pair.codim, delta**self.pair.u_power

    def graded_bounds(self, delta: float) -> np.ndarray:
        """Jump-table panel boundaries in w = y^(b/2) graded toward the
        cutoff, where g_reg = (1 - y)^(-(d+1)/2) peaks as 1 - y falls to
        a = delta^(2/(k-1)): y = 1 - a 2^(j/4), quarter octaves in 1 - y,
        for every j >= 1 with a 2^(j/4) < 1."""
        a = delta**self.pair.u_power
        gaps = a * 2.0 ** (np.arange(1, math.ceil(-4.0 * math.log2(a))) / 4.0)
        return np.power(1.0 - gaps[gaps < 1.0], 0.5 * self.codim)

    def upper_integrand(self, delta: float, m: int):
        """f: the integral of x^m over the measure above delta is the
        constant times the tanh_sinh integral of f over (0, y_max),
        y_max = upper_y(delta).

        It is the integral of u^((k-1)m/2 - (d+1)/2) (1-u)^(b/2-1) du over
        (a, 1), a = delta^(2/(k-1)), run in y = 1 - u: the node gives
        1 - u, and u = a + (y_max - y) keeps full precision at both ends.
        A node y that rounds to 0 (y_max below 1e-16 or so) is taken as
        the least subnormal, so y^(b/2-1) stays finite and 1 at b = 2."""
        pair = self.pair
        a = delta**pair.u_power
        e_pow = 0.5 * ((pair.k - 1.0) * m - pair.d - 1.0)
        e_side = self.end_power
        tiny = math.ulp(0.0)

        def integrand(y: np.ndarray, dist: np.ndarray) -> np.ndarray:
            side = np.exp(e_side * np.log(np.maximum(y, tiny)))
            return np.exp(e_pow * np.log(a + dist)) * side

        return integrand

    def phase_terms(self, u: np.ndarray, um1: np.ndarray):
        """psi's node factors at u (um1 = 1 - u): x, the measure's factor
        top = u^(-(d+1)/2) (1-u)^(b/2-1) and the products x^j top for
        j = 2..5 as the rows of one (4, nodes) array, built from the finite
        exponent (r/2 - 1) upward, so they stay finite where top
        overflows."""
        pair = self.pair
        lu = np.log(u)
        x = np.exp(0.5 * (pair.k - 1.0) * lu)
        side = np.exp(self.end_power * np.log(um1))
        powers = np.empty((4, len(u)))
        np.multiply(np.exp((0.5 * pair.r - 1.0) * lu), side, out=powers[0])
        for j in range(1, 4):
            np.multiply(powers[j - 1], x, out=powers[j])
        with np.errstate(over="ignore", invalid="ignore"):
            top = np.exp(-0.5 * (pair.d + 1.0) * lu) * side
        return x, top, powers

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

    def dy_dx_abs(self, x: np.ndarray):
        p = self.pair.u_power
        return p * np.power(x, p - 1.0)


@dataclass(frozen=True)
class LimitShape(_Shape):
    """The codimension-limit measure in v = -log x: Gamma(b/2)^(-1) e^v
    v^((b-2)/2) dv on (0, inf), b = codim.

    Above a cutoff the sampler works in y = v = end_factor(log x) too, where
    the density is y^(b/2-1) g_reg(y), g_reg = e^y, up to the constant.
    """

    codim: int
    half_line = True  # v runs over (0, inf)
    alpha = 1.0  # density ~ x^(-2) (-log x)^((b-2)/2) near 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "codim", _check_codim(self.codim))

    @property
    def log_coef(self) -> float:
        """log(1 / Gamma(b/2)), also the constant of the density in x."""
        return -log_gamma(0.5 * self.codim)

    log_density_coef = log_coef

    def end_factor(self, lx: np.ndarray) -> np.ndarray:
        """-log x from lx = log x."""
        return -lx

    def log_moment(self, m: int, log_weight: float = 0.0) -> float:
        """log of the integral of x^m over the weighted measure,
        log_weight - (b/2) log(m - 1), m >= 2: finite at every b, where
        (m - 1)^(-b/2) itself underflows."""
        return log_weight - 0.5 * self.codim * math.log(m - 1.0)

    def log_moment_size(self, m: int) -> float:
        """(b/2) log(m - 1), in the sense of PairShape.log_moment_size."""
        return 0.5 * self.codim * math.log(m - 1.0)

    def beta_args(self, delta: float, m: int):
        """None: the partial moments are incomplete Gammas, integrated by
        quadrature of upper_integrand's f where its sums stay finite, else
        taken from gamma_args."""
        return None

    def gamma_args(self, delta: float, m: int):
        """(a, x) such that the share of moment(m) below delta, m >= 2, is
        the regularized upper incomplete Gamma Q(a, x): a = b/2 and
        x = (m - 1) v_cut, v_cut = upper_y(delta)."""
        return 0.5 * self.codim, (m - 1.0) * self.upper_y(delta)

    def graded_bounds(self, delta: float) -> tuple:
        """No boundaries: the limit shape's jump-table panels are not
        graded toward the cutoff."""
        return ()

    def upper_integrand(self, delta: float, m: int):
        """f: the integral of x^m over the measure above delta is the
        constant times the tanh_sinh integral of f over (0, v_cut), and
        below it its exp_sinh integral over (v_cut, inf), v_cut = upper_y(delta).

        f is e^(-(m-1) v) v^((b-2)/2), taken as one exp of
        ((b-2)/2) log v - (m-1) v, so v^((b-2)/2) never overflows on its
        own where the product is finite. It accepts (and ignores) the
        tanh_sinh distance argument."""
        e_log = self.end_power

        def f(v: np.ndarray, _unused=None) -> np.ndarray:
            with np.errstate(over="ignore"):
                return np.exp(e_log * np.log(v) - (m - 1.0) * v)

        return f

    def phase_terms(self, v: np.ndarray):
        """psi's node factors at v: x = e^(-v), top = e^v v^((b-2)/2)
        and the products x^j top for j = 2..5 as the rows of one
        (4, nodes) array: the first is one exp of ((b-2)/2) log v - v, the
        others follow by factors e^(-v), so none forms the overflowing
        v^((b-2)/2) on its own. Past v = 700, x < 1e-304 puts |t| x below
        1e-4 for every |t| < 1e300, so the kernel takes the Taylor form
        there and never sums top."""
        ev = np.exp(-v)
        lv = self.end_power * np.log(v)
        powers = np.empty((4, len(v)))
        with np.errstate(over="ignore"):
            np.exp(lv - v, out=powers[0])
            top = np.exp(v + lv)
        for j in range(1, 4):
            np.multiply(powers[j - 1], ev, out=powers[j])
        return ev, top, powers

    def upper_y(self, delta: float) -> float:
        """v at the cutoff, -log delta."""
        return -math.log(delta)

    def g_reg(self, y: np.ndarray) -> np.ndarray:
        return np.exp(y)

    def x_of_y(self, y: np.ndarray) -> np.ndarray:
        return np.exp(-y)

    def dx_dy(self, y: np.ndarray):
        return -np.exp(-y)

    def dy_dx_abs(self, x: np.ndarray):
        return 1.0 / x


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
        weight = _real(self.log_weight)
        if weight is None or not math.isfinite(weight):
            raise DomainError(f"log_weight must be finite, got {self.log_weight!r}")
        object.__setattr__(self, "log_weight", weight)

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

    def _times_coef(self, integral):
        """The constant in front of the shape's integrals, weight included,
        times a quadrature result: a float, or psi's complex rows. The one
        place such a product is taken: plainly where the constant is a
        normal double; in logs where it is subnormal (the limit family from
        b = 343) or 0.0 (from b = 357); DomainError where its log, though
        finite, is past the double range (rescaled pairs from about
        d = 2968 at k = 3d/4)."""
        log_coef = self.shape.log_coef + self.log_weight
        if log_coef > _LOG_MAX:
            raise DomainError(
                f"the measure's constant exp(log_coef + log_weight) = "
                f"exp({self.shape.log_coef:.6g} + {self.log_weight:.6g}) = exp({log_coef:.6g}) "
                "overflows a double"
            )
        coef = math.exp(log_coef)
        if coef >= sys.float_info.min:
            return coef * integral
        if np.ndim(integral):
            with np.errstate(divide="ignore"):
                return np.exp(log_coef + np.log(integral))
        return math.exp(log_coef + math.log(integral)) if integral > 0.0 else 0.0

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
        lx = np.log(arr[inside])
        logf = (
            shape.log_density_coef + self.log_weight + (-1.0 - shape.alpha) * lx
            + shape.end_power * np.log(shape.end_factor(lx))
        )
        with np.errstate(over="ignore"):
            out[inside] = np.exp(logf)
        return float(out[0]) if scalar else out


def make_measure(kind: str, param) -> LevyMeasure1D:
    """Build one of the shipped measures.

    kind "hyperbolic" or "rescaled" takes a DimensionPair (raw measure,
    respectively its unit-second-moment rescaling); kind "limit" takes the
    codimension b of the fixed-codimension limit measure.
    """
    if kind in ("hyperbolic", "rescaled"):
        shape = PairShape(param)
        log_weight = -log_variance(param) if kind == "rescaled" else 0.0
    elif kind == "limit":
        shape, log_weight = LimitShape(param), 0.0
    else:
        raise DomainError(f"unknown measure kind {kind!r}")
    return LevyMeasure1D(shape, log_weight)
