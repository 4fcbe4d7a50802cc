"""Exact-law Monte Carlo via compensated big jumps plus a small-jump Gaussian.

A draw from the zero-mean infinitely divisible law with Levy measure nu is
assembled as

    sum of Poisson(lambda) jumps from the conditional law on (delta, 1)
      - integral of x nu(dx) over (delta, 1)            (compensator)
      + Normal(0, integral of x^2 nu(dx) over (0, delta]).

Jump sizes come from a cubic-Hermite inverse-CDF table built in the warped
variable w = (1 - x^(2/(k-1)))^(b/2) (w = (1 - x)^(b/2) for the
codimension-limit family), in which the conditional density is bounded and
strictly positive on [0, w_max]; quantile slopes therefore stay finite at
both ends, which a table in x itself cannot guarantee once the codimension
exceeds 2. The table is certified at build time: the max CDF residual over
all cell midpoints must not exceed 1e-10. The first table has 2^11 cells
(64 KB of coefficients, so the per-jump gathers stay in cache), and the
cell count is doubled until the certificate holds, up to 2^20 cells. Above
the rounding floor of the quantile the residual falls about 16x per
doubling, so a doubling that fails to halve it means the floor is reached,
and the build stops there with ConvergenceError instead of doubling on.

Streams are reproducible: each batch of draws gets its own Philox generator
keyed by (seed, batch_index), and the per-batch op order is fixed (the
Gaussian block, then jump counts, then jump uniforms in fixed-size chunks).
The Gaussian and count blocks always span the full batch_size even when the
final batch is partial, so for a fixed (seed, batch_size) the first values
of a longer run reproduce a shorter one exactly. batch_size itself is part
of the stream identity: changing it reshuffles the draws.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentMomentError,
    DomainError,
    SamplerConfigError,
)
from .measures import LevyMeasure1D, _log_cumulant, log_sphere_surface, log_variance
from .quadrature import exp_sinh, gauss_legendre_nodes, tanh_sinh
from .specfun import log_gamma, reg_inc_beta

__all__ = [
    "SamplerConfig",
    "SampleBatch",
    "tail_mass",
    "partial_moment",
    "inverse_jump_cdf",
    "sample",
    "empirical_cumulants",
]

_MAX_JUMP_RATE = 1.0e7
_CERT_TARGET = 1.0e-10
_TABLE_CELLS = 1 << 11
_TABLE_CELLS_MAX = 1 << 20
# five chunk buffers of 256 KB plus the 64 KB starting table fit in a 2 MB L2
_JUMP_CHUNK = 1 << 15


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for sample(): truncation level, seed, batch granularity."""

    cutoff_delta: float = 1e-3
    seed: int = 0
    batch_size: int = 100_000

    def __post_init__(self) -> None:
        if not (0.0 < self.cutoff_delta < 1.0):
            raise SamplerConfigError(
                f"cutoff_delta must lie in (0, 1), got {self.cutoff_delta!r}"
            )
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise SamplerConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.batch_size, int) and self.batch_size >= 1):
            raise SamplerConfigError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )


@dataclass(frozen=True)
class SampleBatch:
    """Draws plus the diagnostics that certify how they were produced."""

    values: np.ndarray = field(compare=False, repr=False)
    config: SamplerConfig = field(default_factory=SamplerConfig)
    diagnostics: dict = field(compare=False, default_factory=dict)


def _require_delta(delta: float) -> float:
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"cutoff delta must lie in (0, 1), got {delta!r}")
    return delta


def _jump_log_coef(measure: LevyMeasure1D) -> float:
    """log of omega_b / 2 (over sigma^2 for the rescaled family): the
    constant in front of the u = x^(2/(k-1)) integrals of the jump law."""
    log_coef = log_sphere_surface(measure.pair.codim) - math.log(2.0)
    if measure.family == "rescaled":
        log_coef -= log_variance(measure.pair)
    return log_coef


def tail_mass(measure: LevyMeasure1D, delta: float) -> float:
    """nu((delta, 1)): the expected jump count per draw at truncation delta."""
    delta = _require_delta(delta)
    if measure.family in ("hyperbolic", "rescaled"):
        pair = measure.pair
        a = delta**pair.u_power
        e_top = 0.5 * (pair.d + 1.0)
        e_side = 0.5 * pair.codim - 1.0

        def integrand(u: np.ndarray, um1: np.ndarray) -> np.ndarray:
            out = np.exp(-e_top * np.log(u))
            if e_side != 0.0:
                out = out * np.exp(e_side * np.log(um1))
            return out

        val = tanh_sinh(integrand, a=a, b=1.0, rel_tol=1e-12, abs_tol=1e-300)
        return math.exp(_jump_log_coef(measure)) * val
    if measure.family == "limit":
        b = measure.codim
        v_cut = -math.log(delta)
        e_log = 0.5 * (b - 2.0)

        def integrand(v: np.ndarray, _unused: np.ndarray) -> np.ndarray:
            out = np.exp(v)
            if e_log != 0.0:
                out = out * np.power(v, e_log)
            return out

        val = tanh_sinh(integrand, a=0.0, b=v_cut, rel_tol=1e-12, abs_tol=1e-300)
        return math.exp(-log_gamma(0.5 * b)) * val
    raise DomainError(f"no tail-mass rule for family {measure.family!r}")


def partial_moment(measure: LevyMeasure1D, delta: float, m: int, side: str) -> float:
    """integral of x^m nu(dx) over (0, delta] ("below") or (delta, 1) ("above").

    Below the cutoff the integral only exists for m >= 2 (the measure has
    infinite mass and infinite first absolute moment near 0); m < 2 there
    raises DivergentMomentError.
    """
    delta = _require_delta(delta)
    if not (isinstance(m, int) and m >= 0):
        raise DomainError(f"moment order must be a nonnegative integer, got {m!r}")
    if side not in ("below", "above"):
        raise DomainError(f"side must be 'below' or 'above', got {side!r}")
    if side == "below" and m < 2:
        raise DivergentMomentError(
            f"x^{m} is not integrable against the measure near 0"
        )
    if m == 0 and side == "above":
        return tail_mass(measure, delta)

    if measure.family in ("hyperbolic", "rescaled"):
        pair = measure.pair
        a = delta**pair.u_power
        if m >= 2:
            p = 0.5 * ((pair.k - 1.0) * m - (pair.d - 1.0))
            frac = reg_inc_beta(p, 0.5 * pair.codim, a)
            log_scale = log_variance(pair) if measure.family == "rescaled" else 0.0
            total = math.exp(_log_cumulant(pair, m) - log_scale)
            return total * (frac if side == "below" else 1.0 - frac)
        # m == 1 above the cutoff: the same u-integral, exponent shifted
        e_pow = 0.5 * ((pair.k - 1.0) * m - pair.d - 1.0)
        e_side = 0.5 * pair.codim - 1.0

        def integrand(u: np.ndarray, um1: np.ndarray) -> np.ndarray:
            out = np.exp(e_pow * np.log(u))
            if e_side != 0.0:
                out = out * np.exp(e_side * np.log(um1))
            return out

        val = tanh_sinh(integrand, a=a, b=1.0, rel_tol=1e-12, abs_tol=1e-300)
        return math.exp(_jump_log_coef(measure)) * val

    if measure.family == "limit":
        b = measure.codim
        v_cut = -math.log(delta)
        e_log = 0.5 * (b - 2.0)
        coef = math.exp(-log_gamma(0.5 * b))
        if side == "below":

            def integrand_tail(v: np.ndarray) -> np.ndarray:
                out = np.exp(-(m - 1.0) * v)
                if e_log != 0.0:
                    out = out * np.power(v, e_log)
                return out

            return coef * exp_sinh(integrand_tail, a=v_cut, rel_tol=1e-12, abs_tol=1e-300)

        def integrand_head(v: np.ndarray, _unused: np.ndarray) -> np.ndarray:
            out = np.exp(-(m - 1.0) * v)
            if e_log != 0.0:
                out = out * np.power(v, e_log)
            return out

        val = tanh_sinh(integrand_head, a=0.0, b=v_cut, rel_tol=1e-12, abs_tol=1e-300)
        return coef * val

    raise DomainError(f"no partial-moment rule for family {measure.family!r}")


class _Warp:
    """Conditional jump law on (delta, 1) in the variable w = y^(b/2), where
    y = 1 - x^(2/(k-1)) for the finite-dimension families and y = 1 - x for
    the limit family.

    The density in y carries a bare y^(b/2-1) factor at the large-jump end;
    the b/2 power on w absorbs it exactly, so the density h in w is bounded
    and strictly positive, and panel quadrature over w is well posed. g_reg
    is the remaining regular factor: the density in y is y^(b/2-1) g_reg(y)
    up to the family constant, which cancels from the conditional law.
    """

    def __init__(self, measure: LevyMeasure1D, delta: float):
        if measure.family == "limit":
            self.b = float(measure.codim)
            self.limit = True
            self.w_max = (1.0 - delta) ** (0.5 * self.b)
            self.e_log = 0.5 * (self.b - 2.0)
        elif measure.family in ("hyperbolic", "rescaled"):
            pair = measure.pair
            self.b = float(pair.codim)
            self.limit = False
            self.w_max = (1.0 - delta**pair.u_power) ** (0.5 * self.b)
            self.e_top = 0.5 * (pair.d + 1.0)
            self.x_exp = 0.5 * (pair.k - 1.0)
            self.u_power = pair.u_power
        else:
            raise DomainError(f"no jump table rule for family {measure.family!r}")
        self.two_over_b = 2.0 / self.b
        # the table runs in s = q^(1/P), q the upper-tail probability; P is
        # a multiple of b/2 so the y ~ q^(2/b) corner is polynomial in s,
        # and at least 3 so the power-law stretch of the small-jump tail is
        # spread over resolvable scales instead of hiding in the first cell
        step = int(self.b) if int(self.b) % 2 else int(self.b) // 2
        self.index_pow = 4 if step in (1, 2, 4) else step

    def y_of_w(self, w: np.ndarray) -> np.ndarray:
        if self.b == 1.0:
            return w * w
        if self.b == 2.0:
            return w
        return np.power(w, self.two_over_b)

    def g_reg(self, y: np.ndarray) -> np.ndarray:
        if not self.limit:
            return np.power(1.0 - y, -self.e_top)
        base = np.power(1.0 - y, -2.0)
        if self.e_log == 0.0:
            return base
        # (-log(1-y))/y -> 1 as y -> 0; series guard below 1e-8
        ratio = np.where(
            y > 1e-8,
            -np.log1p(-np.maximum(y, 1e-300)) / np.maximum(y, 1e-300),
            1.0 + 0.5 * y,
        )
        return base * np.power(ratio, self.e_log)

    def h(self, w: np.ndarray) -> np.ndarray:
        return self.two_over_b * self.g_reg(self.y_of_w(w))

    def x_of_y(self, y: np.ndarray) -> np.ndarray:
        if self.limit:
            return 1.0 - y
        u = 1.0 - y
        if self.x_exp == 1.0:
            return u
        if self.x_exp == 2.0:
            return u * u
        return np.power(u, self.x_exp)

    def dx_dy(self, y: np.ndarray):
        if self.limit:
            return -1.0
        if self.x_exp == 1.0:
            return -1.0
        return -self.x_exp * np.power(1.0 - y, self.x_exp - 1.0)

    def y_of_x(self, x: np.ndarray) -> np.ndarray:
        if self.limit:
            return 1.0 - x
        return -np.expm1(self.u_power * np.log(x))

    def dy_dx_abs(self, x: np.ndarray):
        if self.limit or self.u_power == 1.0:
            return 1.0
        return self.u_power * np.power(x, self.u_power - 1.0)


class _JumpTable:
    """Cubic-Hermite inverse CDF indexed by s = q^(1/P), q the upper-tail
    probability. The quantile x(s) is a smooth function of s at the
    large-jump corner for every codimension and nearly flat at the cutoff
    end, so the interpolation error stays O(cells^-4) with small constants."""

    def __init__(self, x_knots: np.ndarray, slopes: np.ndarray, index_pow: int,
                 cells: int, cert_error: float):
        self.x_knots = x_knots
        self.slopes = slopes
        self.index_pow = index_pow
        self.cells = cells
        self.cert_error = cert_error
        # per-cell monomial coefficients of the Hermite cubic, so the hot
        # path runs four gathers and one Horner evaluation per point
        d = slopes / cells
        x0, x1 = x_knots[:-1], x_knots[1:]
        d0, d1 = d[:-1], d[1:]
        self.c0 = x0.copy()
        self.c1 = d0.copy()
        self.c2 = 3.0 * (x1 - x0) - 2.0 * d0 - d1
        self.c3 = 2.0 * (x0 - x1) + d0 + d1

    def s_of_q(self, q: np.ndarray) -> np.ndarray:
        p = self.index_pow
        if p == 4:
            return np.sqrt(np.sqrt(q))
        if p == 3:
            return np.cbrt(q)
        return np.power(q, 1.0 / p)

    def x_of_s(self, s: np.ndarray) -> np.ndarray:
        pos = np.asarray(s, dtype=float) * self.cells
        i = np.minimum(pos.astype(np.int64), self.cells - 1)
        t = pos - i
        return ((self.c3[i] * t + self.c2[i]) * t + self.c1[i]) * t + self.c0[i]

    def x_of_q(self, q: np.ndarray) -> np.ndarray:
        return self.x_of_s(self.s_of_q(np.asarray(q, dtype=float)))

    def fill_x_of_q(self, q: np.ndarray, idx: np.ndarray, scratch: np.ndarray,
                    acc: np.ndarray) -> np.ndarray:
        """x_of_q for the sampler's hot loop: clobbers q and works through
        the caller's scratch, so a chunk costs no allocations at all."""
        p = self.index_pow
        if p == 4:
            np.sqrt(q, out=q)
            np.sqrt(q, out=q)
        elif p == 3:
            np.cbrt(q, out=q)
        else:
            np.power(q, 1.0 / p, out=q)
        np.multiply(q, self.cells, out=q)
        np.copyto(idx, q, casting="unsafe")
        np.minimum(idx, self.cells - 1, out=idx)
        np.subtract(q, idx, out=q)
        np.take(self.c3, idx, out=acc)
        acc *= q
        np.take(self.c2, idx, out=scratch)
        acc += scratch
        acc *= q
        np.take(self.c1, idx, out=scratch)
        acc += scratch
        acc *= q
        np.take(self.c0, idx, out=scratch)
        acc += scratch
        return acc


def _panel_boundaries(w_max: float, panels: int) -> np.ndarray:
    """Uniform panels, with the first one split dyadically toward 0 so the
    w^(2/b) endpoint behavior is integrated on geometrically graded cells."""
    uniform = w_max * np.arange(1, panels + 1) / panels
    first = uniform[0]
    dyadic = first * 2.0 ** (-np.arange(64, 0, -1, dtype=float))
    return np.concatenate(([0.0], dyadic, uniform))


def _build_jump_table(measure: LevyMeasure1D, delta: float, cells: int) -> _JumpTable:
    warp = _Warp(measure, delta)
    b = warp.b
    w_max = warp.w_max
    nodes, weights = gauss_legendre_nodes(16)

    bounds = _panel_boundaries(w_max, max(1024, cells // 16))
    lo = bounds[:-1]
    width = np.diff(bounds)
    eval_pts = lo[:, None] + width[:, None] * nodes[None, :]
    panel_mass = width * (warp.h(eval_pts) @ weights)
    cum = np.concatenate(([0.0], np.cumsum(panel_mass)))
    total = cum[-1]

    def cdf_at(w: np.ndarray) -> np.ndarray:
        """Cumulative integral of h from 0 to each w, via the panel grid
        plus a 16-point Gauss remainder inside the landing panel; chunked
        so the (points, 16) temporaries stay below ~40 MB."""
        out = np.empty_like(w)
        for c0 in range(0, w.size, 1 << 18):
            ww = w[c0 : c0 + (1 << 18)]
            j = np.clip(np.searchsorted(bounds, ww, side="right") - 1, 0, len(lo) - 1)
            base = bounds[j]
            pts = base[:, None] + (ww - base)[:, None] * nodes[None, :]
            out[c0 : c0 + (1 << 18)] = cum[j] + (ww - base) * (warp.h(pts) @ weights)
        return out

    # knots: invert the cumulative at probabilities q_j = s_j^P with s_j
    # equally spaced, so the table is uniform in s
    P = warp.index_pow
    s = np.arange(cells + 1) / cells
    targets = np.power(s, float(P)) * total
    j = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(lo) - 1)
    w = bounds[j] + width[j] * np.clip(
        (targets - cum[j]) / panel_mass[j], 0.0, 1.0
    )
    # the achievable residual is limited by h * ulp(w) near the density
    # peak, so accept an order above that rather than chasing exact zeros
    for _ in range(60):
        resid = cdf_at(w) - targets
        if np.max(np.abs(resid)) <= 1e-12 * total:
            break
        w = np.clip(w - resid / warp.h(w), bounds[j], bounds[j + 1])
    if np.max(np.abs(cdf_at(w) - targets)) > 1e-11 * total:
        raise ConvergenceError("jump-table knot inversion did not converge")
    w[0] = 0.0
    w[-1] = w_max
    if np.any(np.diff(w) < 0.0):
        # knots whose targets sit below the Newton tolerance can land out
        # of order at the noise scale; order them without moving anything
        # beyond that tolerance, and let certification judge the result
        w = np.maximum.accumulate(w)

    y = warp.y_of_w(w)
    x_knots = warp.x_of_y(y)
    x_knots[0] = 1.0
    x_knots[-1] = delta
    # dx/ds = dx/dy P s^(P-1) total / (y^(b/2-1) g_reg(y)); the graded
    # factor s^(P-1) / y^(b/2-1) spans a wide range, so take it in logs;
    # its s -> 0 limit is 0 when 2P > b and ((b/2) total)^(2/b-1) at 2P = b
    half = 0.5 * b
    with np.errstate(divide="ignore", invalid="ignore"):
        grade = np.exp((P - 1.0) * np.log(s) - (half - 1.0) * np.log(y))
    grade[0] = ((half * total) ** (warp.two_over_b - 1.0)) if 2 * P == int(b) else 0.0
    slopes = warp.dx_dy(y) * P * total * grade / warp.g_reg(y)

    table = _JumpTable(x_knots, slopes, P, cells, cert_error=math.nan)
    s_mid = (np.arange(cells) + 0.5) / cells
    x_mid = np.clip(table.x_of_s(s_mid), 1e-300, 1.0)
    y_mid = warp.y_of_x(x_mid)
    w_mid = np.power(y_mid, half)
    err_q = np.abs(cdf_at(w_mid) / total - np.power(s_mid, float(P)))
    # a float64 quantile cannot beat the q-image of one ulp of x, and for
    # b < 2 that image diverges at the x -> 1 corner, so the target there
    # is floored at the image of a few ulp instead of the global one
    with np.errstate(divide="ignore", over="ignore"):
        dq_dx = (
            warp.h(w_mid) * half * np.power(np.maximum(y_mid, 1e-300), half - 1.0)
            * warp.dy_dx_abs(x_mid) / total
        )
    tol = np.maximum(_CERT_TARGET, 8.0 * np.spacing(x_mid) * dq_dx)
    table.cert_error = _CERT_TARGET * float(np.max(err_q / tol))
    return table


@functools.lru_cache(maxsize=32)
def _certified_jump_table(measure: LevyMeasure1D, delta: float) -> _JumpTable:
    cells = _TABLE_CELLS
    last_error = math.inf
    while True:
        table = _build_jump_table(measure, delta, cells)
        if table.cert_error <= _CERT_TARGET:
            return table
        # a doubling that does not halve the residual (or a NaN residual)
        # means the floor is reached and more cells cannot certify
        if cells >= _TABLE_CELLS_MAX or not table.cert_error <= 0.5 * last_error:
            raise ConvergenceError(
                f"jump table stuck at CDF residual {table.cert_error:.3e} "
                f"with {cells} cells (target {_CERT_TARGET:.1e})"
            )
        last_error = table.cert_error
        cells *= 2


def inverse_jump_cdf(measure: LevyMeasure1D, p, delta: float = 1e-3) -> np.ndarray:
    """Quantile function of the single-jump law conditioned on (delta, 1):
    returns x with P(jump <= x) = p. Scalar in, scalar out."""
    delta = _require_delta(delta)
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise DomainError("jump quantile probabilities must lie in [0, 1]")
    table = _certified_jump_table(measure, delta)
    # the table runs in the upper-tail direction: x(q) with q = 1 - p
    out = table.x_of_q(1.0 - p_arr)
    if np.isscalar(p) or p_arr.ndim == 0:
        return float(out)
    return out


def sample(measure: LevyMeasure1D, n: int, config: SamplerConfig | None = None) -> SampleBatch:
    """Draw n values of the zero-mean law. Deterministic given config.seed
    and config.batch_size; growing n extends the stream without altering
    the values a shorter run produced."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
    if config is None:
        config = SamplerConfig()
    delta = config.cutoff_delta

    lam = tail_mass(measure, delta)
    if lam > _MAX_JUMP_RATE:
        alpha = measure.sing_at_0
        if alpha > 1.0 and not measure.sing_log_at_0:
            grow = (lam / 1.0e6) ** (1.0 / (alpha - 1.0))
        else:
            grow = lam / 1.0e6
        raise SamplerConfigError(
            f"expected jump count per draw is {lam:.3e} at cutoff_delta = "
            f"{delta:g}; raise the cutoff (about {min(0.9, delta * grow):.2g}) "
            "to keep the run tractable"
        )
    small_var = partial_moment(measure, delta, 2, "below")
    small_sd = math.sqrt(small_var)
    compensator = partial_moment(measure, delta, 1, "above")
    # the Asmussen-Rosinski statistic: the Gaussian proxy's error bound
    # scales with the third moment below the cutoff over sd^3
    be_ratio = partial_moment(measure, delta, 3, "below") / small_sd**3
    if small_sd < 10.0 * delta:
        warnings.warn(
            f"small-jump Gaussian proxy is thin: sd/delta = {small_sd / delta:.2f} "
            "< 10; moments beyond the second may be off",
            RuntimeWarning,
            stacklevel=2,
        )
    table = _certified_jump_table(measure, delta)

    out = np.empty(n)
    u_buf = np.empty(_JUMP_CHUNK)
    i_buf = np.empty(_JUMP_CHUNK, dtype=np.int64)
    g_buf = np.empty(_JUMP_CHUNK)
    a_buf = np.empty(_JUMP_CHUNK)
    cs_buf = np.empty(_JUMP_CHUNK + 1)
    n_batches = 0
    for batch_index, start in enumerate(range(0, n, config.batch_size)):
        m = min(config.batch_size, n - start)
        rng = np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence((config.seed, batch_index)))
        )
        # the Gaussian and the jump counts are drawn for the full block even
        # when the batch is partial: stream positions then never depend on m,
        # so a run with smaller n shares its prefix with a longer one
        z = rng.standard_normal(config.batch_size)[:m]
        counts = rng.poisson(lam, size=config.batch_size)[:m]
        ends = np.cumsum(counts)
        starts = ends - counts
        total = int(ends[-1])
        sums = np.zeros(m)
        # the jump uniforms are one stream read in fixed-size chunks
        # (partitioned Generator.random calls agree with a single call);
        # each chunk adds its partial segment sums to the draws it
        # overlaps, so per-draw totals carry only prefix-sum rounding
        for c0 in range(0, total, _JUMP_CHUNK):
            c1 = min(c0 + _JUMP_CHUNK, total)
            k = c1 - c0
            rng.random(out=u_buf[:k])
            x = table.fill_x_of_q(u_buf[:k], i_buf[:k], g_buf[:k], a_buf[:k])
            cs = cs_buf[: k + 1]
            cs[0] = 0.0
            np.cumsum(x, out=cs[1:])
            d_lo = int(np.searchsorted(ends, c0, side="right"))
            d_hi = int(np.searchsorted(starts, c1, side="left"))
            seg_hi = np.clip(ends[d_lo:d_hi], c0, c1)
            seg_lo = np.clip(starts[d_lo:d_hi], c0, c1)
            sums[d_lo:d_hi] += cs[seg_hi - c0] - cs[seg_lo - c0]
        out[start : start + m] = sums - compensator + small_sd * z
        n_batches += 1

    diagnostics = {
        "jump_rate": lam,
        "small_jump_sd": small_sd,
        "small_jump_variance": small_var,
        "small_jump_ratio": small_sd / delta,
        "small_jump_be_ratio": be_ratio,
        "compensator": compensator,
        "table_cells": table.cells,
        "table_cert_error": table.cert_error,
        "batches": n_batches,
    }
    return SampleBatch(values=out, config=config, diagnostics=diagnostics)


def empirical_cumulants(values: np.ndarray, max_order: int = 6) -> np.ndarray:
    """Unbiased cumulant estimates (k-statistics) up to max_order <= 6.

    Entry [m-1] estimates the order-m cumulant; E over samples equals the
    law's cumulant exactly at every order and sample size covered.
    """
    if not (isinstance(max_order, int) and 1 <= max_order <= 6):
        raise DomainError(f"max_order must be an integer in [1, 6], got {max_order!r}")
    x = np.asarray(values, dtype=float).ravel()
    n = len(x)
    if n < max_order + 1:
        raise DomainError(
            f"need at least {max_order + 1} values for order {max_order}, got {n}"
        )
    nf = float(n)
    xbar = float(np.mean(x))
    d = x - xbar
    mom = {j: float(np.mean(d**j)) for j in range(2, max_order + 1)}
    out = [xbar]
    if max_order >= 2:
        out.append(nf / (nf - 1.0) * mom[2])
    if max_order >= 3:
        out.append(nf * nf / ((nf - 1.0) * (nf - 2.0)) * mom[3])
    if max_order >= 4:
        num = nf * nf * ((nf + 1.0) * mom[4] - 3.0 * (nf - 1.0) * mom[2] ** 2)
        out.append(num / ((nf - 1.0) * (nf - 2.0) * (nf - 3.0)))
    if max_order >= 5:
        num = nf**3 * ((nf + 5.0) * mom[5] - 10.0 * (nf - 1.0) * mom[2] * mom[3])
        out.append(num / ((nf - 1.0) * (nf - 2.0) * (nf - 3.0) * (nf - 4.0)))
    if max_order >= 6:
        num = nf * nf * (
            (nf + 1.0) * (nf * nf + 15.0 * nf - 4.0) * mom[6]
            - 15.0 * (nf - 1.0) ** 2 * (nf + 4.0) * mom[2] * mom[4]
            - 10.0 * (nf - 1.0) * (nf * nf - nf + 4.0) * mom[3] ** 2
            + 30.0 * nf * (nf - 1.0) * (nf - 2.0) * mom[2] ** 3
        )
        den = (nf - 1.0) * (nf - 2.0) * (nf - 3.0) * (nf - 4.0) * (nf - 5.0)
        out.append(num / den)
    return np.array(out)
