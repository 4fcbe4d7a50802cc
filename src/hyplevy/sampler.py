"""Exact-law Monte Carlo via compensated big jumps plus a small-jump Gaussian.

A draw from the zero-mean infinitely divisible law with Levy measure nu is
assembled as

    sum of Poisson(lambda) jumps from the conditional law on (delta, 1)
      - integral of x nu(dx) over (delta, 1)            (compensator)
      + Normal(0, integral of x^2 nu(dx) over (0, delta]).

Everything here is read off the measure's shape and weight (see
hyplevy.measures): the weight scales lambda, the compensator and the
small-jump variance, and the shape alone fixes the conditional jump law,
so the hyperbolic and rescaled measures of a pair share one jump table.
Nothing here tests which family a shape is: its methods give the partial
moments' incomplete Beta or Gamma arguments and the table's graded
panels, and the measure's _times_coef applies its constant to every
quadrature result.

Jump sizes come from a cubic-Hermite inverse-CDF table built in the warped
variable w = (1 - x^(2/(k-1)))^(b/2) (w = (-log x)^(b/2) for the
codimension-limit family), in which the conditional density is bounded and
strictly positive on [0, w_max]; quantile slopes therefore stay finite at
both ends, which a table in x itself cannot guarantee once the codimension
exceeds 2. The CDF in w is a panel sum of a fixed 16-point Gauss-Legendre
rule. A pair's panels are graded in quarter octaves of 1 - y toward the
cutoff (its shape's graded_bounds), where its regular factor
(1 - y)^(-(d+1)/2) peaks, and each row of a panel sum has the bits it
would have alone, so a knot's CDF value does not depend on the knots
evaluated beside it. Newton inverts the CDF at the
knots to 1e-12 of the mass, each step re-evaluating only the knots not yet
there and still moving; only a run in which some knot stalls (its step
leaves w unchanged) or exhausts its 60 steps is checked again, over every
knot, at 1e-11, and may raise ConvergenceError. The table is certified at
build time: the max CDF residual over all cell midpoints must not exceed
1e-10. The first table has 2^11 cells, and the cell count is doubled until
the certificate holds, up to 2^20 cells. Above the rounding floor of the
quantile the residual falls about 16x per doubling, so a doubling that
fails to halve it means the floor is reached, and the build stops there
with ConvergenceError instead of doubling on.

A table is one 4 x (cells + 1) array of doubles (64 KB at 2^11 cells, so
the per-jump gathers stay in cache): the monomial coefficients c0..c3 of
each cell's cubic, plus a sentinel cell that holds the last cubic's value
at fraction 1 as a constant. A jump's quantile at table coordinate s in
[0, 1] is then s * cells, its float floor as the cell and the rest as the
fraction, four wrap-mode gathers of the cell's coefficients and one Horner
pass. s = 1 lands on the sentinel with fraction 0, so no index needs a
clamp and the gathers never wrap.

Streams are reproducible: each batch of draws gets its own SFC64 generator
seeded by SeedSequence((seed, batch_index)), and the per-batch op order is
fixed (the Gaussian block, then jump counts, then jump uniforms in
fixed-size chunks). The Gaussian and count blocks always span the full
batch_size even when the final batch is partial, so for a fixed
(seed, batch_size) the first values of a longer run reproduce a shorter one
exactly. batch_size itself is part of the stream identity: changing it
reshuffles the draws. The stream changed from Philox to SFC64 in 0.2.0,
and in 0.3.0 every jump table moved by rounding (the graded panels, the
row-independent panel sums and the knot Newton's live set) and the rescaled
(4,3) tables below delta = 1e-3 were corrected, so runs reproduce only
under the package version their provenance names.

Each draw's jump sum is built chunk by chunk: np.add.reduceat sums the
draw's jumps inside a chunk pairwise, and the pieces of a draw that spans
several chunks are added in chunk order. A draw is then
(jump sum - compensator) + small_sd * z.

Each batch is assembled in its slice of the output: the Gaussian block is
drawn straight into it and scaled in place, and the compensated jump sums
are added last. Per batch the sampler allocates the counts (batch_size
int64, sliced to the batch), their running ends and the jump sums (one
int64 and one float64 per draw of the batch), plus a batch_size Gaussian
scratch for a partial last batch only. The non-empty draws' indices and
first jumps take over the buffers of the counts and ends, so each chunk's
pieces are two slices of them, found for all chunks at once before the
jump loop; that loop reuses four chunk buffers of _JUMP_CHUNK elements for
the whole run.
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
    _integer,
    _real,
)
from .measures import LevyMeasure1D
from .quadrature import exp_sinh, tanh_sinh
from .specfun import _LOG_MAX, reg_inc_beta, reg_upper_gamma

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
# four chunk buffers of 256 KB plus the 64 KB starting table fit in a 2 MB L2
_JUMP_CHUNK = 1 << 15
# values per pass of the central power sums: two 256 KB temporaries
_MOMENT_CHUNK = 1 << 15
# the 16-point Gauss-Legendre rule on (0, 1): 0.5 (x + 1) and 0.5 w of
# numpy's leggauss(16), written out so no table build imports numpy.polynomial
_GL_NODES = np.array([0.005299532504175031, 0.0277124884633837, 0.06718439880608412, 0.1222977958224985,
                      0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
                      0.5475062549188188, 0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
                      0.8777022041775016, 0.9328156011939159, 0.9722875115366163, 0.994700467495825])
_GL_WEIGHTS = np.array([0.013576229705877088, 0.031126761969323728, 0.0475792558412463, 0.062314485627767036,
                        0.07479799440828835, 0.08457825969750132, 0.09130170752246182, 0.09472530522753432,
                        0.09472530522753432, 0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
                        0.062314485627767036, 0.0475792558412463, 0.031126761969323728, 0.013576229705877088])


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for sample(): truncation level, seed, batch granularity."""

    cutoff_delta: float = 1e-3
    seed: int = 0
    batch_size: int = 100_000

    def __post_init__(self) -> None:
        delta = _real(self.cutoff_delta)
        if delta is None or not (0.0 < delta < 1.0):
            raise SamplerConfigError(
                f"cutoff_delta must lie in (0, 1), got {self.cutoff_delta!r}"
            )
        seed, batch_size = _integer(self.seed), _integer(self.batch_size)
        if seed is None or seed < 0:
            raise SamplerConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if batch_size is None or batch_size < 1:
            raise SamplerConfigError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        # Python numbers, so SeedSequence and the CLI's JSON see the same values
        object.__setattr__(self, "cutoff_delta", delta)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "batch_size", batch_size)


@dataclass(frozen=True)
class SampleBatch:
    """Draws plus the diagnostics that certify how they were produced."""

    values: np.ndarray = field(compare=False, repr=False)
    config: SamplerConfig = field(default_factory=SamplerConfig)
    diagnostics: dict = field(compare=False, default_factory=dict)


def _require_delta(delta: float) -> float:
    cut = _real(delta)
    if cut is None or not 0.0 < cut < 1.0:
        raise DomainError(f"cutoff delta must lie in (0, 1), got {delta!r}")
    return cut


def tail_mass(measure: LevyMeasure1D, delta: float) -> float:
    """nu((delta, 1)): the expected jump count per draw at truncation delta."""
    return partial_moment(measure, delta, 0, "above")


def partial_moment(measure: LevyMeasure1D, delta: float, m: int, side: str) -> float:
    """integral of x^m nu(dx) over (0, delta] ("below") or (delta, 1) ("above").

    Below the cutoff the integral only exists for m >= 2 (the measure has
    infinite mass and infinite first absolute moment near 0); m < 2 there
    raises DivergentMomentError. Pair shapes split their closed-form
    moments by an incomplete Beta; the rest is quadrature in the shape's
    variable, except the limit shape below the cutoff at codimensions
    where that quadrature overflows (b >= 344 at m = 2), which takes the
    upper incomplete Gamma (m-1)^(-b/2) Q(b/2, -(m-1) log delta).
    """
    delta, order = _require_delta(delta), _integer(m)
    if order is None or order < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {m!r}")
    m = order
    if side not in ("below", "above"):
        raise DomainError(f"side must be 'below' or 'above', got {side!r}")
    if side == "below" and m < 2:
        raise DivergentMomentError(
            f"x^{m} is not integrable against the measure near 0"
        )
    shape = measure.shape
    beta = shape.beta_args(delta, m)
    if beta is not None:
        frac = reg_inc_beta(*beta)
        total = shape.moment(m, measure.log_weight)
        return total * (frac if side == "below" else 1.0 - frac)
    # quadrature in the shape's variable: tanh-sinh over (0, end) above the
    # cutoff; below it, the limit shape's exp-sinh over v > end
    f, end = shape.upper_integrand(delta, m), shape.upper_y(delta)
    if side == "above":
        return measure._times_coef(tanh_sinh(f, a=0.0, b=end, rel_tol=1e-12, abs_tol=1e-300))
    if shape.log_moment(m) - shape.log_coef > _LOG_MAX:
        # f's integral over (0, inf), Gamma(b/2) (m-1)^(-b/2), overflows a
        # double (from b = 344 at m = 2), and so do the quadrature's sums:
        # the share below delta is the shape's Q(a, x) instead
        return shape.moment(m, measure.log_weight) * reg_upper_gamma(*shape.gamma_args(delta, m))
    return measure._times_coef(exp_sinh(f, a=end, rel_tol=1e-12, abs_tol=1e-300))


class _JumpTable:
    """Cubic-Hermite inverse CDF indexed by s = q^(1/P), q the upper-tail
    probability. The quantile x(s) is a smooth function of s at the
    large-jump corner for every codimension and nearly flat at the cutoff
    end, so the interpolation error stays O(cells^-4) with small constants.

    coef is the read-only (4, cells + 1) array of the cells' monomial
    coefficients, row j holding c_j; column cells is the sentinel cell
    (c0 the last cubic's value at fraction 1, c1 = c2 = c3 = 0) that
    fill_x_of_s reads at s = 1."""

    def __init__(self, x_knots: np.ndarray, slopes: np.ndarray, index_pow: int,
                 cells: int, cert_error: float):
        self.x_knots = x_knots
        self.slopes = slopes
        self.index_pow = index_pow
        self.cells = cells
        self.cert_error = cert_error
        # the sentinel's c0 is evaluated in fill_x_of_s's own Horner order,
        # so s = 1 gets the bits the last cell gives at fraction 1
        d = slopes / cells
        x0, x1 = x_knots[:-1], x_knots[1:]
        d0, d1 = d[:-1], d[1:]
        coef = np.zeros((4, cells + 1))
        coef[0, :cells] = x0
        coef[1, :cells] = d0
        coef[2, :cells] = 3.0 * (x1 - x0) - 2.0 * d0 - d1
        coef[3, :cells] = 2.0 * (x0 - x1) + d0 + d1
        c0, c1, c2, c3 = coef[:, cells - 1]
        coef[0, cells] = ((c3 * 1.0 + c2) * 1.0 + c1) * 1.0 + c0
        coef.flags.writeable = False
        self.coef = coef

    def fill_x_of_q(self, q: np.ndarray, idx: np.ndarray, scratch: np.ndarray,
                    acc: np.ndarray) -> np.ndarray:
        """x at the upper-tail probabilities q: the root s = q^(1/P) in
        place, then fill_x_of_s."""
        p = self.index_pow
        if p == 4:
            np.sqrt(q, out=q)
            np.sqrt(q, out=q)
        elif p == 3:
            np.cbrt(q, out=q)
        else:
            np.power(q, 1.0 / p, out=q)
        return self.fill_x_of_s(q, idx, scratch, acc)

    def fill_x_of_s(self, s: np.ndarray, idx: np.ndarray, scratch: np.ndarray,
                    acc: np.ndarray) -> np.ndarray:
        """x at the table coordinates s in [0, 1] by one Horner pass per
        cell cubic: cell floor(s cells), which is the sentinel at s = 1, so
        the wrap-mode gathers never wrap. Clobbers s and works through the
        caller's buffers (see _buffers), so a chunk of the jump loop costs
        no allocations at all."""
        k0, k1, k2, k3 = self.coef
        np.multiply(s, self.cells, out=s)
        np.floor(s, out=scratch)
        s -= scratch
        np.copyto(idx, scratch, casting="unsafe")
        np.take(k3, idx, out=acc, mode="wrap")
        acc *= s
        np.take(k2, idx, out=scratch, mode="wrap")
        acc += scratch
        acc *= s
        np.take(k1, idx, out=scratch, mode="wrap")
        acc += scratch
        acc *= s
        np.take(k0, idx, out=scratch, mode="wrap")
        acc += scratch
        return acc


def _buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index, scratch and result buffers of a fill_x_of_q call on n
    points."""
    return np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)


def _panel_sums(values: np.ndarray) -> np.ndarray:
    """Each row's 16-point Gauss-Legendre sum, in einsum's own loop. A BLAS
    gemv (`values @ _GL_WEIGHTS`) gives a row bits that depend on where the
    row sits in its block; this gives every row the bits it has alone, so
    the CDF at a knot does not depend on which knots share its call."""
    return np.einsum("ij,j->i", values, _GL_WEIGHTS)


def _panel_boundaries(shape, delta: float, w_max: float, panels: int) -> np.ndarray:
    """Uniform panels, with the first one split dyadically toward 0 so the
    w^(2/b) endpoint behavior is integrated on geometrically graded cells,
    plus the shape's graded_bounds toward the cutoff: a pair's g_reg peaks
    there, where uniform panels in w do not resolve it once delta is small.
    np.sort and a mask keep the strictly increasing entries (np.unique
    would import numpy.ma into every table build)."""
    uniform = w_max * np.arange(1, panels + 1) / panels
    dyadic = uniform[0] * 2.0 ** (-np.arange(64, 0, -1, dtype=float))
    bounds = np.sort(np.concatenate([[0.0], dyadic, uniform, shape.graded_bounds(delta)]))
    return bounds[np.concatenate(([True], bounds[1:] > bounds[:-1]))]


class _PanelCdf:
    """The conditional jump law's CDF in w = y^(b/2), up to its total.

    h(w) = (2/b) g_reg(w^(2/b)) is the density in w up to the shape's
    constant and the measure's weight, which cancel from the conditional
    law. The CDF is the sum of h over the panels of _panel_boundaries (cum)
    plus a 16-point Gauss remainder inside the landing panel; every row sum
    goes through _panel_sums, so cdf(w)[i] is cdf(w[i:i+1])[0] bit for bit.
    """

    def __init__(self, shape, delta: float, cells: int):
        self.shape = shape
        self.two_over_b = 2.0 / shape.codim
        self.w_max = shape.upper_y(delta) ** (0.5 * shape.codim)
        self.bounds = _panel_boundaries(shape, delta, self.w_max, max(1024, cells // 16))
        lo = self.bounds[:-1]
        width = np.diff(self.bounds)
        pts = lo[:, None] + width[:, None] * _GL_NODES[None, :]
        self.panel_mass = width * _panel_sums(self.h(pts))
        self.cum = np.concatenate(([0.0], np.cumsum(self.panel_mass)))
        self.total = self.cum[-1]

    def h(self, w: np.ndarray) -> np.ndarray:
        return self.two_over_b * self.shape.g_reg(np.power(w, self.two_over_b))

    def cdf(self, w: np.ndarray) -> np.ndarray:
        """Cumulative integral of h from 0 to each w; chunked so the
        (points, 16) temporaries stay below ~40 MB."""
        bounds, last = self.bounds, len(self.bounds) - 2
        out = np.empty_like(w)
        for c0 in range(0, w.size, 1 << 18):
            ww = w[c0 : c0 + (1 << 18)]
            j = np.clip(np.searchsorted(bounds, ww, side="right") - 1, 0, last)
            base = bounds[j]
            pts = base[:, None] + (ww - base)[:, None] * _GL_NODES[None, :]
            out[c0 : c0 + (1 << 18)] = self.cum[j] + (ww - base) * _panel_sums(self.h(pts))
        return out

    def knots(self, targets: np.ndarray) -> np.ndarray:
        """The w_j with cdf(w_j) = targets_j (ascending, from 0 to total)
        to 1e-12 of the total, by Newton inside each target's panel.

        Each step re-evaluates only the live knots, those whose residual
        is still above 1e-12 total (or NaN); the rest are frozen, and each
        of them met that bar when it was frozen. The achievable residual is
        limited by h * ulp(w) near the density peak, where a knot's step can
        round to no change in w; cdf gives a knot the bits it has alone, so
        every later step would repeat it, and the knot leaves the live set
        unconverged. If any knot leaves unconverged, by such a stall or by
        the 60-step cap, every knot is checked again at 1e-11, and
        ConvergenceError is raised above it. The end knots are pinned to
        0 and w_max."""
        bounds, cum, total = self.bounds, self.cum, self.total
        j = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(bounds) - 2)
        lo, hi = bounds[j], bounds[j + 1]
        w = lo + (hi - lo) * np.clip((targets - cum[j]) / self.panel_mass[j], 0.0, 1.0)
        bar = 1e-12 * total
        live, stalled = np.arange(w.size), False
        for _ in range(60):
            resid = self.cdf(w[live]) - targets[live]
            moving = ~(np.abs(resid) <= bar)
            live, resid = live[moving], resid[moving]
            if live.size == 0:
                break
            wl = w[live]
            w[live] = np.clip(wl - resid / self.h(wl), lo[live], hi[live])
            moved = w[live] != wl  # true for a NaN knot, which stays live
            stalled = stalled or not moved.all()
            live = live[moved]
            if live.size == 0:
                break
        if (stalled or live.size) and np.max(np.abs(self.cdf(w) - targets)) > 1e-11 * total:
            raise ConvergenceError("jump-table knot inversion did not converge")
        w[0] = 0.0
        w[-1] = self.w_max
        # knots whose targets sit below the Newton tolerance can land out of
        # order at the noise scale; order them without moving anything beyond
        # that tolerance, and let certification judge the result
        return np.maximum.accumulate(w)


def _build_jump_table(shape, delta: float, cells: int) -> _JumpTable:
    """The table of the conditional jump law on (delta, 1) of a measure of
    this shape, built in w = y^(b/2), y = end_factor(log x) = 1 - x^(2/(k-1))
    for a pair and -log x for the limit family.

    The density in y carries a bare y^(b/2-1) factor at the large-jump
    end; the b/2 power on w absorbs it exactly, so the density h in w is
    bounded and strictly positive, and panel quadrature over w is well
    posed. shape.g_reg is the remaining regular factor: the density in y
    is y^(b/2-1) g_reg(y) up to the shape's constant and the measure's
    weight, which cancel from the conditional law. The knots are inverted
    from, and the midpoint certificate is taken against, the same
    _PanelCdf, whose pair panels are graded toward the cutoff; it is not
    an independent CDF, so only the panels' resolution keeps the two
    honest (tests check every cell against tail_mass).
    """
    b = float(shape.codim)
    half = 0.5 * b
    two_over_b = 2.0 / b
    panel = _PanelCdf(shape, delta, cells)
    total = panel.total

    # knots: invert the cumulative at probabilities q_j = s_j^P with s_j
    # equally spaced, so the table is uniform in s. P is a multiple of b/2
    # so the y ~ q^(2/b) corner is polynomial in s, and at least 3 so the
    # power-law stretch of the small-jump tail is spread over resolvable
    # scales instead of hiding in the first cell
    step = int(b) if int(b) % 2 else int(b) // 2
    P = 4 if step in (1, 2, 4) else step
    s = np.arange(cells + 1) / cells
    w = panel.knots(np.power(s, float(P)) * total)

    y = np.power(w, two_over_b)
    x_knots = shape.x_of_y(y)
    x_knots[0] = 1.0
    x_knots[-1] = delta
    # dx/ds = dx/dy P s^(P-1) total / (y^(b/2-1) g_reg(y)); the graded
    # factor s^(P-1) / y^(b/2-1) spans a wide range, so take it in logs;
    # its s -> 0 limit is 0 when 2P > b and ((b/2) total)^(2/b-1) at 2P = b
    with np.errstate(divide="ignore", invalid="ignore"):
        grade = np.exp((P - 1.0) * np.log(s) - (half - 1.0) * np.log(y))
    grade[0] = ((half * total) ** (two_over_b - 1.0)) if 2 * P == int(b) else 0.0
    slopes = shape.dx_dy(y) * P * total * grade / shape.g_reg(y)

    table = _JumpTable(x_knots, slopes, P, cells, cert_error=math.nan)
    s_mid = (np.arange(cells) + 0.5) / cells
    x_mid = np.clip(table.fill_x_of_s(s_mid.copy(), *_buffers(cells)), 1e-300, 1.0)
    y_mid = shape.end_factor(np.log(x_mid))
    w_mid = np.power(y_mid, half)
    err_q = np.abs(panel.cdf(w_mid) / total - np.power(s_mid, float(P)))
    # a float64 quantile cannot beat the q-image of one ulp of x, and for
    # b < 2 that image diverges at the x -> 1 corner, so the target there
    # is floored at the image of a few ulp instead of the global one
    with np.errstate(divide="ignore", over="ignore"):
        dq_dx = (
            panel.h(w_mid) * half * np.power(np.maximum(y_mid, 1e-300), half - 1.0)
            * shape.dy_dx_abs(x_mid) / total
        )
    tol = np.maximum(_CERT_TARGET, 8.0 * np.spacing(x_mid) * dq_dx)
    table.cert_error = _CERT_TARGET * float(np.max(err_q / tol))
    return table


@functools.lru_cache(maxsize=32)
def _certified_jump_table(shape, delta: float) -> _JumpTable:
    """Keyed by shape: the weight cancels from the conditional jump law, so
    the hyperbolic and rescaled measures of a pair share their tables."""
    cells = _TABLE_CELLS
    last_error = math.inf
    while True:
        table = _build_jump_table(shape, delta, cells)
        if table.cert_error <= _CERT_TARGET:
            # every caller gets these arrays
            # (the coefficients are read-only from the start)
            for shared in (table.x_knots, table.slopes):
                shared.flags.writeable = False
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
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise DomainError("jump quantile probabilities must lie in [0, 1], NaN excluded")
    table = _certified_jump_table(measure.shape, delta)
    # the table runs in the upper-tail direction: x(q) with q = 1 - p
    q = np.ravel(1.0 - p_arr)
    out = table.fill_x_of_q(q, *_buffers(q.size))
    return float(out[0]) if p_arr.ndim == 0 else out.reshape(p_arr.shape)


def sample(measure: LevyMeasure1D, n: int, config: SamplerConfig | None = None) -> SampleBatch:
    """Draw n values of the zero-mean law. Deterministic given config.seed
    and config.batch_size; growing n extends the stream without altering
    the values a shorter run produced."""
    count = _integer(n)
    if count is None or count < 1:
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
    n = count
    if config is None:
        config = SamplerConfig()
    delta = config.cutoff_delta

    lam = tail_mass(measure, delta)
    if lam > _MAX_JUMP_RATE:
        # lam grows like delta^(1 - alpha), or like 1/delta for alpha = 1
        alpha = measure.shape.alpha
        if alpha > 1.0:
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
    table = _certified_jump_table(measure.shape, delta)

    out = np.empty(n)
    u_buf = np.empty(_JUMP_CHUNK)
    i_buf, g_buf, a_buf = _buffers(_JUMP_CHUNK)
    n_batches = 0
    for batch_index, start in enumerate(range(0, n, config.batch_size)):
        m = min(config.batch_size, n - start)
        block = out[start : start + m]
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence((config.seed, batch_index)))
        )
        # the Gaussian and the jump counts are drawn for the full block even
        # when the batch is partial: stream positions then never depend on m,
        # so a run with smaller n shares its prefix with a longer one
        if m == config.batch_size:
            rng.standard_normal(out=block)
        else:
            block[:] = rng.standard_normal(config.batch_size)[:m]
        block *= small_sd
        counts = rng.poisson(lam, size=config.batch_size)[:m]
        ends = np.cumsum(counts)
        total = int(ends[-1])
        # draw d owns jumps [ends[d] - counts[d], ends[d]), and the live
        # (non-empty) draws tile [0, total) in order; only they get pieces,
        # as reduceat would hand an empty piece x[lo], not 0. Their first
        # jumps and indices take over the buffers of counts and ends, and
        # the index array is freed before sums is allocated, so the batch
        # holds no more per-draw arrays than those two and sums (clip mode:
        # take buffers its output in raise mode)
        np.subtract(ends, counts, out=ends)
        nonzero = np.flatnonzero(counts)
        first = np.take(ends, nonzero, out=counts[: nonzero.size], mode="clip")
        live = ends[: nonzero.size]
        live[:] = nonzero
        del nonzero
        sums = np.zeros(m)
        # the jump uniforms are one stream read in fixed-size chunks
        # (partitioned Generator.random calls agree with a single call);
        # each chunk adds the sums of its pieces of the live draws it
        # overlaps, live[a:b], whose first one holds the chunk's first jump
        chunk_starts = np.arange(0, total, _JUMP_CHUNK)
        lo = np.searchsorted(first, chunk_starts, side="right") - 1
        hi = np.searchsorted(first, chunk_starts + _JUMP_CHUNK, side="left")
        for c0, a, b in zip(chunk_starts.tolist(), lo.tolist(), hi.tolist()):
            k = min(_JUMP_CHUNK, total - c0)
            rng.random(out=u_buf[:k])
            x = table.fill_x_of_q(u_buf[:k], i_buf[:k], g_buf[:k], a_buf[:k])
            seg = first[a:b] - c0
            seg[0] = 0
            sums[live[a:b]] += np.add.reduceat(x, seg)
        # (sums - compensator) + small_sd z, the operands and order of the
        # stream's definition
        sums -= compensator
        block += sums
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


def _central_moments(x: np.ndarray, xbar: float, max_order: int) -> dict:
    """{j: mean of (x - xbar)^j} for j = 2..max_order, summed over chunks
    of _MOMENT_CHUNK values, so the temporaries take O(chunk) memory
    whatever len(x); the means move from whole-array ones by rounding."""
    sums = dict.fromkeys(range(2, max_order + 1), 0.0)
    for c0 in range(0, len(x), _MOMENT_CHUNK):
        d = x[c0 : c0 + _MOMENT_CHUNK] - xbar
        # central powers by running products: d**j goes through libm pow,
        # about 60x slower on negative bases
        power = d.copy()
        for j in sums:
            power *= d
            sums[j] += float(np.sum(power))
    return {j: total / len(x) for j, total in sums.items()}


def empirical_cumulants(values: np.ndarray, max_order: int = 6) -> np.ndarray:
    """Unbiased cumulant estimates (k-statistics) up to max_order <= 6.

    Entry [m-1] estimates the order-m cumulant; E over samples equals the
    law's cumulant exactly at every order and sample size covered.
    """
    order = _integer(max_order)
    if order is None or not 1 <= order <= 6:
        raise DomainError(f"max_order must be an integer in [1, 6], got {max_order!r}")
    max_order = order
    x = np.asarray(values, dtype=float).ravel()
    n = len(x)
    if n < max_order + 1:
        raise DomainError(
            f"need at least {max_order + 1} values for order {max_order}, got {n}"
        )
    nf = float(n)
    xbar = float(np.mean(x))
    mom = _central_moments(x, xbar, max_order)
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
