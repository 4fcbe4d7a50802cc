"""Characteristic exponents and density recovery by Fourier inversion.

The characteristic function of the zero-mean infinitely divisible law with
Levy measure nu is exp(psi(t)) with

    psi(t) = integral of (e^{itx} - 1 - itx) nu(dx) over (0, 1).

psi is evaluated by double-exponential quadrature in the variable of the
measure's shape (see hyplevy.measures): u = x^(2/(k-1)) on (0, 1) for a
dimension pair, v = -log x on (0, inf) for the codimension limit, which
makes the integrand analytic away from the endpoints; the measure's
weight multiplies the result. Every psi quadrature runs to the relative
tolerance 1e-11 (_REL_TOL), which is fixed, not a parameter.
Frequencies are evaluated in blocks: one quadrature pass per block of up
to 32 frequencies computes the node-only factors (the u powers, the
endpoint factor) once per level and only the phase terms per frequency,
and each frequency keeps the level at which it alone converges. The scalar char_exponent is a block of one. Each
phase term e^{itx} - 1 - itx is computed in one form, its quartic Taylor
form in t where |t x| < 1e-4 and the sine form elsewhere: the nodes are
monotone in x within a level, so comparing max|t| x and min|t| x with
1e-4 splits the columns into all-small, all-large and mixed spans, and
only the mixed span needs a per-element mask.

Densities come from sampling exp(psi) on a uniform frequency grid,
truncating where |cf| falls below the threshold 1e-12 (_DECAY_THRESHOLD,
fixed like _REL_TOL), and applying one real-output FFT. The cutoff is
found by a doubling search over grid frequencies 4 dt, 8 dt, ..., seeded
by a bound: 1 - cos u <= u^2 / 2 gives |cf(t)| >= exp(-sigma^2 t^2 / 2),
and on the grid sigma t = k pi / half_width, so every probe k <= k_safe =
half_width sqrt(2 ln(1/threshold) - 2) / pi passes with |cf| >= e
threshold. The first quadrature call therefore evaluates k = 1 up to the
first probe >= k_safe as one block (1..32 at the defaults); the probes
above it are evaluated one at a time, and the grid then evaluates the
remaining frequencies up to the cutoff in blocks. The probes are still
checked in order from their values, so the cutoff is that of the plain
search; no frequency is evaluated twice and none above the cutoff is
used.

Only the half spectrum k = 0..N/2 is built: cf(-t) = conj(cf(t))
supplies the rest. With
x_m = (m - N/2) dx and dx dt = 2 pi / N, e^{-i k dt x_m} =
(-1)^k e^{-2 pi i k m / N}, so

    f(x_m) = (dt / 2 pi) sum_{|k| < N/2} cf(k dt) e^{-i k dt x_m}
           = (dt / 2 pi) hfft[a]_m,   a_k = (-1)^k cf(k dt),  a_{N/2} = 0,

where hfft is numpy's length-N FFT of the Hermitian extension of a. The
grid has no frequency +N/2 (the full grid runs over k = -N/2..N/2-1 and
its -N/2 entry is zero), hence a_{N/2} = 0 even when the cutoff is N/2.
The tests check the sum against a direct summation. The grid's mass and
moments are summed by einsum, never by dot: numpy hands a dot product of
more than 8192 elements to the BLAS thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayDetectionError, DomainError
from .measures import LevyMeasure1D
from .quadrature import exp_sinh, tanh_sinh

__all__ = [
    "DensityGrid",
    "CdfTable",
    "char_exponent",
    "char_function",
    "taylor_remainder_bound",
    "invert_to_density",
    "ks_distance",
    "ks_distance_sample",
    "STANDARD_NORMAL",
]

STANDARD_NORMAL = "standard_normal"

_SMALL_PHASE = 1e-4
_REL_TOL = 1e-11  # relative tolerance of every psi quadrature
_DECAY_THRESHOLD = 1e-12  # |cf| below which the spectrum is cut


_CHUNK = 2048  # columns per kernel pass: its temporaries stay (block, 2048)


def _phase_kernel(t, x, top, powers, forced=None) -> np.ndarray:
    """(e^{iy} - 1 - iy) top on the (block, nodes) phases y = t x, with
    its quartic Taylor form in t where |y| < _SMALL_PHASE (or where the
    node mask forced is set); powers = (x^2, x^3, x^4, x^5) times top,
    which the caller builds in a form that stays finite where top alone
    overflows.

    Each element is computed in one form only. |y| = |t| x grows with |t|
    and, the nodes x being monotone (ascending or descending, as their
    ends show), along the row, so the columns small at max |t| are small
    in every row, those large at min |t| are large in every row, and only
    the span between needs the row mask. The forms are the ones a where()
    over both would pick, so the values do not depend on the spans; the
    output is filled _CHUNK columns at a time.
    """
    t = np.asarray(t)
    at = np.abs(t)
    n = len(x)
    forced = np.zeros(n, dtype=bool) if forced is None else forced
    n_all = np.count_nonzero((np.max(at) * x < _SMALL_PHASE) | forced)
    n_any = np.count_nonzero((np.min(at) * x < _SMALL_PHASE) | forced)
    if n and x[0] > x[-1]:
        spans = ((0, n - n_any, "large"), (n - n_any, n - n_all, "mixed"), (n - n_all, n, "small"))
    else:
        spans = ((0, n_all, "small"), (n_all, n_any, "mixed"), (n_any, n, "large"))
    p2, p3, p4, p5 = powers
    t2 = t * t
    # per-row factors of the Taylor form, grouped as the full expression
    # -0.5 t2 p2 + t2 t2 / 24 p4 (and its imaginary twin) would group them
    r2, r4 = -0.5 * t2, t2 * t2 / 24.0
    i3, i5 = -t2 * t / 6.0, t2 * t2 * t / 120.0
    out = np.empty(np.broadcast_shapes(t.shape, x.shape), dtype=complex)
    re, im = out.real, out.imag
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, form in spans:
            for start in range(lo, hi, _CHUNK):
                cols = slice(start, min(start + _CHUNK, hi))
                if form != "small":
                    # -2 sin(y/2)^2 top and (sin y - y) top, in place
                    y = t * x[cols]
                    h = np.multiply(y, 0.5)
                    np.sin(h, out=h)
                    np.square(h, out=h)
                    h *= -2.0
                    np.multiply(h, top[cols], out=re[..., cols])
                    s = np.sin(y)
                    s -= y
                    np.multiply(s, top[cols], out=im[..., cols])
                if form != "large":
                    # over the large form where the row mask says small
                    small = True if form == "small" else (np.abs(y) < _SMALL_PHASE) | forced[cols]
                    np.copyto(re[..., cols], r2 * p2[cols] + r4 * p4[cols], where=small)
                    np.copyto(im[..., cols], i3 * p3[cols] + i5 * p5[cols], where=small)
    return out


_BLOCK = 32  # frequencies per quadrature pass; (32, nodes) complex arrays stay cache-sized


def _exponent_rule(measure: LevyMeasure1D):
    """The measure's psi as a function of a column of frequencies (a
    scalar frequency gives a 1-D integrand and a scalar psi): quadrature
    in its shape's variable, tanh-sinh on (0, 1) or exp-sinh on
    (0, inf), of the phase kernel on the shape's node factors."""
    shape = measure.shape
    coef = measure.coef

    def psi(t):
        def integrand(*nodes):
            return _phase_kernel(t, *shape.phase_terms(*nodes))

        rule = exp_sinh if shape.half_line else tanh_sinh
        return coef * rule(integrand, rel_tol=_REL_TOL, abs_tol=1e-300)

    return psi


def _char_exponents(measure: LevyMeasure1D, ts: np.ndarray) -> np.ndarray:
    """psi at every frequency of the 1-D array ts.

    Nonzero frequencies go through the family's quadrature in blocks of
    at most _BLOCK, one pass per block: the node-only factors are computed
    once per level and only the (block, nodes) phase terms per frequency.
    Each row keeps the level at which it alone converges, so a value does
    not depend on the block it shares.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    psi = _exponent_rule(measure)
    nonzero = np.flatnonzero(ts != 0.0)
    for start in range(0, len(nonzero), _BLOCK):
        rows = nonzero[start : start + _BLOCK]
        out[rows] = psi(ts[rows, None])
    return out


def char_exponent(measure: LevyMeasure1D, t: float) -> complex:
    """Log of the characteristic function at t; Re <= 0, psi(0) = 0.

    Quadrature in the variable of the measure's shape; a batch of one
    through the block path that invert_to_density uses.
    """
    return _char_exponents(measure, np.array([float(t)]))[0]


def char_function(measure: LevyMeasure1D, t: float) -> complex:
    """exp(char_exponent); |value| <= 1."""
    return complex(np.exp(char_exponent(measure, t)))


def taylor_remainder_bound(n: int, x: float) -> float:
    """min(2 |x|^n / n!, |x|^(n+1) / (n+1)!), the two-regime remainder
    bound for the exponential truncated after n terms."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"taylor_remainder_bound requires integer n >= 1, got {n!r}")
    a = abs(x)
    return min(2.0 * a**n / math.factorial(n), a ** (n + 1) / math.factorial(n + 1))


@dataclass(frozen=True)
class CdfTable:
    """Cumulative distribution sampled on a uniform grid."""

    x0: float
    step: float
    values: np.ndarray = field(compare=False, repr=False)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(len(self.values))

    def evaluate(self, x) -> np.ndarray:
        """Piecewise-linear interpolation, clamped to 0 and 1 outside."""
        return np.interp(np.asarray(x, dtype=float), self.xs, self.values, left=0.0, right=1.0)


@dataclass(frozen=True)
class DensityGrid:
    """A density sampled on a uniform grid, with diagnostic metadata.

    meta records mass (raw, before ripple clipping and renormalization),
    clipped_mass, mean, variance, third_central, the frequency cutoff used
    by the inversion, and the |cf| actually achieved at that cutoff.
    """

    x0: float
    step: float
    values: np.ndarray = field(compare=False, repr=False)
    meta: dict = field(compare=False, repr=False, default_factory=dict)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(len(self.values))

    def cdf(self) -> CdfTable:
        """Cumulative trapezoid of the grid, normalized to end at 1."""
        v = self.values
        inc = 0.5 * (v[1:] + v[:-1]) * self.step
        cum = np.concatenate(([0.0], np.cumsum(inc)))
        total = cum[-1]
        if not total > 0.0:
            raise DomainError("cannot build a CDF from a zero-mass grid")
        return CdfTable(x0=self.x0, step=self.step, values=cum / total)


def _weighted_total(w: np.ndarray, v: np.ndarray) -> float:
    """sum of w * v in einsum's own loop. numpy's dot hands more than 8192
    elements to the BLAS thread pool, which made an unpinned default
    density about 15x slower than a single-threaded one."""
    return float(np.einsum("i,i->", w, v))


def _trapz_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] = 0.5 * step
    w[-1] = 0.5 * step
    return w


# exponent headroom of the seed: the bound promises |cf| >= e * threshold
_SEED_MARGIN = 2.0


def _safe_index(half_width: float) -> float:
    """The grid index k_safe up to which |cf(k dt)| provably stays at
    least e * _DECAY_THRESHOLD: 1 - cos u <= u^2 / 2 gives
    |cf(t)| >= exp(-sigma^2 t^2 / 2), and sigma t = k pi / half_width on
    the grid, so k <= half_width sqrt(2 ln(1/threshold) - 2) / pi will do
    (0 for a threshold above e^-1, where the root is imaginary)."""
    room = -2.0 * math.log(_DECAY_THRESHOLD) - _SEED_MARGIN
    return half_width * math.sqrt(room) / math.pi if room > 0.0 else 0.0


def invert_to_density(
    measure: LevyMeasure1D,
    *,
    half_width: float = 12.0,
    n_points: int = 16384,
) -> DensityGrid:
    """Recover the density of the law on mean +- half_width standard
    deviations from its characteristic function.

    The frequency step is pinned by the requested window (dt = pi /
    (half_width sigma)); the cf is evaluated out to the first doubling
    probe k dt (k = 4, 8, 16, ... <= n/2) where |cf| drops below the
    fixed threshold 1e-12, and treated as zero beyond. Since
    |cf(t)| >= exp(-sigma^2 t^2 / 2), no probe up to
    k_safe = half_width sqrt(2 ln(1/threshold) - 2) / pi can be the
    cutoff, so k = 1 up to the first probe >= k_safe is evaluated as one
    block and checked in order; the probes above it one at a time. When
    that first probe is the top one n/2, or every probe is below k_safe
    (a window too wide for n_points), the top probe is evaluated alone
    first: if it does not drop below the threshold, DecayDetectionError
    is raised with its |cf| and nothing else is evaluated; otherwise
    k = 1..n/2 - 1 follow as one block. DecayDetectionError is also
    raised when no probe drops below the threshold. The bound takes
    measure.total_second_moment as sigma^2; should the top probe of a
    measure that understates it fail all the same, the whole ladder is
    searched. The density on x_m = (m - n/2) dx, dx = 2 pi / (n dt), is
    the half-spectrum sum

        f(x_m) = (dt / 2 pi) hfft[a]_m,  a_k = (-1)^k cf(k dt), k = 0..n/2,

    with a_k = 0 above the cutoff and at k = n/2 (numpy.fft.hfft, length
    n). half_width must be positive and finite, n_points a multiple of 4
    and at least 256. Negative ripple is clipped, the grid renormalized,
    and both amounts recorded in meta.
    """
    if not (0.0 < half_width < math.inf):
        raise DomainError(f"half_width must be positive and finite, got {half_width!r}")
    if not (isinstance(n_points, int) and n_points >= 256 and n_points % 4 == 0):
        raise DomainError(
            f"n_points must be an integer multiple of 4, >= 256, got {n_points!r}"
        )
    sigma_law = math.sqrt(measure.total_second_moment)
    dt = math.pi / (half_width * sigma_law)
    n = n_points
    t_grid_max = 0.5 * n * dt

    # doubling search for the truncation frequency over the grid probes
    # i = 4, 8, 16, ... <= n/2. Every probe up to k_safe passes (see
    # _safe_index), so the first call evaluates k = 1..seed as one block,
    # seed being the first probe >= k_safe; above the seed, one probe per
    # call. When the seed is the top probe, or no probe reaches k_safe,
    # the top probe goes alone first. The probes are checked in order from
    # their values, so the cutoff is the first probe below the threshold,
    # as in a plain search.
    half = n // 2
    ladder = [4 << m for m in range((half // 4).bit_length())]
    top = ladder[-1]
    k_safe = _safe_index(half_width)
    seed = next((i for i in ladder if i >= k_safe), None)
    # half spectrum a_k = (-1)^k cf(k dt), k = 0..n/2
    a = np.zeros(half + 1, dtype=complex)
    a[0] = 1.0
    known = np.zeros(half + 1, dtype=bool)
    known[0] = True

    def evaluate(ks: np.ndarray) -> None:
        a[ks] = np.exp(_char_exponents(measure, ks * dt))
        known[ks] = True

    checked = ladder
    if seed is None or seed == top:
        # every probe below the top one is below k_safe and passes, so the
        # top probe alone decides whether any probe reaches the threshold;
        # if it does not, its |cf| is reported. (A measure whose
        # total_second_moment understates its second moment can break the
        # bound; with no seed its failing top probe then has the whole
        # ladder searched.)
        evaluate(np.array([top]))
        if abs(a[top]) >= _DECAY_THRESHOLD:
            checked = [top]
        elif seed is not None:
            evaluate(np.arange(1, top))
    else:
        evaluate(np.arange(1, seed + 1))
    for i_cut in checked:
        if not known[i_cut]:
            a[i_cut] = char_function(measure, i_cut * dt)
            known[i_cut] = True
        achieved = float(abs(a[i_cut]))
        if achieved < _DECAY_THRESHOLD:
            break
    else:
        raise DecayDetectionError(
            f"|cf| only reached {achieved:.3e} at the edge of the frequency "
            f"window (t = {t_grid_max:.6g}); enlarge n_points or half_width",
            achieved,
        )
    t_cut = i_cut * dt

    # the rest up to the cutoff; nothing above it is placed, and neither
    # is a probe at n/2, since the grid's top frequency is (n/2 - 1) dt
    ks = np.flatnonzero(~known[: i_cut + 1])
    if ks.size:
        evaluate(ks)
    a[min(i_cut + 1, half) :] = 0.0
    a[1::2] *= -1.0
    values = np.fft.hfft(a, n)
    values *= dt / (2.0 * math.pi)
    dx = 2.0 * math.pi / (n * dt)
    x0 = -half * dx

    # in place where possible: a fresh n-length temporary costs page
    # faults on top of its pass
    w = _trapz_weights(n, dx)
    raw_mass = _weighted_total(w, values)
    ripple = np.minimum(values, 0.0)
    clipped_mass = -_weighted_total(w, ripple)
    values -= ripple  # clipped at 0
    values /= _weighted_total(w, values)
    # moments by products, never pow (libm pow on negative bases costs
    # ~70 ns an element); w becomes the normalized trapezoid mass
    w *= values
    c = np.arange(n, dtype=float)
    c *= dx
    c += x0  # the grid's xs
    mean = _weighted_total(w, c)
    c -= mean
    c2 = c * c
    var = _weighted_total(w, c2)
    c2 *= c
    third = _weighted_total(w, c2)
    meta = {
        "mass": raw_mass,
        "clipped_mass": clipped_mass,
        "mean": mean,
        "variance": var,
        "third_central": third,
        "cf_cutoff": t_cut,
        "cf_at_cutoff": achieved,
        "half_width": half_width,
        "n_points": n,
    }
    return DensityGrid(x0=x0, step=dx, values=values, meta=meta)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    flat = np.asarray(x, dtype=float).ravel()
    out = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in flat])
    return out.reshape(np.shape(x))


def _as_cdf(obj):
    """Normalize the ks_distance operand kinds to (evaluator, xlo, xhi)."""
    if isinstance(obj, DensityGrid):
        obj = obj.cdf()
    if isinstance(obj, CdfTable):
        return obj.evaluate, float(obj.x0), float(obj.x0 + obj.step * (len(obj.values) - 1))
    if obj == STANDARD_NORMAL:
        return _normal_cdf, -40.0, 40.0
    raise DomainError(f"cannot interpret {obj!r} as a distribution")


def ks_distance(a, b) -> float:
    """Kolmogorov distance sup |F_a - F_b|.

    Operands may be DensityGrid, CdfTable, or the STANDARD_NORMAL
    sentinel. Evaluation points are the union of both grids plus
    midpoints; outside its support a CDF counts as 0 or 1.
    """
    fa, alo, ahi = _as_cdf(a)
    fb, blo, bhi = _as_cdf(b)
    pts = []
    for f, lo, hi in ((fa, alo, ahi), (fb, blo, bhi)):
        if hi > lo:
            pts.append(np.linspace(lo, hi, 4097))
    grid = np.unique(np.concatenate(pts))
    mids = 0.5 * (grid[1:] + grid[:-1])
    grid = np.sort(np.concatenate([grid, mids]))
    return float(np.max(np.abs(fa(grid) - fb(grid))))


def ks_distance_sample(sample: np.ndarray, dist) -> float:
    """Kolmogorov distance between an empirical sample and a distribution
    operand accepted by ks_distance."""
    f, _, _ = _as_cdf(dist)
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    if n == 0:
        raise DomainError("empty sample")
    model = f(xs)
    hi = np.max(np.arange(1, n + 1) / n - model)
    lo = np.max(model - np.arange(0, n) / n)
    return float(max(hi, lo))
