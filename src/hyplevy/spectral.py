"""Characteristic exponents and density recovery by Fourier inversion.

The characteristic function of the zero-mean infinitely divisible law with
Levy measure nu is exp(psi(t)) with

    psi(t) = integral of (e^{itx} - 1 - itx) nu(dx) over (0, 1).

psi has two routes, and each frequency takes exactly one.

The cumulant series. The jumps lie in (0, 1), so psi(t) = sum over
m >= 2 of kappa_m (it)^m / m! converges for every t, and kappa_m is the
measure's closed-form moment (its shape's log_moment plus the weight).
The series is summed over the orders m = 2..89 as one (frequencies x
orders) array, one exp per term, with row sums by np.sum and einsum.
Each sum carries a stated a-priori bound, first order in the unit
roundoff, on its terms' rounding, its summation and its truncation
(_series_rows states the parts). A frequency takes the series when
that bound is at most 1e-13 |psi| (_SERIES_TOL, 100 times the
quadrature's tolerance, fixed like it). The frequencies are tried in
order of |t|, and the first that fails ends the run, so the series
answers the |t| below some edge and the quadrature every one above. The
coefficients depend on the shape alone and are cached per shape. Past
that edge, and below the remainder's pole |t| = 91, the same value less
its bound is still a certified lower bound on Re psi, which the density's
cutoff search uses. A density evaluates the series once: the grid's
leading run and the cutoff probes share one call (_series_exponents),
and each batch of grid frequencies reads its series values from that
run.

The quadrature, for the rest: double-exponential quadrature in the
variable of the measure's shape (see hyplevy.measures): u = x^(2/(k-1))
on (0, 1) for a dimension pair, v = -log x on (0, inf) for the
codimension limit, which makes the integrand analytic away from the
endpoints; the measure's weight multiplies the result. Every psi
quadrature runs to the relative tolerance 1e-11 (_REL_TOL), which is
fixed, not a parameter. The frequencies of one call are one batch, a
single quadrature pass in row tiles whose values do not depend on the
batch (_quadrature_exponents); the scalar char_exponent is a batch of
one. The batch hands the rule each row's weighted sums over the parts of
an integrand call's nodes, level 5 and the nodes level 6 adds in the
first call, one level's new nodes in each later one (_PhaseLevel). Each
phase term e^{itx} - 1 - itx is taken in one form, its quartic Taylor
form in t where |t x| < 1e-4 and the large form elsewhere. Where the
Taylor form holds, and where x rounds to 1.0 (so the phase is t itself),
a row's sum is a node-only sum, formed once per part, times a factor of
the row: those columns, about two thirds of the
density grid's, cost no work per element. The large form has two
routes. Any batch can take two sines per term. The grid frequencies
k dt that invert_to_density passes come in runs of consecutive k, where
the phases at a node form an arithmetic progression; there a doubling
recurrence gives each row from a few rows of sines by one complex
multiply-add. Each route has a stated error per term and per row sum,
which the tests check against mpmath.

Densities come from sampling exp(psi) on a uniform frequency grid,
truncating where |cf| falls below the threshold 1e-12 (_DECAY_THRESHOLD,
fixed like _REL_TOL), and one pruned real-output FFT, in three stages:
_cutoff_search, _transform and _grid_moments. The cutoff comes from a
doubling search over the grid, seeded at the first probe that neither of
two lower bounds on |cf| shows to stay above the threshold: the Gaussian
exp(-sigma^2 t^2 / 2), and the cumulant series less its stated bound.
So the quadrature takes every grid frequency up to the seed that the
series leaves in one pass, and a density of the benchmark's density_grid
workload takes 0.67 quadrature passes (1.35 with the Gaussian bound
alone); _cutoff_search's docstring states the search in full.

Only the half spectrum k = 0..N/2 is built: cf(-t) = conj(cf(t))
supplies the rest. With x_m = (m - N/2) dx and dx dt = 2 pi / N,
e^{-i k dt x_m} = (-1)^k e^{-2 pi i k m / N}, so

    f(x_m) = (dt / 2 pi) sum_{|k| < N/2} cf(k dt) e^{-i k dt x_m}
           = sum_{|k| < L} a_k e^{-2 pi i k m / N},
      a_k = (dt / 2 pi) (-1)^k cf(k dt),  a_{-k} = conj(a_k),

with a_k = 0 above the cutoff. The grid has no frequency +N/2 (the full
grid runs over k = -N/2..N/2-1 and its -N/2 entry is zero), so the last
k placed is at most N/2 - 1 even when the cutoff is N/2, and L is the
least divisor of N/2 above it. Only these L + 1 coefficients enter the
transform (a pruned FFT: Markel 1971, IEEE Trans. Audio Electroacoust.
19:305), split six-step style (Bailey 1990, J. Supercomputing 4:23):
with R = N / (2L) and m = R j + r,

    f(x_{Rj+r}) = sum_{|k| < L} (a_k e^{-2 pi i k r / N}) e^{-2 pi i k j / (2L)},

for each r a length-2L transform of a Hermitian sequence, whose entry
k = L is 0. The R transforms run as one call, numpy's irfft with norm
"forward" along the first axis of the (L + 1, R) conjugates
conj(a_k) e^{2 pi i k r / N}, and its (2L, R) result read row by row is
f. The factors e^{2 pi i k r / N} of the k placed are cached per N and
the last k placed, which fix L (_twiddles). A cutoff at N/2 makes
L = N/2 and R = 1, the plain length-N transform.
The tests check the sum against a direct summation.

The grid's mass and moments are trapezoid sums by ndarray.sum, never by
dot: numpy hands a dot product of more than 8192 elements to the BLAS
thread pool. The raw mass, the clipped ripple's mass and the normalising
sum of the clipped grid come first. The moments are then raw moments
about the law's known mean 0, on the integer ramp m - N/2 (x_m = (m -
N/2) dx), made central by the grid mean and scaled by powers of dx
(_grid_moments). That takes 13 passes over the grid, down from 17 with
the xs formed and recentred: six fix the values' bits (the three sums,
the clip, its subtraction and a true divide), and the moments take the
ramp, three products and three sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayDetectionError, DomainError, _integer, _real
from .measures import LevyMeasure1D
from .quadrature import _TILE, RowBatch, exp_sinh, tanh_sinh
from .specfun import log_gamma

__all__ = [
    "DensityGrid",
    "CdfTable",
    "char_exponent",
    "char_function",
    "invert_to_density",
    "ks_distance",
    "ks_distance_sample",
    "STANDARD_NORMAL",
]

STANDARD_NORMAL = "standard_normal"

_SMALL_PHASE = 1e-4
_REL_TOL = 1e-11  # relative tolerance of every psi quadrature
_DECAY_THRESHOLD = 1e-12  # |cf| below which the spectrum is cut
_SEED_ROWS = 4  # rows of a frequency run whose phase terms are direct
_PROGRESSION_ERR = 16.0  # the recurrence's stated error, in u (|E| + |y|) |top|
_TAYLOR_COEF = np.array([-1.0 / 2.0, -1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0])  # of t^2 .. t^5


def _unit_phase(y):
    """e^{iy} - 1 as its two parts, -2 sin(y/2)^2 and sin y, each to a few
    ulp of itself."""
    h = np.multiply(y, 0.5)
    np.sin(h, out=h)
    np.square(h, out=h)
    h *= -2.0
    return h, np.sin(y)


def _progression(t, x, top, dt, out) -> None:
    """(e^{iy} - 1) top into the (rows, nodes) complex array out, on the
    phases y = t x of a run of consecutive grid frequencies t = k dt.

    The first _SEED_ROWS rows are direct (_unit_phase). Then the filled
    rows [0, h) give rows [h, 2h) at once: with s = h dt x per node and
    G(y) = e^{iy} - 1, G(y + s) = G(y) (1 + G(s)) + G(s), and h doubles.
    So a row is at most ceil(log2(rows / _SEED_ROWS)) steps from its
    seed, and each step is one multiply-add over the rows it fills. The
    seeds and the shifts G(s) take their sines in one call. G(s) is
    taken from its sines, never as e^{is} - 1, and for small y and s every
    term of a new real or imaginary part has the sign of their total, so
    no step cancels (Reinsch's stable form of the rotation; Gentleman
    1969, Computer J. 12:160).
    """
    n = len(t)
    seed = min(n, _SEED_ROWS)
    shifts = seed << np.arange(max(0, math.ceil(math.log2(n / seed))))
    phases = np.concatenate((t[:seed], shifts * dt))[:, None] * x
    g = np.empty(phases.shape, dtype=complex)
    g.real, g.imag = _unit_phase(phases)
    np.multiply(g[:seed], top, out=out[:seed])
    turn = g[seed:] + 1.0  # e^{is}
    lift = g[seed:] * top  # G(s) top
    for h, turn_h, lift_h in zip(shifts, turn, lift):
        new = out[h : 2 * h]
        np.multiply(out[: len(new)], turn_h, out=new)
        new += lift_h


class _PhaseLevel:
    """psi's integrand on the nodes of one integrand call, summed by row
    and part: for rows of frequencies t, the sums over each part's nodes
    of w E(y) top, y = t x and E(y) = e^{iy} - 1 - iy (sums). x, top and
    powers, the (4, nodes) array of x^m top for m = 2..5, come from one
    call of the shape's phase_terms over all of them, which keeps the
    powers finite where top alone overflows; x lies in [0, 1]. The parts'
    weights come with the first rows, as the rule passes them, and split
    the nodes into parts: a level's nodes, or the ones the next level
    adds.

    The nodes are put in ascending x within each part, the parts side by
    side (exp-sinh's x = e^-v descend, so its call's nodes are reversed
    whole, and its parts with them). Each term is taken in one form: its
    quartic Taylor form in t where |y| < _SMALL_PHASE, the large form
    elsewhere.
    So in each part a row's Taylor columns are its first b, b =
    searchsorted(x, _SMALL_PHASE / |t|) over the part, a function of t
    alone, and its large ones run from b to the end. Per call, once,
    _weigh forms the node-only sums. Per row and part, the Taylor columns
    and the columns where x rounds to 1.0 cost O(1):
    - Taylor: -t^2/2 P2 + t^4/24 P4 + i(-t^3/6 P3 + t^5/120 P5), P_m the
      prefix sum of w x^m top over the first b columns (a sequential
      np.add.accumulate in ascending x);
    - x == 1.0: there y = t, and the sum is (G(t) - it) S1, S1 the sum of
      w top over those columns and G(y) = e^{iy} - 1 (_unit_phase), in
      every row with |t| >= 1e-4 (below, b takes them into the prefix
      sums).
    Only the large columns below x = 1.0 cost work per element: one block
    per run of rows (below), over every part's columns from the run's
    least b to that part's end, side by side, of (G(y) - iy) w top
    (_large_terms), and each row is summed over its own columns b.. of
    each part by one np.add.reduceat. So every step of a row reads its own
    frequency and the call's node arrays only, and a row's sum over a
    part is the one it has alone over that part, bit for bit, whichever
    rows and parts share its call (with dt, its run start aside).

    The large form has two routes. Without dt, all the rows are one run,
    and each element takes two sines (_unit_phase): -2 sin(y/2)^2 w top
    and (sin y - y) w top. With dt, the rows' frequencies are grid
    frequencies t = k dt for integers k = rint(t / dt), and each run of
    consecutive k takes the doubling recurrence (_progression) from its
    first row with w top as its top: a few rows of sines, one complex
    multiply-add for each other row, and the imaginary part less t
    (x w top) per element, so no cancellation moves into a sum. Against
    the exact value at the given t, x and w top, such an element errs by
    at most _PROGRESSION_ERR u (|E| + |y|) |w top|, u the unit roundoff;
    the |y| part is the cancellation in sin y - y, which the sine route
    has too. A row's sum over a part then errs, to first order in u, by
    at most the sum of those element bounds over its large columns (the
    x == 1.0 ones included), plus (n + 10) u times the sum over the
    part's n nodes of w (|Re F| + |Im F|), F the exact term in its form.
    The second part covers the products with w, every sum of at most n
    terms (the prefix sums, S1 and the reduction) and the row factors'
    roundings; the tests check both parts against mpmath. The temporaries
    are the size of the parts' spans times the rows, which the rule's row
    tiles (hyplevy.quadrature._TILE) bound.
    """

    def __init__(self, x, top, powers):
        self.nodes = (x, top, powers)
        self.parts = None

    def _weigh(self, ws) -> None:
        """The layout and the node-only sums under the parts' weights ws,
        once, in the order above: x, top, powers and w; each part's
        (start, end, stop) columns, x rounding to 1.0 from end on (and
        starts and ends as arrays); the prefix sums of w x^m top as a
        (nodes + parts, 4) array (m = 2..5 across), part p's from a
        leading 0 in row start + p on, so that the first b columns of the
        layout sum to row b + lift[p], lift = (0, 1, ...); w top and
        x w top; and each part's sum of w top over its x == 1.0 columns
        (one)."""
        x, top, powers = self.nodes
        self.step = -1 if x[0] > x[-1] else 1  # every part runs the same way
        self.x, self.top = x[:: self.step], top[:: self.step]
        self.powers = powers[:, :: self.step]
        self.w = np.concatenate(ws)[:: self.step]
        terms = self.w[:, None] * self.powers.T
        self.prefix = np.zeros((len(self.x) + len(ws), 4))
        # inf or nan only in columns small for every finite frequency below
        # about 1e300, where top overflows (x tiny or 0)
        with np.errstate(over="ignore", invalid="ignore"):
            self.wtop = self.w * self.top
            self.xwtop = self.x * self.wtop
        self.parts, one, start = [], [], 0
        for p, w in enumerate(ws[:: self.step]):
            stop = start + len(w)
            end = start + int(np.searchsorted(self.x[start:stop], 1.0))
            self.parts.append((start, end, stop))
            rows = slice(start + p + 1, stop + p + 1)  # below them, the part's leading 0
            np.add.accumulate(terms[start:stop], axis=0, out=self.prefix[rows])
            one.append(np.add.reduce(self.wtop[end:stop]) if end < stop else 0.0)
            start = stop
        self.one = np.array(one)
        self.starts, self.ends = (np.array(c) for c in list(zip(*self.parts))[:2])
        self.lift = np.arange(len(ws))

    def sums(self, t, ws, dt=None) -> np.ndarray:
        """The (parts, rows) row sums at the 1-D frequencies t (nonzero),
        with dt for grid frequencies t = k dt."""
        if self.parts is None:
            self._weigh(ws)
        small = _SMALL_PHASE / np.abs(t)
        b = np.empty((len(t), len(self.parts)), dtype=np.intp)  # columns of the layout
        for p, (start, _, stop) in enumerate(self.parts):
            b[:, p] = np.searchsorted(self.x[start:stop], small)
        b += self.starts
        # Taylor: the prefix sums times (-t^2/2, -t^3/6, t^4/24, t^5/120),
        # the real parts summed beside the imaginary ones
        factors = np.empty((len(t), 1, 4))
        np.multiply(t, t, out=factors[:, 0, 0])
        for j in range(1, 4):
            np.multiply(factors[:, 0, j - 1], t, out=factors[:, 0, j])
        factors *= _TAYLOR_COEF
        factors = factors * self.prefix[b + self.lift]
        parts = factors[..., :2] + factors[..., 2:]
        if any(end < stop for _, end, stop in self.parts):
            # the x == 1.0 columns, large in every row with b <= end (a
            # part without them adds 0)
            one = (b <= self.ends) * self.one
            h, s = _unit_phase(t)
            s -= t
            parts[..., 0] += h[:, None] * one
            parts[..., 1] += s[:, None] * one
        out = parts.view(complex)[..., 0]
        if (b.min(axis=0) < self.ends).any():
            out += self._large(t, b, dt)  # 0 where a row has no large column
        return out.T[:: self.step]

    def _large(self, t, b, dt) -> np.ndarray:
        """Each row's sum of its large-form terms over its columns b..end
        of each part, (rows, parts), by one reduceat over _large_terms."""
        flat, bounds = self._large_terms(t, b, dt)
        sums = np.add.reduceat(flat, bounds.ravel())[0::2].reshape(b.shape)
        # no large column: reduceat would give flat[start]
        sums[bounds[:, 0::2] == bounds[:, 1::2]] = 0.0
        return sums

    def _large_terms(self, t, b, dt):
        """The large form (G(y) - iy) w top of the rows t, whose Taylor
        columns end at b (rows, parts, columns of the layout): (flat,
        bounds), row i's terms over part p's columns b[i, p]..end being
        flat[bounds[i, 2p] : bounds[i, 2p + 1]], in ascending x.

        Each run of rows (each run of consecutive k with dt, all the rows
        without) is one (rows, columns) block of flat over the columns of
        every part from the run's least b to that part's end, the parts
        side by side; so a run takes no column below its least b, and the
        segments between a row's own columns are summed and dropped."""
        own = np.minimum(b, self.ends)
        starts = [0]
        if dt is not None:
            k = np.rint(t / dt)
            starts += (np.flatnonzero(k[1:] != k[:-1] + 1.0) + 1).tolist()
        runs = list(zip(starts, starts[1:] + [len(t)]))
        firsts = np.minimum.reduceat(own, starts, axis=0).tolist()  # per run and part
        ends = self.ends.tolist()
        widths = [sum(ends) - sum(first) for first in firsts]
        size = sum((c - a) * width for (a, c), width in zip(runs, widths))
        flat = np.empty(size + 1, dtype=complex)  # one spare: every bound is in range
        bounds = np.empty((len(t), 2 * len(ends)), dtype=np.intp)
        offset = 0
        for (a, c), first, width in zip(runs, firsts, widths):
            row = np.arange(offset, offset + (c - a) * width, width)
            at = 0  # the part's first column in the block
            for p, (f, end) in enumerate(zip(first, ends)):
                np.add(row, own[a:c, p], out=bounds[a:c, 2 * p])
                bounds[a:c, 2 * p] += at - f
                at += end - f
                np.add(row, at, out=bounds[a:c, 2 * p + 1])
            if width:
                cols = [slice(f, end) for f, end in zip(first, ends)]
                x = np.concatenate([self.x[col] for col in cols])
                wtop = np.concatenate([self.wtop[col] for col in cols])
                block = flat[offset : offset + (c - a) * width].reshape(c - a, width)
                if dt is None:
                    y = t[a:c, None] * x
                    h, s = _unit_phase(y)
                    np.multiply(h, wtop, out=block.real)
                    s -= y
                    np.multiply(s, wtop, out=block.imag)
                else:
                    _progression(t[a:c], x, wtop, dt, block)
                    xwtop = np.concatenate([self.xwtop[col] for col in cols])
                    run_t = t[a:c, None]
                    step = max(1, _TILE // (4 * width))  # the product's rows at a time
                    for i in range(0, c - a, step):
                        block.imag[i : i + step] -= run_t[i : i + step] * xwtop
            offset += (c - a) * width
        return flat, bounds


def _quadrature_exponents(measure: LevyMeasure1D, ts: np.ndarray, dt=None) -> np.ndarray:
    """psi at every frequency of the nonempty 1-D array ts by quadrature.

    The frequencies are one batch of the family's quadrature, tanh-sinh
    on (0, 1) or exp-sinh on (0, inf) in its shape's variable, so one
    pass runs over all of them: the shape's node factors and their
    weighted node sums are computed once per integrand call, and each
    row's sum (_PhaseLevel) only for the rows that have not converged, in
    the rule's row tiles. Each row keeps the level at which it converges.
    Without dt its value is the one a call with that frequency alone
    returns. With dt, ts must be grid frequencies k dt for integers k,
    and the runs of consecutive k among a tile's rows take the
    recurrence, so a row's value also depends on where its run starts,
    within the recurrence's stated error. Zero frequencies are the
    caller's to drop (char_exponent does).
    """
    shape = measure.shape
    t = np.asarray(ts, dtype=float)

    def integrand(*nodes):
        level = _PhaseLevel(*shape.phase_terms(*nodes))
        return RowBatch(len(t), lambda rows, ws: level.sums(t[rows], ws, dt))

    rule = exp_sinh if shape.half_line else tanh_sinh
    # a phase term that overflows (|t| near 1e300) makes its row nan, which
    # never converges: QuadratureError reports it, and no warning repeats it
    with np.errstate(over="ignore", invalid="ignore"):
        return measure._times_coef(rule(integrand, rel_tol=_REL_TOL, abs_tol=1e-300))


_U = 2.0**-53  # unit roundoff of a double
_SERIES_TOL = 1e-13  # the series answers where its error bound is below this times |psi|
_SERIES_ORDERS = 88  # the series runs over the orders m = 2..89
_SERIES_POLE = _SERIES_ORDERS + 3.0  # the remainder's pole m_top + 2 (_remainder)
_N_EVEN = (_SERIES_ORDERS + 1) // 2  # of them even, the larger half
# an n-term sum in any order errs by at most (n - 1) u / (1 - (n - 1) u) of its sum of |terms|
_SUM_ERR = (_N_EVEN - 1) * _U / (1.0 - (_N_EVEN - 1) * _U)


@dataclass(frozen=True)
class _SeriesTable:
    """A shape's cumulant series psi(t) = sum_m kappa_m (it)^m / m!.

    orders holds m = 2..89, the even ones first (they make Re psi) and
    then the odd ones (Im psi), so the top order is the last; coef the
    weight-free log kappa_m - log m!; signs the sign of i^m's real or
    imaginary unit; err the per-term error weights, one row each for the
    parts of the bound that do not depend on the frequency or weight,
    that scale with |log_weight| and that scale with |log |t||; reach the
    |t| from which no frequency can pass (see _series_table)."""

    orders: np.ndarray
    coef: np.ndarray
    signs: np.ndarray
    err: np.ndarray
    reach: float


def _remainder(term_top: np.ndarray, at: np.ndarray, m_top: float) -> np.ndarray:
    """Bound on the series past its top order m_top, for |t| < m_top + 2:
    kappa_(m+1) <= kappa_m on (0, 1), so each later term is at most
    |t| / (m + 1) times the one before, and the remainder is at most
    |term_top| r / (1 - q), r = |t| / (m_top + 1), q = |t| / (m_top + 2)."""
    return term_top * (at / (m_top + 1.0)) / (1.0 - at / (m_top + 2.0))


@functools.lru_cache(maxsize=256)
def _series_table(shape) -> _SeriesTable:
    """Keyed by shape, which fixes every coefficient; the weight is added
    per call. 256 entries hold the shapes of a 128-law sweep.

    Each coefficient is a log_moment less log_gamma(m + 1), and 4 u of
    the two logs' sizes bound its error. The reach is where the part of
    the bound that every frequency carries, over the second term
    kappa_2 t^2 / 2 (an upper bound on |psi|), reaches _SERIES_TOL:
    the coefficients', sums' and exps' errors, the |log t| part for
    t > 1, and the remainder. Each grows with |t|, so no frequency at or
    above the reach can pass; it is found by bisection in log t.
    """
    orders = np.concatenate(
        [np.arange(2, 2 + _SERIES_ORDERS, 2), np.arange(3, 2 + _SERIES_ORDERS, 2)]
    ).astype(float)
    log_fact = [log_gamma(m + 1.0) for m in orders]
    coef = np.array([shape.log_moment(int(m)) - lf for m, lf in zip(orders, log_fact)])
    size = np.array([shape.log_moment_size(int(m)) + lf + 2.0 for m, lf in zip(orders, log_fact)])
    # per term, over |term|: the coefficient, the exponent's sum and
    # weight addition (2 u |coef + log_weight|), the exp and the sums
    base = 4.0 * _U * size + 2.0 * _U * (np.abs(coef) + 1.0) + _SUM_ERR
    err = np.stack([base, np.full_like(base, 2.0 * _U), 4.0 * _U * orders])

    def excess(lt: float) -> float:
        rel = np.exp(coef - coef[0] + (orders - 2.0) * lt)  # term_m / term_2
        return (
            float(np.sum(rel * (base + 4.0 * _U * orders * max(lt, 0.0))))
            + float(_remainder(rel[-1], math.exp(lt), orders[-1]))
            - _SERIES_TOL
        )

    # up to the remainder's pole at m_top + 2; a frequency the reach
    # excludes goes to the quadrature, so the reach costs no accuracy
    lo, hi = math.log(1e-3), math.log(_SERIES_POLE)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) <= 0.0 else (lo, mid)
    signs = np.where(orders % 4.0 < 2.0, 1.0, -1.0)
    for shared in (orders, coef, signs, err):  # every caller gets these arrays
        shared.flags.writeable = False
    return _SeriesTable(orders=orders, coef=coef, signs=signs, err=err, reach=math.exp(hi))


def _series_rows(table: _SeriesTable, log_weight: float, ts: np.ndarray):
    """psi by the cumulant series at every frequency of ts (nonzero, |t|
    below the remainder's pole _SERIES_POLE), with its stated error
    bound: (the values, their bounds).

    Every term is one exp of w + log kappa_m - log m! + m log|t|, w the
    log_weight; its sign comes from i^m and sign(t)^m. The bound has
    three parts, first order in the unit roundoff u:
    - each term's exp-of-log, relative to the term: the coefficient's
      own error, 2 u (|log kappa_m - log m!| + |w|) for the weight's
      addition and the exponent's sum, 4 u m |log|t|| for log|t| (1 ulp)
      and its product, and 2 u for the exp;
    - the two sums, Re over the even orders and Im over the odd ones, in
      any order: _SUM_ERR times their sum of |terms|;
    - the truncation after the top order (_remainder);
    plus 2^-1074 per term for subnormal underflow. Each row's value and
    bound come from its own frequency alone, so they are the same in any
    call.
    """
    at = np.abs(ts)
    lam = np.log(at)
    terms = np.exp(table.coef + log_weight + lam[:, None] * table.orders)
    signed = terms * table.signs
    psi = np.empty(len(lam), dtype=complex)
    psi.real = np.sum(signed[:, :_N_EVEN], axis=1)
    psi.imag = np.sum(signed[:, _N_EVEN:], axis=1) * np.sign(ts)
    parts = np.einsum("ij,kj->ki", terms, table.err)
    bound = parts[0] + abs(log_weight) * parts[1] + np.abs(lam) * parts[2]
    bound += _remainder(terms[:, -1], at, table.orders[-1])
    bound += len(table.orders) * 2.0**-1074
    return psi, bound


def _series_exponents(measure: LevyMeasure1D, ts: np.ndarray, probes=()):
    """psi by the cumulant series on the leading run of the frequencies ts
    (nonzero, ascending in |t|) whose error bound (_series_rows) is at
    most _SERIES_TOL |psi|, then at every frequency of probes (nonzero,
    |t| below the remainder's pole): (the values, their bounds), both as
    long as that run plus the probes.

    A frequency is kept when bound <= _SERIES_TOL (|psi| - bound), so the
    bound is at most _SERIES_TOL times the true |psi|; the run ends at the
    first that is not, and the frequencies from the table's reach on are
    not tried. Rows go in tiles of at most _TILE elements (rows x orders),
    the quadrature's budget, and no tile follows one the run ends in. The
    probes ride in the first tile, so a density's cutoff search and its
    series rows take one _series_rows call (invert_to_density). Since each
    row comes from its own frequency alone, the run and the probes' rows
    do not depend on each other. A term that overflows makes its row fail
    (the run) or its bound infinite (a probe).
    """
    table = _series_table(measure.shape)
    n = int(np.searchsorted(np.abs(ts), table.reach, side="left"))
    step = _TILE // len(table.orders)
    lead = min(n, step)
    if not lead + len(probes):
        return np.zeros(0, dtype=complex), np.zeros(0)
    psis, bounds = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        psi, bound = _series_rows(table, measure.log_weight, np.concatenate((ts[:lead], probes)))
        at_probes = psi[lead:], bound[lead:]
        for start in range(0, n, step):
            if start:
                psi, bound = _series_rows(table, measure.log_weight, ts[start : min(start + step, n)])
            rows = min(step, n - start)
            ok = bound[:rows] <= _SERIES_TOL * (np.abs(psi[:rows]) - bound[:rows])
            kept = rows if ok.all() else int(np.argmin(ok))
            psis.append(psi[:kept])
            bounds.append(bound[:kept])
            if kept < rows:
                break
    return np.concatenate(psis + [at_probes[0]]), np.concatenate(bounds + [at_probes[1]])


def _char_exponents(measure: LevyMeasure1D, ts: np.ndarray, dt=None, series=None) -> np.ndarray:
    """psi at every frequency of the 1-D float array ts, nonzero and
    ascending in |t| (one frequency from char_exponent, or k dt for
    ascending k from invert_to_density): the leading run that the
    cumulant series answers, then the quadrature of the rest
    (_quadrature_exponents), with dt when ts are grid frequencies k dt.
    series is that run's values when the caller has them (the density's
    cutoff search reads them from its series rows); else
    _series_exponents computes them."""
    if series is None:
        series, _ = _series_exponents(measure, ts)
    if len(series) == len(ts):
        return series
    return np.concatenate((series, _quadrature_exponents(measure, ts[len(series) :], dt)))


def char_exponent(measure: LevyMeasure1D, t: float) -> complex:
    """Log of the characteristic function at t; Re <= 0, psi(0) = 0.

    A batch of one through the path invert_to_density uses: the cumulant
    series where its bound certifies 1e-13 relative, else quadrature in
    the variable of the measure's shape; 0j at t = +-0. t must be a finite
    real number; numpy numbers count, a bool, a string or a complex does
    not.
    """
    freq = _real(t)
    if freq is None or not math.isfinite(freq):
        raise DomainError(f"char_exponent requires a finite frequency, a real number, got {t!r}")
    if freq == 0.0:
        return 0j
    return _char_exponents(measure, np.array([freq]))[0]


def char_function(measure: LevyMeasure1D, t: float) -> complex:
    """exp(char_exponent); |value| <= 1."""
    return complex(np.exp(char_exponent(measure, t)))


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


def _trapezoid(v: np.ndarray, step: float) -> float:
    """The trapezoid sum of the grid values v at spacing step: their sum
    less half of the two end values. A sum never hands the work to
    the BLAS thread pool, as a dot product of more than 8192 elements
    does, which made an unpinned default density about 15x slower than a
    single-threaded one."""
    return step * (float(v.sum()) - 0.5 * (v[0] + v[-1]))


def _pruned_length(half: int, top: int) -> int:
    """The least divisor of half above top, by trial division up to the
    square root of half; uncached, as _twiddles calls it on a miss only."""
    small = [d for d in range(1, math.isqrt(half) + 1) if half % d == 0]
    return min(d for d in small + [half // d for d in small] if d > top)


_CACHED_TWIDDLES = 1 << 17  # grids of at most this many points keep their twiddles


@functools.lru_cache(maxsize=8)
def _twiddles(n: int, top: int) -> np.ndarray:
    """The (top + 1, n / (2L)) factors e^{2 pi i k r / n}, k <= top down
    and r across, read-only, L = _pruned_length(n // 2, top). Each holds
    fewer than n / 2 complex numbers and the cache at most 8 of them, so
    a grid of more than _CACHED_TWIDDLES points computes its table
    uncached (__wrapped__)."""
    length = _pruned_length(n // 2, top)
    kr = np.arange(top + 1)[:, None] * np.arange(n // (2 * length))
    angle = (2.0 * math.pi / n) * kr
    table = np.empty(kr.shape, dtype=complex)
    table.real, table.imag = np.cos(angle), np.sin(angle)
    table.flags.writeable = False  # every caller gets this array
    return table


# log headroom of the seed: each bound behind it promises |cf| >= e * threshold
_SEED_HEADROOM = 1.0


def _safe_index(half_width: float) -> float:
    """The grid index k_safe up to which |cf(k dt)| provably stays at
    least e * _DECAY_THRESHOLD: 1 - cos u <= u^2 / 2 gives
    |cf(t)| >= exp(-sigma^2 t^2 / 2), and sigma t = k pi / half_width on
    the grid, so k <= half_width sqrt(2 ln(1/threshold) - 2) / pi will do
    (0 for a threshold above e^-1, where the root is imaginary)."""
    room = 2.0 * (-math.log(_DECAY_THRESHOLD) - _SEED_HEADROOM)
    return half_width * math.sqrt(room) / math.pi if room > 0.0 else 0.0


def _series_shows_pass(psi: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether the cumulant series' values psi and stated bounds
    (_series_rows, so |t| below the remainder's pole) show
    |cf| >= e * _DECAY_THRESHOLD: Re psi less its bound is at least
    log(threshold) + 1. False where a term overflowed. The e of headroom
    is far above the quadrature's 1e-11 relative error, so a probe shown
    to pass also passes on its computed |cf|."""
    with np.errstate(invalid="ignore"):
        return psi.real - bound >= math.log(_DECAY_THRESHOLD) + _SEED_HEADROOM


def _cutoff_search(measure: LevyMeasure1D, dt: float, n: int, half_width: float):
    """The cutoff of the n-point grid of step dt: (a, i_cut, achieved), a
    holding cf(k dt) at every k = 0..n/2 evaluated (0 elsewhere), i_cut
    the first doubling probe k = 4, 8, 16, ... <= n/2 whose |cf| is below
    the fixed threshold 1e-12 (_DECAY_THRESHOLD), and achieved its |cf|.

    A probe that a lower bound shows to keep |cf| >= e * threshold cannot
    be the cutoff. There are two bounds: every probe up to k_safe
    (_safe_index, from |cf(t)| >= exp(-sigma^2 t^2 / 2)), and above it
    each probe where the cumulant series' Re psi less its stated bound
    shows it, for |t| below the series remainder's pole
    (_series_shows_pass). The search is seeded at the first probe that
    neither bound shows to pass, or at the top probe when every probe
    below it passes (a window too wide for n_points, or a law that decays
    slowly). The probes are checked in order, each on its computed |cf|,
    and one not yet evaluated goes in one batch with every k <=
    max(probe, seed) not yet evaluated: k = 1..seed first (1..64 for
    rescaled (4,3) at the defaults, whose probe 32 the series shows to
    pass), then each probe above the seed with the grid frequencies
    between it and the probe below, which the grid needs if it is the
    cutoff. So the quadrature answers every frequency up to the seed that
    the series leaves in one pass, the cutoff is that of the plain
    search, and no batch takes a frequency twice, or one above both the
    seed and the cutoff. Over the 128 laws of the benchmark's
    density_grid workload, a density takes 0.67 quadrature passes (1.35
    with the Gaussian bound alone) and the same 48.8 quadrature rows.

    The series is evaluated once (_series_exponents): on the grid's
    leading run k = 1, 2, ... below the series table's reach, with the
    probe rows in its first tile. Each batch's series values are those of
    its k in that run, and the quadrature takes the rest. Rows past the
    cutoff may be among them; one call costs less than two.

    A top seed is evaluated alone first, as it alone decides whether any
    probe can be the cutoff: if it does not drop below the threshold,
    DecayDetectionError is raised with its |cf| and nothing else is
    evaluated. DecayDetectionError is also raised when no probe drops
    below the threshold, once every k up to the top probe has been
    evaluated. The Gaussian bound takes measure.total_second_moment as
    sigma^2; should a measure understate it, the cutoff is still the
    first probe below the threshold.
    """
    half = n // 2
    ladder = [4 << m for m in range((half // 4).bit_length())]
    top = ladder[-1]
    # the probes the Gaussian bound leaves, of which the series may show more
    k_safe = _safe_index(half_width)
    above = [i for i in ladder if i >= k_safe]
    probes = np.array([i * dt for i in above if i * dt < _SERIES_POLE])
    # k dt below the series table's reach, and a spare _series_exponents drops
    lead = int(min(top, _series_table(measure.shape).reach / dt + 1.0))
    psi, bound = _series_exponents(measure, np.arange(1, lead + 1) * dt, probes)
    run = len(psi) - len(probes)
    shown = _series_shows_pass(psi[run:], bound[run:]).tolist()
    seed = next((i for i, ok in zip(above, shown + [False]) if not ok), top)
    a = np.zeros(half + 1, dtype=complex)
    a[0] = 1.0
    known = np.zeros(half + 1, dtype=bool)
    known[0] = True

    def evaluate(ks, step):
        a[ks] = np.exp(_char_exponents(measure, ks * dt, step, psi[ks[ks <= run] - 1]))
        known[ks] = True

    checked = ladder
    if seed == top:
        # every probe below the top one passes, so the top probe alone
        # decides whether any probe reaches the threshold; if it does not,
        # its |cf| is reported
        evaluate(np.array([top]), None)
        if abs(a[top]) >= _DECAY_THRESHOLD:
            checked = [top]
    for i_cut in checked:
        if not known[i_cut]:
            evaluate(np.flatnonzero(~known[: max(i_cut, seed) + 1]), dt)
        achieved = float(abs(a[i_cut]))
        if achieved < _DECAY_THRESHOLD:
            return a, i_cut, achieved
    # the top grid frequency is (n/2) pi / (half_width sigma): a narrower
    # window or more points reach further
    raise DecayDetectionError(
        f"|cf| only reached {achieved:.3e} at the edge of the frequency "
        f"window (t = {half * dt:.6g}); enlarge n_points or narrow half_width",
        achieved,
    )


def _transform(a: np.ndarray, top: int, dt: float, n: int) -> np.ndarray:
    """The n grid values from the half spectrum a_0..a_top (cf(k dt), the
    rest taken as 0), by the module docstring's split: (-1)^k and
    dt / 2 pi folded into a in place, zeros up to a_L, L the least
    divisor of n/2 above top, and n/(2L) transforms of length 2L."""
    coef = a[: top + 1]
    coef[1::2] *= -1.0
    coef *= dt / (2.0 * math.pi)
    twiddles = (_twiddles if n <= _CACHED_TWIDDLES else _twiddles.__wrapped__)(n, top)
    length = n // 2 // twiddles.shape[1]
    block = np.zeros((length + 1, twiddles.shape[1]), dtype=complex)
    np.multiply(twiddles, coef.conj()[:, None], out=block[: top + 1])
    return np.fft.irfft(block, 2 * length, axis=0, norm="forward").ravel()


def _grid_moments(values: np.ndarray, dx: float) -> dict:
    """Clip the negative ripple of the grid values at spacing dx and
    renormalise them, in place; their mass, clipped_mass, mean, variance
    and third_central, as meta records them.

    mass is the trapezoid sum (_trapezoid) of the raw values,
    clipped_mass that of the ripple, and the clipped values are divided
    by their own. The moments are raw moments about the law's known mean
    0, the trapezoid sums of the values times r, r^2 and r^3 on the
    integer ramp r = m - n/2 (x_m = r dx), made central by the grid mean
    (of the order of the rounding) and then scaled by dx, dx^2 and dx^3.
    So no pass forms the xs or recentres them. The products go into the
    ripple's array, never through pow (libm pow on negative bases costs
    about 70 ns an element) or a fresh n-length temporary, whose page
    faults cost more than its pass.
    """
    raw_mass = _trapezoid(values, dx)
    ripple = np.minimum(values, 0.0)
    clipped_mass = -_trapezoid(ripple, dx)
    values -= ripple  # clipped at 0
    values /= _trapezoid(values, dx)
    ramp = np.arange(-(len(values) // 2), len(values) // 2, dtype=float)
    np.multiply(values, ramp, out=ripple)
    m1 = _trapezoid(ripple, dx)
    ripple *= ramp
    m2 = _trapezoid(ripple, dx)
    ripple *= ramp
    m3 = _trapezoid(ripple, dx)
    return {
        "mass": raw_mass,
        "clipped_mass": clipped_mass,
        "mean": m1 * dx,
        "variance": (m2 - m1 * m1) * dx * dx,
        "third_central": (m3 - m1 * (3.0 * m2 - 2.0 * m1 * m1)) * dx * dx * dx,
    }


def invert_to_density(
    measure: LevyMeasure1D,
    *,
    half_width: float = 12.0,
    n_points: int = 16384,
) -> DensityGrid:
    """Recover the density of the law on mean +- half_width standard
    deviations from its characteristic function.

    The frequency step is pinned by the requested window (dt = pi /
    (half_width sigma)). Three stages follow. _cutoff_search evaluates
    the cf out to the first doubling probe k dt (k = 4, 8, 16, ... <=
    n/2) where |cf| drops below the fixed threshold 1e-12, seeded by two
    lower bounds on |cf|, with one cumulant-series evaluation for the
    whole density; the cf is taken as zero beyond. It raises
    DecayDetectionError when no probe drops below the threshold: the top
    grid frequency (n/2) pi / (half_width sigma) is too low, so n_points
    must grow or half_width shrink. _transform gives the density on x_m =
    (m - n/2) dx, dx = 2 pi / (n dt), as the half-spectrum sum

        f(x_m) = sum_{|k| < L} a_k e^{-2 pi i k m / n},
        a_k = (dt / 2 pi) (-1)^k cf(k dt),  a_{-k} = conj(a_k),

    with a_k = 0 above the cutoff and L the least divisor of n/2 above
    the last k placed (the cutoff, or n/2 - 1 for a cutoff at n/2): n/(2L)
    transforms of length 2L, one when L = n/2 (the module docstring).
    _grid_moments clips the negative ripple, renormalises the grid and
    records both amounts and the grid's moments in meta.

    half_width must be a positive finite real number and n_points an
    integer multiple of 4, at least 256; numpy numbers count, and meta
    holds them as a Python float and int. A law whose sigma times
    half_width underflows, so that dt is not a finite double, raises
    DomainError.
    """
    width, n = _real(half_width), _integer(n_points)
    if width is None or not (0.0 < width < math.inf):
        raise DomainError(f"half_width must be positive and finite, got {half_width!r}")
    if n is None or n < 256 or n % 4 != 0:
        raise DomainError(
            f"n_points must be an integer multiple of 4, >= 256, got {n_points!r}"
        )
    window = width * math.sqrt(measure.total_second_moment)
    dt = math.pi / window if window > 0.0 else math.inf
    if dt == math.inf:
        log_var = measure.shape.log_moment(2, measure.log_weight)
        raise DomainError(
            f"half_width * sigma underflows to {window!r} (the law's variance is "
            f"exp({log_var:.6g})), so the frequency step pi / (half_width * sigma) "
            "is not a finite double"
        )
    a, i_cut, achieved = _cutoff_search(measure, dt, n, width)
    # nothing above the cutoff is placed, and neither is a probe at n/2,
    # since the grid's top frequency is (n/2 - 1) dt
    values = _transform(a, min(i_cut, n // 2 - 1), dt, n)
    dx = 2.0 * math.pi / (n * dt)
    meta = _grid_moments(values, dx)
    meta.update(cf_cutoff=i_cut * dt, cf_at_cutoff=achieved, half_width=width, n_points=n)
    return DensityGrid(x0=-(n // 2) * dx, step=dx, values=values, meta=meta)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    flat = np.asarray(x, dtype=float).ravel()
    out = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in flat])
    return out.reshape(np.shape(x))


def _as_cdf(obj):
    """Normalize the ks_distance operand kinds to (evaluator, xlo, xhi),
    xlo < xhi finite: a CdfTable needs 2 values at least, on a finite
    increasing grid."""
    if isinstance(obj, DensityGrid):
        obj = obj.cdf()
    if isinstance(obj, CdfTable):
        lo, hi = float(obj.x0), float(obj.x0 + obj.step * (len(obj.values) - 1))
        if not -math.inf < lo < hi < math.inf:
            raise DomainError(
                f"a CdfTable needs 2 values at least, on a finite increasing grid; got "
                f"{len(obj.values)} from x = {lo!r} to {hi!r}"
            )
        return obj.evaluate, lo, hi
    if obj == STANDARD_NORMAL:
        return _normal_cdf, -40.0, 40.0
    raise DomainError(f"cannot interpret {obj!r} as a distribution")


def ks_distance(a, b) -> float:
    """Kolmogorov distance sup |F_a - F_b|.

    Operands may be DensityGrid, CdfTable, or the STANDARD_NORMAL
    sentinel; a CdfTable must span an interval (2 values at least, on a
    finite increasing grid), else DomainError. Evaluation points are the
    union of both grids plus midpoints; outside its support a CDF counts
    as 0 or 1.
    """
    fa, alo, ahi = _as_cdf(a)
    fb, blo, bhi = _as_cdf(b)
    grid = np.unique(np.concatenate((np.linspace(alo, ahi, 4097), np.linspace(blo, bhi, 4097))))
    mids = 0.5 * (grid[1:] + grid[:-1])
    grid = np.sort(np.concatenate([grid, mids]))
    return float(np.max(np.abs(fa(grid) - fb(grid))))


def ks_distance_sample(sample: np.ndarray, dist) -> float:
    """Kolmogorov distance between an empirical sample and a distribution
    operand accepted by ks_distance. The sample is read flat, whatever its
    shape; it must be nonempty and hold no NaN."""
    f, _, _ = _as_cdf(dist)
    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(xs)
    if n == 0 or np.isnan(xs[-1]):
        raise DomainError(f"a sample needs values and no NaN, got {n} values, {np.isnan(xs).sum()} NaN")
    model = f(xs)
    hi = np.max(np.arange(1, n + 1) / n - model)
    lo = np.max(model - np.arange(0, n) / n)
    return float(max(hi, lo))
