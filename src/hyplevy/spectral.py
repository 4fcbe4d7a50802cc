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
cutoff search uses.

The quadrature, for the rest: double-exponential quadrature in the
variable of the measure's shape (see hyplevy.measures): u = x^(2/(k-1))
on (0, 1) for a dimension pair, v = -log x on (0, inf) for the
codimension limit, which makes the integrand analytic away from the
endpoints; the measure's weight multiplies the result. Every psi
quadrature runs to the relative tolerance 1e-11 (_REL_TOL), which is
fixed, not a parameter. The frequencies of one call are one batch, a
single quadrature pass in row tiles whose values do not depend on the
batch (_quadrature_exponents); the scalar char_exponent is a batch of
one. The batch hands the rule each row's weighted sum over a level's
nodes (_PhaseLevel). Each phase term e^{itx} - 1 - itx is taken in one
form, its quartic Taylor form in t where |t x| < 1e-4 and the large form
elsewhere. Where the Taylor form holds, and where x rounds to 1.0 (so
the phase is t itself), a row's sum is a node-only sum, formed once per
level, times a factor of the row: those columns, about two thirds of the
density grid's, cost no work per element. The large form has two
routes. Any batch can take two sines per term. The grid frequencies
k dt that invert_to_density passes come in runs of consecutive k, where
the phases at a node form an arithmetic progression; there a doubling
recurrence gives each row from a few rows of sines by one complex
multiply-add. Each route has a stated error per term and per row sum,
which the tests check against mpmath.

Densities come from sampling exp(psi) on a uniform frequency grid,
truncating where |cf| falls below the threshold 1e-12 (_DECAY_THRESHOLD,
fixed like _REL_TOL), and applying one real-output FFT. The cutoff comes
from a doubling search over the grid, seeded at the first probe that
neither of two lower bounds on |cf| shows to stay above the threshold:
the Gaussian exp(-sigma^2 t^2 / 2), and the cumulant series less its
stated bound. So the quadrature takes every grid frequency up to the
seed that the series leaves in one pass, and a density of the
benchmark's density_grid workload takes 0.67 quadrature passes (1.35
with the Gaussian bound alone), which took that workload from 816 to 902
densities per second (medians of 10 runs on one core of a 2-core shared
machine, Python 3.11.7, numpy 2.4.6); invert_to_density's docstring
states the search in full.

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
    """psi's integrand on one quadrature level's nodes, summed by row: for
    rows of frequencies t, the sums over the nodes of w E(y) top, y = t x
    and E(y) = e^{iy} - 1 - iy (sums). x, top and powers, the (4, nodes)
    array of x^m top for m = 2..5, come from the shape's phase_terms,
    which keeps the powers finite where top alone overflows; x lies in
    [0, 1]. The weights w come with the first rows, as the rule passes
    them.

    Each term is taken in one form: its quartic Taylor form in t where
    |y| < _SMALL_PHASE, the large form elsewhere. The nodes are put in
    ascending x (exp-sinh's x = e^-v descend), so a row's Taylor columns
    are its first b, b = searchsorted(x, _SMALL_PHASE / |t|), a function
    of t alone, and its large ones run from b to the end. Per level, once,
    _weigh forms the node-only sums. Per row, the Taylor columns and the
    columns where x rounds to 1.0 cost O(1):
    - Taylor: -t^2/2 P2 + t^4/24 P4 + i(-t^3/6 P3 + t^5/120 P5), P_m the
      prefix sum of w x^m top over the first b columns (a sequential
      np.add.accumulate in ascending x);
    - x == 1.0: there y = t, and the sum is (G(t) - it) S1, S1 the sum of
      w top over those columns and G(y) = e^{iy} - 1 (_unit_phase), in
      every row with |t| >= 1e-4 (below, b takes them into the prefix
      sums).
    Only the large columns below x = 1.0 cost work per element: a block
    over the span from the least b of the rows (of each run's rows, on
    the recurrence) to those columns, of (G(y) - iy) w top (terms), and
    each row is summed over its own columns b.. by one np.add.reduceat.
    So every step of a row reads its own frequency and the level's node
    arrays only, and a row's sum is the one it has alone, bit for bit,
    whichever rows share its call (with dt, its run start aside).

    The large form has two routes. Without dt, each element takes two
    sines (_unit_phase): -2 sin(y/2)^2 w top and (sin y - y) w top. With
    dt, the rows' frequencies are grid frequencies t = k dt for integers
    k = rint(t / dt), and each run of consecutive k takes the doubling
    recurrence (_progression) from its first row with w top as its top: a
    few rows of sines, one complex multiply-add for each other row, and
    the imaginary part less t (x w top) per element, so no cancellation
    moves into a sum. Against the exact value at the given t, x and w top,
    such an element errs by at most _PROGRESSION_ERR u (|E| + |y|) |w top|,
    u the unit roundoff; the |y| part is the cancellation in sin y - y,
    which the sine route has too. A row's sum then errs, to first order
    in u, by at most the sum of those element bounds over its large
    columns (the x == 1.0 ones included), plus (n + 10) u times the sum
    over all n nodes of w (|Re F| + |Im F|), F the exact term in its form.
    The second part covers the products with w, every sum of at most n
    terms (the prefix sums, S1 and the reduction) and the row factors'
    roundings; the tests check both parts against mpmath. The temporaries
    are the size of the span times the rows, which the rule's row tiles
    (hyplevy.quadrature._TILE) bound.
    """

    def __init__(self, x, top, powers):
        self.order = slice(None, None, -1 if x[0] > x[-1] else 1)
        self.x, self.top = x[self.order], top[self.order]
        self.powers = powers[:, self.order]
        self.end = int(np.searchsorted(self.x, 1.0))  # x rounds to 1.0 from here on
        self.wtop = None

    def _weigh(self, w) -> None:
        """The node-only sums under the weights w, once: the prefix sums
        of w x^m top as a (nodes + 1, 4) array with a leading 0 (m = 2..5
        across), w top and x w top, and the sum of w top over the
        x == 1.0 columns, all in ascending x."""
        w = w[self.order]
        self.prefix = np.zeros((len(w) + 1, 4))
        np.add.accumulate(w[:, None] * self.powers.T, axis=0, out=self.prefix[1:])
        # inf or nan only in columns small for every finite frequency below
        # about 1e300, where top overflows (x tiny or 0)
        with np.errstate(over="ignore", invalid="ignore"):
            self.wtop = w * self.top
            self.xwtop = self.x * self.wtop
        self.one = np.add.reduce(self.wtop[self.end :])

    def sums(self, t, w, dt=None) -> np.ndarray:
        """The row sums at the 1-D frequencies t (nonzero), with dt for
        grid frequencies t = k dt."""
        if self.wtop is None:
            self._weigh(w)
        end = self.end
        b = np.searchsorted(self.x, _SMALL_PHASE / np.abs(t))
        # Taylor: the prefix sums times (-t^2/2, -t^3/6, t^4/24, t^5/120),
        # the real parts summed beside the imaginary ones
        factors = np.empty((len(t), 4))
        np.multiply(t, t, out=factors[:, 0])
        for j in range(1, 4):
            np.multiply(factors[:, j - 1], t, out=factors[:, j])
        factors *= _TAYLOR_COEF
        factors *= self.prefix[b]
        parts = factors[:, :2] + factors[:, 2:]
        if end < len(self.x):
            # the x == 1.0 columns, large in every row with b <= end
            one = (b <= end) * self.one
            h, s = _unit_phase(t)
            s -= t
            parts[:, 0] += h * one
            parts[:, 1] += s * one
        out = parts.view(complex)[:, 0]
        lo = int(b.min())
        if lo < end:
            out += self._large(t, b, lo, dt)
        return out

    def _large(self, t, b, lo, dt) -> np.ndarray:
        """Each row's sum of its large-form terms over its columns b..end,
        from one (rows, end - lo) block of them over the span lo..end."""
        n, span = len(t), self.end - lo
        flat = np.empty(n * span + 1, dtype=complex)  # one spare: every index below is in range
        self.terms(t, b, lo, dt, flat[:-1].reshape(n, span))
        # row i's columns are flat[i span + b_i - lo : (i + 1) span]; the
        # segments between them are summed too and dropped
        own = np.minimum(b, self.end) - lo
        row = np.arange(0, n * span, span)
        bounds = np.empty((n, 2), dtype=np.intp)
        np.add(row, own, out=bounds[:, 0])
        np.add(row, span, out=bounds[:, 1])
        sums = np.add.reduceat(flat, bounds.ravel())[0::2]
        sums[own == span] = 0.0  # no large column: reduceat would give flat[start]
        return sums

    def terms(self, t, b, lo, dt, out) -> None:
        """The large form (G(y) - iy) w top of the rows t, whose Taylor
        columns end at b, over the columns lo..end into the (rows,
        end - lo) complex array out; on the recurrence, a run's columns
        below its least b are set to 0 instead."""
        x, wtop = self.x[lo : self.end], self.wtop[lo : self.end]
        if dt is None:
            y = t[:, None] * x
            h, s = _unit_phase(y)
            np.multiply(h, wtop, out=out.real)
            s -= y
            np.multiply(s, wtop, out=out.imag)
            return
        k = np.rint(t / dt)
        # each run of consecutive k, from its first row, over its own span
        cuts = np.flatnonzero(k[1:] - k[:-1] != 1.0) + 1
        for a, c in zip([0, *cuts], [*cuts, len(t)]):
            first = min(int(b[a:c].min()) - lo, len(x))
            out[a:c, :first] = 0.0
            _progression(t[a:c], x[first:], wtop[first:], dt, out[a:c, first:])
        out.imag -= t[:, None] * self.xwtop[lo : self.end]


def _quadrature_exponents(measure: LevyMeasure1D, ts: np.ndarray, dt=None) -> np.ndarray:
    """psi at every frequency of the nonempty 1-D array ts by quadrature.

    The frequencies are one batch of the family's quadrature, tanh-sinh
    on (0, 1) or exp-sinh on (0, inf) in its shape's variable, so one
    pass runs over all of them: the shape's node factors and their
    weighted node sums are computed once per level, and each row's sum
    (_PhaseLevel) only for the rows that have not converged, in the
    rule's row tiles. Each row keeps the level at which it converges.
    Without dt its value is the one a call with that frequency alone
    returns. With dt, ts must be grid frequencies k dt for integers k,
    and the runs of consecutive k among a tile's rows take the
    recurrence, so a row's value also depends on where its run starts,
    within the recurrence's stated error. Zero frequencies are the
    caller's to drop (_char_exponents does).
    """
    shape = measure.shape
    t = np.asarray(ts, dtype=float)

    def integrand(*nodes):
        level = _PhaseLevel(*shape.phase_terms(*nodes))
        return RowBatch(len(t), lambda rows, w: level.sums(t[rows], w, dt))

    rule = exp_sinh if shape.half_line else tanh_sinh
    # a phase term that overflows (|t| near 1e300) makes its row nan, which
    # never converges: QuadratureError reports it, and no warning repeats it
    with np.errstate(over="ignore", invalid="ignore"):
        return measure.coef * rule(integrand, rel_tol=_REL_TOL, abs_tol=1e-300)


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


def _series_exponents(measure: LevyMeasure1D, ts: np.ndarray):
    """psi by the cumulant series on the leading run of the frequencies ts
    (nonzero, ascending in |t|) whose error bound (_series_rows) is at
    most _SERIES_TOL |psi|: (the values, their bounds), both as long as
    that run.

    A frequency is kept when bound <= _SERIES_TOL (|psi| - bound), so the
    bound is at most _SERIES_TOL times the true |psi|; the run ends at the
    first that is not, and the frequencies from the table's reach on are
    not tried. Rows go in tiles of at most _TILE elements (rows x orders),
    the quadrature's budget.
    """
    table = _series_table(measure.shape)
    n = int(np.searchsorted(np.abs(ts), table.reach, side="left"))
    step = _TILE // len(table.orders)
    psis, bounds = [np.zeros(0, dtype=complex)], [np.zeros(0)]
    for start in range(0, n, step):
        psi, bound = _series_rows(table, measure.log_weight, ts[start : min(start + step, n)])
        ok = bound <= _SERIES_TOL * (np.abs(psi) - bound)
        kept = len(psi) if ok.all() else int(np.argmin(ok))
        psis.append(psi[:kept])
        bounds.append(bound[:kept])
        if kept < len(psi):
            break
    return np.concatenate(psis), np.concatenate(bounds)


def _char_exponents(measure: LevyMeasure1D, ts: np.ndarray, dt=None) -> np.ndarray:
    """psi at every frequency of the 1-D array ts, each by one route.

    The nonzero frequencies, taken in order of |t|, go to the cumulant
    series (_series_exponents) as long as its stated bound is at most
    _SERIES_TOL |psi|; the rest, in their given order, go to the
    quadrature (_quadrature_exponents), with dt when ts are the grid
    frequencies k dt. The frequencies the series answers are therefore
    those of |t| below the first it cannot.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    todo = ts != 0.0
    nonzero = np.flatnonzero(todo)
    by_size = nonzero[np.argsort(np.abs(ts[nonzero]), kind="stable")]
    psi, _ = _series_exponents(measure, ts[by_size])
    series = by_size[: len(psi)]
    out[series] = psi
    todo[series] = False
    rest = np.flatnonzero(todo)
    if rest.size:
        out[rest] = _quadrature_exponents(measure, ts[rest], dt)
    return out


def char_exponent(measure: LevyMeasure1D, t: float) -> complex:
    """Log of the characteristic function at t; Re <= 0, psi(0) = 0.

    A batch of one through the path invert_to_density uses: the cumulant
    series where its bound certifies 1e-13 relative, else quadrature in
    the variable of the measure's shape. t must be finite.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"char_exponent requires a finite frequency, got {t!r}")
    return _char_exponents(measure, np.array([t]))[0]


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


def _series_passes(measure: LevyMeasure1D, ts: np.ndarray) -> np.ndarray:
    """Whether the cumulant series shows |cf(t)| >= e * _DECAY_THRESHOLD
    at each frequency of ts (nonzero): Re psi less its stated bound
    (_series_rows) is at least log(threshold) + 1. Only below the
    remainder's pole, where the bound holds; False elsewhere, and where
    a term overflows. The e of headroom is far above the quadrature's
    1e-11 relative error, so a probe shown to pass also passes on its
    computed |cf|."""
    out = np.zeros(len(ts), dtype=bool)
    near = np.abs(ts) < _SERIES_POLE
    if near.any():
        with np.errstate(over="ignore", invalid="ignore"):
            psi, bound = _series_rows(_series_table(measure.shape), measure.log_weight, ts[near])
            out[near] = psi.real - bound >= math.log(_DECAY_THRESHOLD) + _SEED_HEADROOM
    return out


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
    fixed threshold 1e-12, and treated as zero beyond. A probe that a
    lower bound shows to keep |cf| >= e * threshold cannot be the cutoff.
    There are two bounds: every probe up to k_safe (_safe_index, from
    |cf(t)| >= exp(-sigma^2 t^2 / 2)), and above it each probe where the
    cumulant series' Re psi less its stated bound shows it, for |t| below
    the series remainder's pole (_series_passes). The search is seeded at
    the first probe that neither bound shows to pass, or at the top probe
    n/2 when every probe below it passes (a window too wide for n_points,
    or a law that decays slowly). The probes are checked in order, each
    on its computed |cf|, and one not yet evaluated goes in one batch
    with every k <= max(probe, seed) not yet evaluated: k = 1..seed first
    (1..64 for rescaled (4,3) at the defaults, whose probe 32 the series
    shows to pass), then each probe above the seed with the grid
    frequencies between it and the probe below, which the grid needs if
    it is the cutoff. So the quadrature answers every frequency up to the
    seed that the series leaves in one pass, the cutoff is that of the
    plain search, and no frequency is evaluated twice or above it. Over
    the 128 laws of the benchmark's density_grid workload, a density
    takes 0.67 quadrature passes (1.35 with the Gaussian bound alone) and
    the same 48.8 quadrature rows, and the workload runs 902 densities
    per second against 816 (the module docstring's machine).

    A top seed is evaluated alone first, as it alone decides whether any
    probe can be the cutoff: if it does not drop below the threshold,
    DecayDetectionError is raised with its |cf| and nothing else is
    evaluated. DecayDetectionError is also raised when no probe drops
    below the threshold, once every k up to the top probe (at most n/2 of
    them) has been evaluated. The Gaussian bound takes
    measure.total_second_moment as sigma^2; should a measure understate
    it, the cutoff is still the first probe below the threshold. The
    density on x_m = (m - n/2) dx, dx = 2 pi / (n dt), is the
    half-spectrum sum

        f(x_m) = (dt / 2 pi) hfft[a]_m,  a_k = (-1)^k cf(k dt), k = 0..n/2,

    with a_k = 0 above the cutoff and at k = n/2 (numpy.fft.hfft, length
    n). half_width must be a positive finite real number and n_points an
    integer multiple of 4, at least 256; numpy numbers count, and meta
    holds them as a Python float and int. A law whose sigma times
    half_width underflows, so that dt is not a finite double, raises
    DomainError. Negative ripple is clipped, the grid renormalized, and
    both amounts recorded in meta.
    """
    width, n = _real(half_width), _integer(n_points)
    if width is None or not (0.0 < width < math.inf):
        raise DomainError(f"half_width must be positive and finite, got {half_width!r}")
    if n is None or n < 256 or n % 4 != 0:
        raise DomainError(
            f"n_points must be an integer multiple of 4, >= 256, got {n_points!r}"
        )
    half_width = width
    sigma_law = math.sqrt(measure.total_second_moment)
    window = half_width * sigma_law
    dt = math.pi / window if window > 0.0 else math.inf
    if dt == math.inf:
        log_var = measure.shape.log_moment(2, measure.log_weight)
        raise DomainError(
            f"half_width * sigma underflows to {window!r} (the law's variance is "
            f"exp({log_var:.6g})), so the frequency step pi / (half_width * sigma) "
            "is not a finite double"
        )
    t_grid_max = 0.5 * n * dt

    # the cutoff search of the docstring, over the probes 4, 8, ... <= n/2
    half = n // 2
    ladder = [4 << m for m in range((half // 4).bit_length())]
    top = ladder[-1]
    # the probes the Gaussian bound leaves, of which the series may show more
    above = [i for i in ladder if i >= _safe_index(half_width)]
    passes = _series_passes(measure, np.array(above, dtype=float) * dt)
    seed = next((i for i, ok in zip(above, passes) if not ok), top)
    # half spectrum a_k = (-1)^k cf(k dt), k = 0..n/2
    a = np.zeros(half + 1, dtype=complex)
    a[0] = 1.0
    known = np.zeros(half + 1, dtype=bool)
    known[0] = True
    checked = ladder
    if seed == top:
        # every probe below the top one passes, so the top probe alone
        # decides whether any probe reaches the threshold; if it does not,
        # its |cf| is reported
        a[top] = np.exp(_char_exponents(measure, np.array([top * dt])))[0]
        known[top] = True
        if abs(a[top]) >= _DECAY_THRESHOLD:
            checked = [top]
    for i_cut in checked:
        if not known[i_cut]:
            ks = np.flatnonzero(~known[: max(i_cut, seed) + 1])
            a[ks] = np.exp(_char_exponents(measure, ks * dt, dt))
            known[ks] = True
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

    # nothing above the cutoff is placed, and neither is a probe at n/2,
    # since the grid's top frequency is (n/2 - 1) dt
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
