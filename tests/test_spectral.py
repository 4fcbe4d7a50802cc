"""Characteristic exponents, Fourier inversion, Kolmogorov distances."""

import hashlib
import json
import math
import sys
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from conftest import admissible_pairs, cached_density, peak_rss_rise_mb, psi_oracle
from hyplevy.errors import DecayDetectionError, DomainError, QuadratureError
from hyplevy.measures import DimensionPair, LevyMeasure1D, LimitShape, PairShape, make_measure
from hyplevy.pairs import cumulant, variance
from hyplevy.quadrature import RowBatch
from hyplevy.specfun import log_gamma
from hyplevy import quadrature, spectral
from hyplevy.spectral import (
    STANDARD_NORMAL,
    CdfTable,
    DensityGrid,
    char_exponent,
    char_function,
    invert_to_density,
    ks_distance,
    ks_distance_sample,
    _SMALL_PHASE,
    _PhaseLevel,
    _char_exponents,
    _quadrature_exponents,
    _safe_index,
    _series_exponents,
)

RESC43 = make_measure("rescaled", DimensionPair(4, 3))
HYP75 = make_measure("hyperbolic", DimensionPair(7, 5))
RESC75 = make_measure("rescaled", DimensionPair(7, 5))
LIMIT1 = make_measure("limit", 1)
LIMIT2 = make_measure("limit", 2)
LIMIT3 = make_measure("limit", 3)
RESC40 = make_measure("rescaled", DimensionPair(40, 21))


@pytest.fixture
def quad_log(monkeypatch):
    """One record per spectral quadrature pass: its rows (the batch's
    size), and per level the points (nodes) evaluated and the rows whose
    phase terms were computed there, summed over the row tiles."""
    log = []
    for name in ("tanh_sinh", "exp_sinh"):
        def wrapper(f, *args, rule=getattr(spectral, name), **kwargs):
            rec = {"rows": None, "points": [], "live": []}
            log.append(rec)

            def counted(x, *rest):
                batch = f(x, *rest)
                rec["rows"] = batch.n
                rec["points"].append(np.size(x))
                rec["live"].append(0)

                def tile(rows, w):
                    rec["live"][-1] += len(rows)
                    return batch.sums(rows, w)

                return RowBatch(batch.n, tile)

            return rule(counted, *args, **kwargs)

        monkeypatch.setattr(spectral, name, wrapper)
    return log


@pytest.fixture
def quadrature_route(monkeypatch):
    """Every frequency through the quadrature route: the cumulant series
    answers none, and still gives the cutoff search its probe rows."""
    real = spectral._series_exponents

    def probes_only(measure, ts, probes=()):
        psi, bound = real(measure, ts, probes)
        run = len(psi) - len(probes)
        return psi[run:], bound[run:]

    monkeypatch.setattr(spectral, "_series_exponents", probes_only)


@pytest.fixture
def exponent_calls(monkeypatch):
    """The frequency arrays passed to _char_exponents, in call order."""
    calls = []
    real = spectral._char_exponents

    def record(measure, ts, *rest):
        calls.append(np.array(ts, dtype=float))
        return real(measure, ts, *rest)

    monkeypatch.setattr(spectral, "_char_exponents", record)
    return calls


@pytest.fixture
def exponent_values(monkeypatch):
    """{round(t / dt): exp(psi(t))} over every frequency passed to
    _char_exponents, for the step dt given when read."""
    seen = []
    real = spectral._char_exponents

    def record(measure, ts, *rest):
        psi = real(measure, ts, *rest)
        seen.extend(zip(np.array(ts, dtype=float), np.exp(psi)))
        return psi

    monkeypatch.setattr(spectral, "_char_exponents", record)

    def by_index(dt):
        out = {}
        for t, cf in seen:
            k = round(t / dt)
            assert t == k * dt and k not in out
            out[k] = complex(cf)
        return out

    return by_index


def direct_sum_density(cf, dt, n, ms):
    """(dt / 2 pi) (1 + 2 sum_k Re[cf_k e^{-i k dt x_m}]) at x_m = (m - n/2)
    dx for the grid indices ms, by math.fsum over the frequencies
    0 < k < n/2 in cf. The phase k dt x_m = 2 pi k (m - n/2) / n is reduced
    mod n in integers."""
    ks = [k for k in cf if 0 < k < n // 2]
    out = np.empty(len(ms))
    for j, m in enumerate(ms):
        terms = [1.0]
        for k in ks:
            angle = 2.0 * math.pi * ((k * (m - n // 2)) % n) / n
            terms.append(2.0 * (cf[k].real * math.cos(angle) + cf[k].imag * math.sin(angle)))
        out[j] = dt / (2.0 * math.pi) * math.fsum(terms)
    return out


def assert_matches_direct_sum(grid, cf, dt, every=1):
    """The grid before clipping and renormalization against the direct
    sum, at every every-th grid point: where the grid is positive its raw
    value is value * (mass + clipped_mass); where it was clipped the sum
    must be <= the bound. The bound is the FFT's rounding, 16 eps log2(n)
    times the l1 norm of the half-spectrum's Hermitian extension scaled by
    dt / 2 pi, plus 4 eps of the value for the renormalization round trip.
    Returns the bound."""
    n = len(grid.values)
    ms = np.arange(0, n, every)
    want = direct_sum_density(cf, dt, n, ms)
    l1 = 1.0 + 2.0 * sum(abs(c) for k, c in cf.items() if 0 < k < n // 2)
    eps = np.finfo(float).eps
    bound = dt / (2.0 * math.pi) * 16.0 * eps * math.log2(n) * l1
    values = grid.values[ms]
    raw = values * (grid.meta["mass"] + grid.meta["clipped_mass"])
    pos = values > 0.0
    assert np.all(np.abs(raw - want)[pos] <= bound + 4.0 * eps * raw[pos])
    assert np.all(want[~pos] <= bound)
    return bound


def grid_step(measure, half_width=12.0):
    """The frequency step invert_to_density uses."""
    return math.pi / (half_width * math.sqrt(measure.total_second_moment))


def probes(n):
    """The doubling probes 4, 8, 16, ... <= n/2 of an n-point grid."""
    return [4 * 2**m for m in range(20) if 4 * 2**m <= n // 2]


def ladder_reference(measure, half_width, n, threshold):
    """The plain doubling search, one char_function call per probe 4, 8,
    16, ... <= n/2 in order: (the first probe index whose |cf| is below
    threshold, or None if none is; |cf| at the last probe evaluated)."""
    dt = grid_step(measure, half_width)
    for i in probes(n):
        achieved = abs(char_function(measure, i * dt))
        if achieved < threshold:
            return i, achieved
    return None, achieved


def series_shows(measure, ts):
    """Whether the cumulant series shows |cf| >= e * threshold at each
    frequency of ts (at the current spectral._DECAY_THRESHOLD): its rows
    (_series_rows) by the cutoff search's rule (_series_shows_pass),
    below the remainder's pole, where the bound holds; False elsewhere."""
    out = np.zeros(len(ts), dtype=bool)
    near = np.abs(ts) < spectral._SERIES_POLE
    if near.any():
        table = spectral._series_table(measure.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            psi, bound = spectral._series_rows(table, measure.log_weight, ts[near])
        out[near] = spectral._series_shows_pass(psi, bound)
    return out


def seeded_block(measure, half_width, n):
    """The indices invert_to_density evaluates before any probe above the
    seed: 1..seed, the seed being the first probe >= k_safe (at the
    current spectral._DECAY_THRESHOLD) that the cumulant series does not
    show to pass (series_shows), or only the top probe when there is
    none. (A top-probe seed is evaluated alone first, and 1..seed-1
    follow only when it drops below.)"""
    ladder = probes(n)
    above = [i for i in ladder if i >= _safe_index(half_width)]
    shown = series_shows(measure, np.array(above) * grid_step(measure, half_width))
    seed = next((i for i, ok in zip(above, shown) if not ok), None)
    return list(range(1, seed + 1)) if seed else ladder[-1:]


def resc43_psi(t: float) -> complex:
    """psi of rescaled (4,3) in closed form, -(t^2 / 2) 1F1(1/2; 3; it):
    its cumulant series, sum over m >= 2 of (it)^m / m! B(m - 3/2, 1/2) / pi
    (the density x^(-5/2) (1 - x)^(-1/2) / pi), summed by the
    hypergeometric function."""
    with mpmath.workdps(30):
        return complex(-0.5 * t**2 * mpmath.hyp1f1(0.5, 3, 1j * t))


def where_kernel(t, x, top, powers):
    """Both forms of the phase kernel over the whole block, one picked per
    element by where(): the reference the single-form kernel must equal."""
    p2, p3, p4, p5 = powers
    t2 = t * t
    y = t * x
    small = np.abs(y) < _SMALL_PHASE
    out = np.empty(np.shape(y), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = np.where(
            small, -0.5 * t2 * p2 + t2 * t2 / 24.0 * p4, -2.0 * np.sin(0.5 * y) ** 2 * top
        )
        out.imag = np.where(
            small, -t2 * t / 6.0 * p3 + t2 * t2 * t / 120.0 * p5, (np.sin(y) - y) * top
        )
    return out


class TestCharExponent:
    def test_zero_frequency(self):
        for measure in (RESC43, HYP75, LIMIT1, LIMIT2):
            assert char_exponent(measure, 0.0) == 0.0 + 0.0j

    def test_frozen_values(self):
        cases = (
            (RESC43, 1.0, -0.4847492331674651 - 0.08077742216071878j),
            (HYP75, 2.0, -5.8938508989686436 - 1.2835497989452634j),
            (LIMIT2, 1.0, -0.4863853762353227 - 0.08128272680846123j),
            (LIMIT1, 2.0, -1.6525439010904814 - 0.8193609294836745j),
        )
        for measure, t, want in cases:
            got = char_exponent(measure, t)
            assert abs(got - want) <= 1e-9 * abs(want), (measure.family, t)

    def test_conjugate_symmetry(self):
        for measure in (RESC43, HYP75, LIMIT2):
            for t in (0.7, 1.3, 5.0):
                a = char_exponent(measure, t)
                b = char_exponent(measure, -t)
                assert abs(b - a.conjugate()) <= 1e-13 * abs(a)

    def test_real_part_nonpositive(self):
        for measure in (RESC43, HYP75, LIMIT1, LIMIT2):
            for t in (0.01, 0.5, 2.0, 11.0):
                assert char_exponent(measure, t).real <= 0.0

    def test_shape_route_agrees_with_a_raw_density_oracle(self):
        for t in (0.8, 1.5):
            a = psi_oracle(7, 5, t)
            b = char_exponent(HYP75, t)
            assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("t", [1.5, 10.0, 100.0, 1e3])
    def test_the_raw_density_oracle_matches_the_closed_form(self, t):
        # hyperbolic (4,3) has the density x^(-5/2) (1 - x)^(-1/2), pi times
        # that of rescaled (4,3); measured within 2.3e-14 relative
        want = resc43_psi(t)
        assert abs(psi_oracle(4, 3, t) / math.pi - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("t", [-3e3, 1.4e3, math.inf])
    def test_the_raw_density_oracle_refuses_frequencies_past_its_range(self, t):
        # from t = 1.4e3 on its quadrature is off by 9.7e-9 relative or more
        with pytest.raises(ValueError, match=r"\|t\| <= 1000"):
            psi_oracle(4, 3, t)

    @pytest.mark.parametrize("b", [221, 300])
    def test_limit_family_past_the_power_overflow(self, b):
        # kappa_m = (m-1)^(-b/2) leaves psi(1) = -1/2 to far below 1e-12
        measure = make_measure("limit", b)
        assert abs(char_exponent(measure, 1.0) + 0.5) <= 1e-12
        assert abs(invert_to_density(measure).meta["variance"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("b", [344, 400])
    def test_limit_family_past_the_quadrature_range(self, b):
        # the quadrature's integrand is unrepresentable here (it raises
        # QuadratureError), and the cumulant series answers every grid
        # frequency up to the cutoff
        measure = make_measure("limit", b)
        assert abs(char_exponent(measure, 1.0) + 0.5) <= 1e-12
        assert abs(invert_to_density(measure).meta["variance"] - 1.0) <= 1e-12
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(QuadratureError):
            _quadrature_exponents(measure, np.array([1.0]))

    @pytest.mark.parametrize("measure", [LIMIT1, LIMIT2], ids=["limit1", "limit2"])
    @pytest.mark.parametrize("t", [1e299, -1e299, 1e301])
    def test_a_frequency_near_the_top_of_the_doubles_is_a_quadrature_error(self, measure, t):
        # the only |t| at which nodes past v = 700 (x < 1e-304) leave the
        # Taylor form's all-small span; psi is out of reach there, and the
        # overflowing phase terms say so quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureError):
                char_exponent(measure, t)

    @pytest.mark.parametrize("t", [0.5, 7.0, 100.0, 3e3, 1e4, -1e4])
    def test_rescaled_43_matches_its_closed_form(self, t):
        # both routes, out to the largest t that converges (measured within
        # 6.3e-16); the raw-density oracle is off by 2.2e-6 at t = 3e3
        got = char_exponent(RESC43, t)
        want = resc43_psi(t)
        assert abs(got - want) <= 1e-13 * abs(want)

    # the open FOUND line of large frequencies, a strict xfail: it asserts
    # the right answer, so a mend turns it XPASS
    @pytest.mark.xfail(
        raises=QuadratureError, strict=True,
        reason="CHANGES.md FOUND (line 25): char_exponent raises QuadratureError at large "
        "frequencies, rescaled (4,3) at t = 2e4 (tanh_sinh did not converge by level 12)",
    )
    def test_a_large_frequency_answers(self):
        got = char_exponent(RESC43, 2e4)
        want = resc43_psi(2e4)
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_small_frequency_curvature_is_the_variance(self):
        # (2 - cf(h) - cf(-h)) / h^2 recovers the second cumulant
        h = 1e-3
        for measure, k2 in ((RESC43, 1.0), (LIMIT1, 1.0), (LIMIT2, 1.0)):
            curv = (2.0 - char_function(measure, h) - char_function(measure, -h)) / h**2
            assert abs(curv.real - k2) <= 1e-4
            assert abs(curv.imag) <= 1e-4

    def test_low_order_cumulants_from_the_exponent(self):
        h = 0.02
        for measure, pair in ((RESC43, DimensionPair(4, 3)), (HYP75, DimensionPair(7, 5))):
            scale = variance(pair) if measure.family == "rescaled" else 1.0
            k2 = cumulant(pair, 2) / scale
            k3 = cumulant(pair, 3) / scale
            k4 = cumulant(pair, 4) / scale
            psi = char_exponent(measure, h)
            assert math.isclose(-2.0 * psi.real / h**2, k2, rel_tol=1e-3)
            assert math.isclose(-6.0 * psi.imag / h**3, k3, rel_tol=1e-3)
            assert math.isclose(
                24.0 * (psi.real + 0.5 * k2 * h**2) / h**4, k4, rel_tol=1e-3
            )


class TestBlockExponents:
    @pytest.mark.parametrize(
        "measure",
        [RESC43, RESC40, HYP75, LIMIT1, LIMIT2, LIMIT3],
        ids=["resc43", "resc40_21", "hyp75", "limit1", "limit2", "limit3"],
    )
    def test_blocks_agree_with_one_dimensional_calls(self, measure, quad_log, monkeypatch):
        ts = np.linspace(0.05, 40.0, 70)
        ts[40] = 300.0  # needs level 7, the others pass at level 6
        got = _quadrature_exponents(measure, ts)
        # one pass: levels 5 and 6 in one call over all 70 rows, level 7
        # over that row
        assert [rec["rows"] for rec in quad_log] == [70]
        assert quad_log[0]["points"] == [783, 782]
        assert quad_log[0]["live"] == [70, 1]
        quad_log.clear()
        alone = np.array([_quadrature_exponents(measure, np.array([t]))[0] for t in ts])
        assert [rec["rows"] for rec in quad_log] == [1] * len(ts)
        np.testing.assert_array_equal(got, alone)
        # every row, the ones frozen at level 6 beside the level-7 row
        # included, meets its own tolerance against a tighter evaluation
        monkeypatch.setattr(spectral, "_REL_TOL", 1e-13)
        tight = _quadrature_exponents(measure, ts)
        assert np.all(np.abs(got - tight) <= 1e-11 * np.abs(tight))

    def test_zero_frequencies_cost_nothing(self, exponent_calls, quad_log):
        # psi(+-0) = 0 and cf(0) = 1 with no psi call of either route
        for t in (0.0, -0.0):
            got = char_exponent(RESC43, t)
            assert got == 0j and type(got) is complex
            assert math.copysign(1.0, got.real) == math.copysign(1.0, got.imag) == 1.0
        assert char_function(RESC43, 0.0) == 1.0
        assert exponent_calls == [] and quad_log == []

    def test_level_five_to_six_evaluates_783_points(self, quad_log):
        _quadrature_exponents(RESC43, np.array([1.0]))
        _quadrature_exponents(LIMIT2, np.array([1.0]))
        assert [rec["points"] for rec in quad_log] == [[783], [783]]

    @pytest.mark.parametrize(
        "measure", [RESC43, LIMIT2, HYP75, LIMIT1], ids=["resc43", "limit2", "hyp75", "limit1"]
    )
    @pytest.mark.parametrize("grid", [False, True], ids=["sines", "progression"])
    def test_the_first_call_is_two_level_calls_bit_for_bit(self, measure, grid, monkeypatch):
        # _REL_TOL = 1 accepts level 6, the first call's own: each row is
        # the one of level 5 and level 6's new nodes in two calls, one
        # _PhaseLevel each, S6 = S5 / 2 + new, and the rule's scale
        monkeypatch.setattr(spectral, "_REL_TOL", 1.0)
        dt = grid_step(measure) if grid else None
        ts = np.arange(3.0, 40.0) * grid_step(measure)
        got = _quadrature_exponents(measure, ts, dt)

        def level(lv, new_only):
            # on (0, 1) or (0, inf) the rule's node arguments and scale
            # are the nodes themselves and 1
            if measure.shape.half_line:
                *nodes, w = quadrature._es_nodes(lv, new_only)
            else:
                *nodes, w = quadrature._ts_nodes(lv, new_only)
            return _PhaseLevel(*measure.shape.phase_terms(*nodes)).sums(ts, (w,), dt)[0]

        want = measure._times_coef(0.5 * level(5, False) + level(6, True))
        assert got.tobytes() == want.tobytes()


def log_kappa_mp(shape, m):
    """log kappa_m of the weight-free shape at the working precision."""
    if isinstance(shape, LimitShape):
        return -mpmath.mpf(shape.codim) / 2 * mpmath.log(m - 1)
    d, k = shape.pair.d, shape.pair.k
    p = mpmath.mpf((k - 1) * m - (d - 1)) / 2
    b = mpmath.mpf(d - k) / 2
    return b * mpmath.log(mpmath.pi) + mpmath.loggamma(p) - mpmath.loggamma(p + b)


def psi_series_mp(measure, t):
    """psi of the measure as its two fields define it (the float
    log_weight taken as exact) by the cumulant series at 30 digits, summed
    until a term falls below 10^-40 of the sum of |terms| so far."""
    with mpmath.workdps(30):
        t = mpmath.mpf(float(t))
        total, size, m = mpmath.mpc(0), mpmath.mpf(0), 2
        while True:
            log_term = (
                mpmath.mpf(measure.log_weight) + log_kappa_mp(measure.shape, m)
                + m * mpmath.log(abs(t)) - mpmath.loggamma(m + 1)
            )
            term = mpmath.exp(log_term)
            total += term * (1j * mpmath.sign(t)) ** m
            size += term
            if m > abs(t) + 2 and term < mpmath.mpf(10) ** -40 * size:
                return total
            m += 1


SERIES_LAWS = [RESC43, HYP75, LIMIT1, LIMIT2, LIMIT3]
SERIES_IDS = ["resc43", "hyp75", "limit1", "limit2", "limit3"]


class TestSeriesExponents:
    """The cumulant-series route and its stated error bound."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("measure", SERIES_LAWS, ids=SERIES_IDS)
    def test_error_is_within_the_stated_bound(self, measure, sign):
        ts = sign * np.geomspace(1e-3, 40.0, 60)
        psi, bound = _series_exponents(measure, ts)
        # a run of them passes, not all
        assert 30 <= len(psi) < len(ts)
        for t, got, b in zip(ts, psi, bound):
            want = psi_series_mp(measure, t)
            assert abs(mpmath.mpc(got) - want) <= b, t
            assert b <= 1e-13 * abs(want), t

    @pytest.mark.parametrize(
        "shapes",
        [
            [PairShape(DimensionPair(d, k)) for d, k in admissible_pairs(24)],
            [PairShape(DimensionPair(d, k)) for d, k in ((40, 21), (60, 31), (200, 199), (1000, 990))],
            [LimitShape(b) for b in (1, 2, 3, 4, 5, 6, 221, 344, 1000)],
        ],
        ids=["pairs_to_d24", "large_pairs", "limits"],
    )
    def test_coefficients_are_within_their_stated_error(self, shapes):
        # log kappa_m - log m! within 4 u of the two logs' term sizes
        for shape in shapes:
            table = spectral._series_table(shape)
            for m, coef in zip(table.orders, table.coef):
                m = int(m)
                with mpmath.workdps(30):
                    want = log_kappa_mp(shape, m) - mpmath.loggamma(m + 1)
                size = shape.log_moment_size(m) + log_gamma(m + 1.0) + 2.0
                assert abs(coef - want) <= 4.0 * spectral._U * size, (shape, m)

    @pytest.mark.parametrize("measure", SERIES_LAWS, ids=SERIES_IDS)
    def test_the_series_answers_an_initial_interval_of_frequencies(self, measure, monkeypatch):
        # +- t in ascending |t|: the series takes every |t| below the
        # first it cannot certify and the quadrature every one above
        quadrature = []
        real = spectral._quadrature_exponents

        def record(m, ts, *rest):
            quadrature.extend(np.abs(ts))
            return real(m, ts, *rest)

        monkeypatch.setattr(spectral, "_quadrature_exponents", record)
        grid = np.linspace(0.05, 12.0, 60)
        ts = np.column_stack([grid, -grid]).ravel()
        got = _char_exponents(measure, ts)
        through_series = np.setdiff1d(np.abs(ts), quadrature)
        assert through_series.size and quadrature
        assert np.max(through_series) < np.min(quadrature)
        # and each value is the one of its own route
        series = np.isin(np.abs(ts), through_series)
        alone, _ = _series_exponents(measure, ts[series])
        np.testing.assert_array_equal(got[series], alone)
        want = real(measure, ts)
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    @pytest.mark.parametrize("measure", SERIES_LAWS, ids=SERIES_IDS)
    def test_a_row_is_the_same_alone_as_in_a_block(self, measure):
        ts = np.linspace(0.01, 8.0, 96)
        block, _ = _series_exponents(measure, ts)
        assert len(block) > 16
        for t, want in zip(ts, block):
            alone, _ = _series_exponents(measure, np.array([t]))
            assert alone.tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize(
        "measure, mixed",
        [(RESC43, True), (LIMIT2, True), (make_measure("rescaled", DimensionPair(20, 15)), False)],
        ids=["resc43", "limit2", "resc20_15"],
    )
    def test_each_grid_frequency_is_evaluated_once_by_one_route(self, measure, mixed, monkeypatch):
        # the series rows come from one call for the whole density; each
        # batch takes the values of its k in their run, and the quadrature
        # the rest
        routes = {"series": [], "quadrature": []}
        series_calls = []
        series, batch = spectral._series_exponents, spectral._char_exponents
        quadrature = spectral._quadrature_exponents

        def record_series(m, ts, *rest):
            series_calls.append(ts)
            return series(m, ts, *rest)

        def record_batch(m, ts, dt, lead):
            routes["series"].extend(ts[: len(lead)])
            return batch(m, ts, dt, lead)

        def record_quadrature(m, ts, *rest):
            routes["quadrature"].extend(ts)
            return quadrature(m, ts, *rest)

        monkeypatch.setattr(spectral, "_series_exponents", record_series)
        monkeypatch.setattr(spectral, "_char_exponents", record_batch)
        monkeypatch.setattr(spectral, "_quadrature_exponents", record_quadrature)
        grid = invert_to_density(measure)
        assert len(series_calls) == 1
        dt = grid_step(measure)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        ks = {route: [round(t / dt) for t in ts] for route, ts in routes.items()}
        assert sorted(ks["series"] + ks["quadrature"]) == list(range(1, i_cut + 1))
        # the series takes the grid's first frequencies, 1..j
        assert sorted(ks["series"]) == list(range(1, len(ks["series"]) + 1))
        assert bool(ks["quadrature"]) == mixed


class TestInversionWork:
    """Deterministic work counts of invert_to_density, not timings."""

    def test_default_grid_never_reaches_blas(self, monkeypatch):
        # numpy hands a dot product of more than 8192 elements to the BLAS
        # thread pool, which made an unpinned default density about 15x
        # slower than a one-thread one; no grid-length operand may go there
        long_operands = []
        for name in ("dot", "vdot", "inner", "matmul"):
            def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
                sizes = [np.size(a) for a in args[:2]]
                if max(sizes) > 8192:
                    long_operands.append((_name, sizes))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        grid = invert_to_density(RESC43)
        assert grid.values.size == 16384
        assert long_operands == []

    def test_seed_index_at_the_defaults(self):
        # 12 sqrt(2 ln 1e12 - 2) / pi
        assert spectral._DECAY_THRESHOLD == 1e-12
        assert math.isclose(_safe_index(12.0), 27.88, abs_tol=5e-3)

    @pytest.mark.parametrize(
        "measure, half_width, seed, i_cut",
        [
            # 32 is the first probe >= k_safe = 27.9, and the series shows
            # it to pass: 1..64 in one call, whose probe 64 is the cutoff
            (RESC43, 12.0, 64, 64),
            # it shows 32 and 64: 1..128, and 128 is the cutoff
            (LIMIT2, 12.0, 128, 128),
            # it shows 32 and 64: 1..128, then probe 256 with 129..255
            (make_measure("rescaled", DimensionPair(20, 19)), 12.0, 128, 256),
        ],
        ids=["resc43", "limit2", "resc20_19"],
    )
    def test_each_grid_frequency_up_to_the_cutoff_is_evaluated_once(
        self, measure, half_width, seed, i_cut, quadrature_route, exponent_calls, quad_log
    ):
        grid = invert_to_density(measure, half_width=half_width)
        dt = grid_step(measure, half_width)
        assert seeded_block(measure, half_width, 16384)[-1] == seed
        assert round(grid.meta["cf_cutoff"] / dt) == i_cut
        index = [list(np.round(ts / dt).astype(int)) for ts in exponent_calls]
        # k = 1..seed as one call, then each probe above it with the
        # frequencies below it; so each k <= cutoff once, and none above it
        above = [p for p in probes(16384) if seed < p <= i_cut]
        assert index == [list(range(1, seed + 1))] + [
            list(range(p // 2 + 1, p + 1)) for p in above
        ]
        # one quadrature pass per call, none of them a one-row probe
        assert [rec["rows"] for rec in quad_log] == [seed] + [p // 2 for p in above]

    def test_a_default_rescaled_4_3_density_takes_one_quadrature_pass(self, quad_log):
        # the series answers the grid's first frequencies and shows probe
        # 32 to pass, so the quadrature takes the rest up to the cutoff 64
        # in one pass
        grid = invert_to_density(RESC43)
        assert round(grid.meta["cf_cutoff"] / grid_step(RESC43)) == 64
        assert len(quad_log) == 1

    @pytest.mark.parametrize(
        "measure", [RESC43, RESC75, LIMIT1, LIMIT2], ids=["resc43", "resc75", "limit1", "limit2"]
    )
    def test_the_first_call_is_one_plain_grid_batch(self, measure, monkeypatch):
        # k = 1..seed is one batch of grid frequencies, tiled and cut into
        # recurrence runs as any other: its psi is that of one call with
        # the step alone, byte for byte (a batch that restarted its runs
        # after each probe, at k = 33 for rescaled (4,3), would not be)
        calls = []
        real = spectral._char_exponents

        def record(measure, ts, *rest):
            psi = real(measure, ts, *rest)
            calls.append((np.array(ts, dtype=float), psi))
            return psi

        monkeypatch.setattr(spectral, "_char_exponents", record)
        invert_to_density(measure)
        dt = grid_step(measure)
        ts = np.array(seeded_block(measure, 12.0, 16384), dtype=float) * dt
        first_ts, first_psi = calls[0]
        assert first_ts.tobytes() == ts.tobytes()
        assert first_psi.tobytes() == real(measure, ts, dt).tobytes()
        # which is the series' leading run, then the quadrature of the rest
        # with the step, in the given order
        series, _ = _series_exponents(measure, ts)
        assert 0 < len(series) < len(ts)
        rest = _quadrature_exponents(measure, ts[len(series) :], dt)
        assert first_psi.tobytes() == np.concatenate((series, rest)).tobytes()

    def test_the_benchmark_laws_take_two_thirds_of_a_pass_each(self, quad_log):
        # the 128 laws of the benchmark's density_grid workload at the
        # defaults: 86 quadrature passes, 0.67 per density (173 when the
        # Gaussian bound alone seeds the search), and the same 6243 rows;
        # in each, the seed, and so every probe shown to pass, is at or
        # below the cutoff
        laws = [make_measure("rescaled", DimensionPair(d, k)) for d, k in admissible_pairs(24)]
        laws += [make_measure("limit", b) for b in range(1, 7)]
        laws.append(make_measure("hyperbolic", DimensionPair(4, 3)))
        assert len(laws) == 128
        for measure in laws:
            grid = invert_to_density(measure)
            i_cut = round(grid.meta["cf_cutoff"] / grid_step(measure))
            assert seeded_block(measure, 12.0, 16384)[-1] <= i_cut
        assert len(quad_log) == 86
        assert sum(rec["rows"] for rec in quad_log) == 6243

    def test_cutoff_at_the_grid_top_skips_the_nyquist_frequency(
        self, exponent_values, monkeypatch
    ):
        # on 256 points at half_width 96 the doubling search first drops
        # below 1e-2 at its last probe, i = n/2 = 128
        n, half_width = 256, 96.0
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", 1e-2)
        grid = invert_to_density(RESC43, half_width=half_width, n_points=n)
        dt = grid_step(RESC43, half_width)
        assert round(grid.meta["cf_cutoff"] / dt) == n // 2
        # every frequency k dt, k = 1..n/2, evaluated once (exponent_values
        # rejects repeats): the probes, n/2 among them, and the grid below
        # n/2, and no other
        cf = exponent_values(dt)
        assert sorted(cf) == list(range(1, n // 2 + 1))
        # one transform of the whole half spectrum (n/(2L) = 1)
        assert spectral._pruned_length(n // 2, n // 2 - 1) == n // 2
        # the grid has no +n/2 frequency: the density is the sum over
        # |k| < n/2, and a stray (-1)^m cf_{n/2} term would be visible
        bound = assert_matches_direct_sum(grid, cf, dt)
        nyquist = dt / (2.0 * math.pi) * abs(cf[n // 2])
        assert nyquist > 1e6 * bound

    def test_undetected_decay_evaluates_only_the_probes(
        self, quadrature_route, exponent_calls, quad_log
    ):
        # k_safe = 1e6 sqrt(2 ln 1e12 - 2) / pi is far above n/2 = 128: no
        # probe can reach the threshold, and only the top one is evaluated
        # for the |cf| the error reports
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(LIMIT2, half_width=1e6, n_points=256)
        dt = grid_step(LIMIT2, 1e6)
        assert [list(np.round(ts / dt)) for ts in exponent_calls] == [[128]]
        assert [rec["rows"] for rec in quad_log] == [1]
        assert info.value.achieved == ladder_reference(LIMIT2, 1e6, 256, 1e-12)[1]

    def test_a_top_probe_seed_that_passes_raises_after_one_evaluation(
        self, quadrature_route, exponent_calls, quad_log, monkeypatch
    ):
        # k_safe = 96 sqrt(2 ln 100 - 2) / pi = 82 makes the top probe 128 the
        # seed; limit b = 1 keeps |cf| >= 1e-2 there, so no probe can be the
        # cutoff and the block k = 1..128 (four 32-row calls) is not needed
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", 1e-2)
        dt = grid_step(LIMIT1, 96.0)
        assert seeded_block(LIMIT1, 96.0, 256)[-1] == 128
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(LIMIT1, half_width=96.0, n_points=256)
        assert [list(np.round(ts / dt)) for ts in exponent_calls] == [[128]]
        assert [rec["rows"] for rec in quad_log] == [1]
        assert info.value.achieved == ladder_reference(LIMIT1, 96.0, 256, 1e-2)[1]

    def test_a_top_probe_seed_that_fails_is_followed_by_the_block_below(
        self, exponent_calls, monkeypatch
    ):
        # rescaled (4,3) drops below 1e-2 at the top probe 128: it goes
        # alone, then k = 1..127 as one block, and it is the cutoff
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", 1e-2)
        dt = grid_step(RESC43, 96.0)
        grid = invert_to_density(RESC43, half_width=96.0, n_points=256)
        index = [list(np.round(ts / dt).astype(int)) for ts in exponent_calls]
        assert index == [[128], list(range(1, 128))]
        assert round(grid.meta["cf_cutoff"] / dt) == 128


class TestDecayThreshold:
    """The cutoff search under thresholds other than the fixed 1e-12."""

    @pytest.mark.parametrize("threshold", [1.0, 2.0, math.inf])
    def test_at_or_above_one_seeds_at_probe_four(self, threshold, exponent_calls, monkeypatch):
        # k_safe is 0 (its root is imaginary), so the seed is the first probe
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
        assert _safe_index(12.0) == 0.0
        grid = invert_to_density(RESC43)
        dt = grid_step(RESC43)
        assert [list(np.round(ts / dt)) for ts in exponent_calls] == [[1, 2, 3, 4]]
        assert round(grid.meta["cf_cutoff"] / dt) == 4
        assert grid.meta["cf_at_cutoff"] == ladder_reference(RESC43, 12.0, 16384, threshold)[1]


SEARCH_LAWS = [RESC43, LIMIT1, LIMIT2, HYP75]
SEARCH_IDS = ["resc43", "limit1", "limit2", "hyp75"]


class _Understated(LevyMeasure1D):
    """A measure that declares 1/16 of its second moment."""

    @property
    def total_second_moment(self) -> float:
        return super().total_second_moment / 16.0


# HYP75 declaring 1/16 of its second moment: its sigma is 4 times too
# small, so the bound behind the seed fails
UNDERSTATED = _Understated(HYP75.shape, HYP75.log_weight)


class TestSeededSearch:
    """The bound-seeded search against the plain probe ladder, with the
    cutoff below, at and above the seed."""

    @pytest.mark.parametrize("n", [256, 4096, 16384])
    @pytest.mark.parametrize("half_width", [3.0, 12.0, 96.0])
    @pytest.mark.parametrize("threshold", [0.5, 1e-2, 1e-12])
    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_matches_the_probe_ladder(
        self, measure, threshold, half_width, n, exponent_values, monkeypatch
    ):
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
        dt = grid_step(measure, half_width)
        block = seeded_block(measure, half_width, n)
        try:
            grid = invert_to_density(measure, half_width=half_width, n_points=n)
        except DecayDetectionError as exc:
            cf = exponent_values(dt)  # read before the reference adds its probes
            ladder = probes(n)
            if block[-1] == ladder[-1]:
                # the top probe, evaluated alone first, decides the raise
                assert sorted(cf) == ladder[-1:]
            else:
                # each probe went with the frequencies below it, so every
                # k up to the top probe was evaluated, once
                assert sorted(cf) == list(range(1, ladder[-1] + 1))
            assert ladder_reference(measure, half_width, n, threshold) == (None, exc.achieved)
            return
        cf = exponent_values(dt)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        assert grid.meta["cf_cutoff"] == i_cut * dt
        ref_cut, ref_achieved = ladder_reference(measure, half_width, n, threshold)
        assert i_cut == ref_cut
        # the |cf| reported is the one placed; it came in a grid block, by the
        # phase recurrence, and the ladder's from a lone call, by the sines,
        # so the two agree to the route's stated 1e-13 |psi|
        achieved = grid.meta["cf_at_cutoff"]
        assert achieved == abs(cf[i_cut])
        psi = char_exponent(measure, i_cut * dt)
        assert abs(math.log(achieved) - math.log(ref_achieved)) <= 1e-13 * abs(psi)
        # each k <= cutoff once (exponent_values rejects repeats), none above
        assert sorted(cf) == list(range(1, i_cut + 1))
        assert set(block) <= set(cf)
        # all 256 points of the smallest grid, 64 points of the larger ones
        assert_matches_direct_sum(grid, cf, dt, every=1 if n == 256 else n // 64)

    @pytest.mark.parametrize(
        "half_width, n, threshold",
        # the cutoff below the seed 16, with |cf| above it still far
        # over the FFT's rounding; no seed, and a top probe that fails
        [(12.0, 4096, 1e-2), (200.0, 256, 1e-2)],
    )
    def test_a_failed_bound_still_gives_the_ladder_cutoff(
        self, half_width, n, threshold, exponent_values, monkeypatch
    ):
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
        grid = invert_to_density(UNDERSTATED, half_width=half_width, n_points=n)
        dt = grid_step(UNDERSTATED, half_width)
        cf = exponent_values(dt)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        assert i_cut < seeded_block(UNDERSTATED, half_width, n)[-1]
        assert (i_cut, grid.meta["cf_at_cutoff"]) == ladder_reference(
            UNDERSTATED, half_width, n, threshold
        )
        # the values evaluated above the cutoff are not placed
        placed = {k: c for k, c in cf.items() if k <= i_cut}
        assert sorted(placed) == list(range(1, i_cut + 1))
        assert_matches_direct_sum(grid, placed, dt)

    def test_a_failed_bound_with_the_top_probe_as_cutoff_evaluates_the_block_below(
        self, exponent_calls, monkeypatch
    ):
        # no probe reaches k_safe, so the top probe 128 is the seed: it
        # fails first, then k = 1..127 go as one block, as for any top
        # seed that drops below; each k <= 128 once
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", 1e-2)
        half_width, n = 300.0, 256
        assert _safe_index(half_width) > n // 2
        grid = invert_to_density(UNDERSTATED, half_width=half_width, n_points=n)
        dt = grid_step(UNDERSTATED, half_width)
        index = [list(np.round(ts / dt).astype(int)) for ts in exponent_calls]
        assert index == [[128], list(range(1, 128))]
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        assert (i_cut, grid.meta["cf_at_cutoff"]) == ladder_reference(
            UNDERSTATED, half_width, n, 1e-2
        )
        assert i_cut == n // 2

    @pytest.mark.parametrize("half_width", [3.0, 12.0, 96.0])
    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_one_quadrature_pass_per_probe_above_the_seed(
        self, measure, half_width, quadrature_route, quad_log
    ):
        # the seed's block and then one pass per probe checked above it,
        # which takes the frequencies between it and the probe below
        grid = invert_to_density(measure, half_width=half_width)
        dt = grid_step(measure, half_width)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        seed = seeded_block(measure, half_width, 16384)[-1]
        above = [p for p in probes(16384) if seed < p <= i_cut]
        assert [rec["rows"] for rec in quad_log] == [seed] + [p // 2 for p in above]

    @pytest.mark.parametrize("threshold", [1e-2, 1e-12])
    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_every_probe_the_series_shows_passes_on_its_quadrature(
        self, measure, threshold, monkeypatch
    ):
        # Re psi by the series less its stated bound promises |cf| >= e *
        # threshold at each probe it shows; the quadrature, the independent
        # route (1e-11 relative), agrees at every such probe of the default
        # grid under each window, and none is at the remainder's pole
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
        ks = np.array(probes(16384), dtype=float)
        beyond_the_gaussian_bound = 0
        for half_width in (3.0, 12.0, 96.0):
            t = ks * grid_step(measure, half_width)
            shown = series_shows(measure, t)
            if shown.any():
                assert np.all(t[shown] < 91.0)
                cf = np.exp(_quadrature_exponents(measure, t[shown]))
                assert np.all(np.abs(cf) >= math.e * threshold * (1.0 - 1e-9))
            beyond_the_gaussian_bound += np.count_nonzero(ks[shown] >= _safe_index(half_width))
        # at 1e-12 it shows probes the Gaussian bound does not; at 1e-2, none
        assert (beyond_the_gaussian_bound > 0) == (threshold == 1e-12)

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_cf_modulus_bound_holds_up_to_the_seed(self, measure, monkeypatch):
        # |cf(t)| >= exp(-sigma^2 t^2 / 2), since 1 - cos u <= u^2 / 2; the
        # computed |cf| carries the quadrature's relative error, well
        # below the 1e-9 allowed here
        sigma2 = measure.total_second_moment
        for half_width, threshold in ((3.0, 1e-12), (12.0, 1e-12), (96.0, 1e-2), (96.0, 1e-12)):
            monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
            dt = grid_step(measure, half_width)
            ks = np.arange(1, seeded_block(measure, half_width, 16384)[-1] + 1)
            t = ks * dt
            got = np.abs(np.exp(_char_exponents(measure, t)))
            assert np.all(got >= np.exp(-0.5 * sigma2 * t * t) * (1.0 - 1e-9))
            safe = ks <= _safe_index(half_width)
            assert np.all(got[safe] >= math.e * threshold)


U = 2.0**-53  # unit roundoff of a double


def levels_five_and_six(measure):
    """_PhaseLevel on the nodes of the first integrand call of measure's
    quadrature (level 5 and the nodes level 6 adds), weighed: (the
    _PhaseLevel, its parts' weights as the rule passes them)."""
    table = quadrature._es_nodes if measure.shape.half_line else quadrature._ts_nodes
    nodes, ws = quadrature._call_nodes(table, ((5, False), (6, True)))
    phase = _PhaseLevel(*measure.shape.phase_terms(*nodes))
    phase._weigh(ws)
    return phase, ws


def parts_of(phase):
    """The parts of a weighed _PhaseLevel in the pass's order, each its x,
    top, powers and weights, in ascending x, and its end, the first column
    where x rounds to 1.0 (the sums' rows come in this order)."""
    parts = [
        SimpleNamespace(
            x=phase.x[a:z], top=phase.top[a:z], powers=phase.powers[:, a:z], w=phase.w[a:z],
            end=end - a,
        )
        for a, end, z in phase.parts
    ]
    return parts[:: phase.step]


def taylor_columns(x, t):
    """The number of Taylor columns of each row over a part's ascending x:
    b = searchsorted(x, _SMALL_PHASE / |t|), the rule _PhaseLevel states."""
    return np.searchsorted(x, _SMALL_PHASE / np.abs(t))


def row_sum_exact(part, t):
    """The sum over a part's nodes of w F at the frequency t, at 30
    digits, F the exact term in the form the part takes (the quartic
    Taylor polynomial in its powers over the first b columns, E(t x) top
    from b on), and the bound the _PhaseLevel docstring states on the
    computed sum: (the sum, the bound)."""
    w = part.w
    b = int(taylor_columns(part.x, np.array([t]))[0])
    with mpmath.workdps(30):
        tm = mpmath.mpf(float(t))
        total, size, elements = mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
        for j in range(len(w)):
            wj = mpmath.mpf(float(w[j]))
            if j < b:
                p2, p3, p4, p5 = (mpmath.mpf(float(p)) for p in part.powers[:, j])
                f = mpmath.mpc(
                    -(tm**2) / 2 * p2 + tm**4 / 24 * p4, -(tm**3) / 6 * p3 + tm**5 / 120 * p5
                )
            else:
                y = tm * mpmath.mpf(float(part.x[j]))
                e = mpmath.expj(y) - 1 - 1j * y
                top = mpmath.mpf(float(part.top[j]))
                f = e * top
                elements += spectral._PROGRESSION_ERR * U * (abs(e) + abs(y)) * wj * top
            total += wj * f
            size += wj * (abs(f.real) + abs(f.imag))
        return complex(total), float(elements + (len(w) + 10) * U * size)


class TestPhaseKernel:
    @pytest.mark.parametrize(
        "measure", [RESC43, RESC40, HYP75, LIMIT1, LIMIT2, LIMIT3],
        ids=["resc43", "resc40_21", "hyp75", "limit1", "limit2", "limit3"],
    )
    def test_row_sums_match_the_two_form_where(self, measure, monkeypatch):
        # frequencies from 1e-3 to 3e3 in one block put columns in every
        # form and drive the levels to 9 and beyond, whose new nodes (3128
        # or more) are the widest spans; each row's sum over each part must
        # match the exact sum of the two-form where() reference, weighted,
        # within the stated bound of both
        calls = []
        real = _PhaseLevel.sums

        def record(phase, t, ws, dt=None):
            assert dt is None  # frequencies that are no grid: the sine route
            got = real(phase, t, ws)
            calls.extend(zip(parts_of(phase), [t] * len(got), got))
            # a negative frequency gives the conjugate sums, bit for bit
            assert np.array_equal(real(phase, -t, ws), np.conj(got))
            return got

        monkeypatch.setattr(_PhaseLevel, "sums", record)
        _quadrature_exponents(measure, np.geomspace(1e-3, 3e3, 32))
        assert len({len(c[0].w) for c in calls[:2]}) == 2  # the first call's two parts
        assert max(len(c[0].w) for c in calls) > 2048  # some call at level 9 or above
        # and columns where x rounds to 1.0, which take y = t per row
        assert any(np.any(c[0].x == 1.0) for c in calls)
        for part, t, got in calls:
            # each part's nodes are in ascending x, as the spans assume
            assert np.all(np.diff(part.x) >= 0.0)
            w, n = part.w, len(part.w)
            with np.errstate(over="ignore", invalid="ignore"):
                terms = where_kernel(t[:, None], part.x, part.top, part.powers) * w
                large = (np.arange(n) >= taylor_columns(part.x, t)[:, None]) | (
                    np.abs(t[:, None] * part.x) >= _SMALL_PHASE
                )
                y_top = np.where(large, np.abs(t[:, None] * part.x) * w * part.top, 0.0)
            elements = np.where(large, np.abs(terms) + y_top, 0.0).sum(axis=1)
            size = (np.abs(terms.real) + np.abs(terms.imag)).sum(axis=1)
            bound = 2.0 * spectral._PROGRESSION_ERR * U * elements + (n + 20) * U * size
            want = np.array(
                [complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms]
            )
            assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    @settings(max_examples=8, derandomize=True, deadline=None, database=None)
    @given(
        part=st.sampled_from([0, 1]),
        k0=st.integers(1, 4096),
        live=st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True).map(sorted),
    )
    @example(part=0, k0=1, live=[0, 1, 2, 3])
    def test_each_row_sum_is_within_the_stated_bound(self, measure, part, k0, live):
        # grid rows on the first call's real nodes and weights, both
        # routes, each row's sum over one part (level 5, or the nodes
        # level 6 adds) against the exact sum of its terms in the forms it
        # takes
        phase, ws = levels_five_and_six(measure)
        dt = grid_step(measure)
        k = k0 + np.array(live, dtype=float)
        t = k * dt
        routes = {"sines": phase.sums(t, ws)[part], "progression": phase.sums(t, ws, dt)[part]}
        for i, ti in enumerate(t):
            want, bound = row_sum_exact(parts_of(phase)[part], ti)
            for got in routes.values():
                assert abs(got[i] - want) <= bound


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_a_deep_block_keeps_its_temporaries_small():
    """32 frequencies near t = 1e4 on rescaled (4,3) refine to level 12,
    whose 25026 new nodes make the block's (32, nodes) complex values
    12.8 MB. Evaluating both kernel forms over the whole block and
    weighting them out of place raised the peak RSS of a fresh
    interpreter by 40.6-41.4 MB; the row sums on row tiles must keep the
    rise to at most half of 40.6 MB."""
    rise = peak_rss_rise_mb(
        setup="""
            import numpy as np
            from hyplevy.measures import DimensionPair, make_measure
            from hyplevy.spectral import _char_exponents

            measure = make_measure("rescaled", DimensionPair(4, 3))
            _char_exponents(measure, np.array([1.0]))
        """,
        measured="_char_exponents(measure, 1e4 + np.arange(32.0))",
    )
    assert rise <= 0.5 * 40.6


# frequencies whose quadrature passes at level 6, 7 or 8 on each of the
# SEARCH_LAWS, of either sign
ROW_POOL = [
    sign * t for t in (0.3, 3.0, 30.0, 100.0, 200.0, 300.0, 500.0, 700.0) for sign in (1, -1)
]


class TestRowIndependence:
    """The sine route of the quadrature (frequencies passed without a grid
    step) keeps every row bit for bit the value of its frequency alone;
    the grid's recurrence route is TestProgressionRoute's."""

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_the_pool_spans_levels_six_to_eight(self, measure, quad_log):
        _quadrature_exponents(measure, np.array(ROW_POOL))
        assert len(quad_log[0]["points"]) == 3  # levels 5 and 6 in one call, 7, 8
        assert quad_log[0]["live"][0] > quad_log[0]["live"][1] > quad_log[0]["live"][2] > 0

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(
        ts=st.lists(st.sampled_from(ROW_POOL), min_size=1, max_size=8, unique=True),
        tile=st.sampled_from([391, 1500, quadrature._TILE]),
    )
    def test_each_row_is_its_one_frequency_call(self, measure, ts, tile):
        # any subset, in any order, under any tile budget (391 elements
        # make one-row tiles): a row's value is bitwise the one of its
        # frequency alone, whichever rows share its tiles and levels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_TILE", tile)
            got = _quadrature_exponents(measure, np.array(ts))
        alone = [_quadrature_exponents(measure, np.array([t]))[0] for t in ts]
        assert got.tobytes() == np.array(alone).tobytes()


def phase_exact(t, x):
    """e^{iy} - 1 - iy at y = t x, the product of the two doubles taken
    exactly, at 40 digits: (the value, |y|)."""
    with mpmath.workdps(40):
        y = mpmath.mpf(float(t)) * mpmath.mpf(float(x))
        return complex(mpmath.expj(y) - 1 - 1j * y), abs(float(y))


def large_tiles(phase, t, live, tile, dt=None):
    """_PhaseLevel's large-form terms over the rows live, in the row tiles
    the quadrature makes on the first call (at most 392 nodes a part)
    under the budget tile, as (rows, their Taylor columns b of the
    layout, flat, bounds) (_large_terms); with dt, the rows are grid
    frequencies on the recurrence."""
    step = max(1, tile // 392)
    for i in range(0, len(live), step):
        rows = np.array(live[i : i + step])
        b = np.stack(
            [a + taylor_columns(phase.x[a:z], t[rows]) for a, _, z in phase.parts], axis=1
        )
        yield (rows, b, *phase._large_terms(t[rows], b, dt))


# the rows a level keeps live: a run of up to 64 of 128 rows, less a few
LIVE_ROWS = st.builds(
    lambda lo, n, drops: sorted(set(range(lo, lo + n)) - set(drops)) or [lo],
    st.integers(0, 63),
    st.integers(1, 64),
    st.lists(st.integers(0, 127), max_size=6),
)


class TestProgressionRoute:
    """Grid frequencies k dt: the runs of consecutive k take the doubling
    recurrence of _PhaseLevel (_progression)."""

    @settings(max_examples=15, derandomize=True, deadline=None, database=None)
    @given(
        dt=st.sampled_from([1e-3, 0.05, 0.5]),
        k0=st.integers(1, 4096),
        live=LIVE_ROWS,
        tile=st.sampled_from([391, 1500, quadrature._TILE]),
    )
    # and whole runs, the longest reaching k = 4096
    @example(dt=1e-3, k0=1, live=list(range(64)), tile=quadrature._TILE)
    @example(dt=0.05, k0=700, live=list(range(64)), tile=1500)
    @example(dt=0.5, k0=4033, live=list(range(64)), tile=quadrature._TILE)
    def test_each_element_is_within_the_stated_bound(self, dt, k0, live, tile):
        # theta = dt x from 2e-7 dt to dt over the nodes (x below 1, as
        # phase_terms gives them) in two parts, the even nodes and the odd
        # ones, as a first call has; live rows among 128 consecutive k from
        # k0 on, in the tiles of each budget (391 elements make one-row
        # tiles: seeds only); each row's large columns of each part are
        # checked
        x = np.geomspace(2e-7, 0.999, 24)
        x = np.r_[x[0::2], x[1::2]]
        top = np.ones_like(x)
        phase = _PhaseLevel(x, top, np.array([x**2, x**3, x**4, x**5]) * top)
        phase._weigh((np.ones(12), np.ones(12)))
        k = k0 + np.arange(128.0)
        t = k * dt
        worst = {"progression": 0.0, "sines": 0.0}
        tiles = zip(
            large_tiles(phase, t, live, tile, dt), large_tiles(phase, t, live, tile)
        )
        for (rows, b, got, bounds), (_, _, sines, sine_bounds) in tiles:
            for i, row in enumerate(rows):
                for p, (_, end, _) in enumerate(phase.parts):
                    cols = range(b[i, p], end)  # the row's own large columns
                    lo, hi = bounds[i, 2 * p : 2 * p + 2]
                    s_lo, s_hi = sine_bounds[i, 2 * p : 2 * p + 2]
                    assert hi - lo == s_hi - s_lo == len(cols)
                    for j, col in enumerate(cols):
                        want, y = phase_exact(t[row], phase.x[col])
                        assert y >= _SMALL_PHASE * (1.0 - 2.0 * U)  # a large column
                        scale = U * (abs(want) + y)
                        values = {"progression": got[lo + j], "sines": sines[s_lo + j]}
                        for route, value in values.items():
                            worst[route] = max(worst[route], abs(value - want) / scale)
        # the bound the docstring states, which the sine route meets too
        assert worst["progression"] <= spectral._PROGRESSION_ERR
        assert worst["sines"] <= spectral._PROGRESSION_ERR

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(
        k0=st.integers(1, 4096),
        live=LIVE_ROWS,
        tile=st.sampled_from([391, 1500, quadrature._TILE]),
    )
    @example(k0=1, live=list(range(32)), tile=quadrature._TILE)
    @example(k0=4033, live=list(range(64)), tile=quadrature._TILE)
    def test_psi_agrees_with_the_sine_route_row_by_row(self, measure, k0, live, tile):
        dt = grid_step(measure)
        ts = (k0 + np.array(live, dtype=float)) * dt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_TILE", tile)
            got = _quadrature_exponents(measure, ts, dt)
        want = _quadrature_exponents(measure, ts)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_a_run_ends_where_k_skips(self, measure, monkeypatch):
        # k = 5..16, 33..64 and 129..140 in one batch, under a budget that
        # keeps every level's live rows in one tile (at most 44 rows of
        # level 12's new nodes): the recurrence restarts wherever k skips,
        # so each stretch gets the bits of a call with it alone
        monkeypatch.setattr(quadrature, "_TILE", 1 << 21)
        dt = grid_step(measure)
        bounds = ((5, 17), (33, 65), (129, 141))
        stretches = [np.arange(lo, hi, dtype=float) for lo, hi in bounds]
        got = _quadrature_exponents(measure, np.concatenate(stretches) * dt, dt)
        want = np.concatenate([_quadrature_exponents(measure, ks * dt, dt) for ks in stretches])
        assert got.tobytes() == want.tobytes()

    def test_a_default_density_takes_the_recurrence(self, monkeypatch):
        # the large form's direct sines cover at most the seed rows and one
        # row of shifts per doubling in each run of consecutive k of a
        # row-sum call; a fall-back to the sine route would take them for
        # every row
        calls = []
        sums, unit_phase = _PhaseLevel.sums, spectral._unit_phase

        def record_sums(phase, t, w, dt=None):
            assert dt is not None
            cuts = np.flatnonzero(np.diff(np.rint(t / dt)) != 1.0) + 1
            calls.append({"runs": np.diff([0, *cuts, len(t)]), "direct": 0})
            return sums(phase, t, w, dt)

        def record_unit_phase(y):
            if np.ndim(y) == 2:  # over the nodes, not the per-row x = 1 factor
                calls[-1]["direct"] += np.shape(y)[0]
            return unit_phase(y)

        monkeypatch.setattr(_PhaseLevel, "sums", record_sums)
        monkeypatch.setattr(spectral, "_unit_phase", record_unit_phase)
        invert_to_density(RESC43)
        seed = spectral._SEED_ROWS
        assert max(max(call["runs"]) for call in calls) >= 8 * seed
        for call in calls:
            allowed = sum(
                min(rows, seed) + math.ceil(math.log2(max(rows / seed, 1.0)))
                for rows in call["runs"]
            )
            assert 0 < call["direct"] <= allowed

    def test_a_default_density_sums_the_small_and_unit_columns_per_row(self, monkeypatch):
        # the work guard: no Taylor column (small in every row of the run)
        # and no x == 1.0 column reaches _progression, and every sine over
        # the nodes is the recurrence's own; the x == 1.0 columns take one
        # sine pair per row
        runs, inside = [], []
        progression, unit_phase = spectral._progression, spectral._unit_phase

        def record_progression(t, x, top, dt, out):
            runs.append((t, x))
            inside.append(True)
            try:
                return progression(t, x, top, dt, out)
            finally:
                inside.pop()

        def record_unit_phase(y):
            assert inside or np.ndim(y) == 1
            return unit_phase(y)

        monkeypatch.setattr(spectral, "_progression", record_progression)
        monkeypatch.setattr(spectral, "_unit_phase", record_unit_phase)
        invert_to_density(RESC43)
        assert runs
        # and two runs far apart in one tile, each over its own columns
        dt = grid_step(RESC43)
        k = np.r_[1.0:9.0, 300.0:308.0]
        _quadrature_exponents(RESC43, k * dt, dt)
        for t, x in runs:
            assert np.all(x < 1.0)
            assert np.all(x >= _SMALL_PHASE / np.abs(t).max())


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_a_deep_pass_keeps_its_row_tiles_small(quad_log):
    """200 frequencies in [9e3, 1e4] on rescaled (4,3) refine to level 12,
    whose 25026 new nodes would make one (200, nodes) complex array of
    80 MB. Passes over blocks of 32 rows raised the peak RSS of a fresh
    interpreter by 17.9 MB over the call, and one pass without row tiles
    by 92.6 MB; tiles of at most 2^16 elements read 4.1 MB."""
    ts = np.linspace(9e3, 1e4, 200)
    _char_exponents(RESC43, ts)
    assert [rec["rows"] for rec in quad_log] == [200]
    assert len(quad_log[0]["points"]) == 7  # levels 5 and 6 in one call, 7..12
    rise = peak_rss_rise_mb(
        setup="""
            import numpy as np
            from hyplevy.measures import DimensionPair, make_measure
            from hyplevy.spectral import _char_exponents

            measure = make_measure("rescaled", DimensionPair(4, 3))
            _char_exponents(measure, np.array([1.0]))
        """,
        measured="_char_exponents(measure, np.linspace(9e3, 1e4, 200))",
    )
    assert rise <= 0.5 * 17.9


class TestCharFunction:
    def test_modulus_bounded_by_one(self):
        for measure in (RESC43, LIMIT2):
            for t in np.linspace(-20.0, 20.0, 17):
                assert abs(char_function(measure, float(t))) <= 1.0 + 1e-12

    def test_unit_at_zero(self):
        assert char_function(RESC43, 0.0) == 1.0 + 0.0j

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_frequency_is_a_domain_error(self, t):
        # not a quadrature run to level 12 that ends in QuadratureError
        for f in (char_exponent, char_function):
            with pytest.raises(DomainError, match="finite frequency"):
                f(RESC43, t)

    @pytest.mark.parametrize("t", ["1", True, 1 + 1j, None], ids=["str", "bool", "complex", "none"])
    def test_a_frequency_that_is_not_a_real_number_is_a_domain_error(self, t):
        # float("1") and float(True) read as psi(1), and float(1 + 1j)
        # raised a bare TypeError
        for f in (char_exponent, char_function):
            with pytest.raises(DomainError, match=r"finite frequency, a real number, got"):
                f(RESC43, t)

    def test_numpy_reals_are_frequencies(self):
        want = char_exponent(RESC43, 1.0)
        for t in (1, np.float64(1.0), np.float32(1.0), np.int64(1), np.int8(1)):
            got = char_exponent(RESC43, t)
            assert type(got) is type(want) and got == want, t
            assert char_function(RESC43, t) == char_function(RESC43, 1.0), t


class TestInvertToDensity:
    @pytest.mark.parametrize(
        "kw", [{}, {"half_width": 3.0, "n_points": 4096}], ids=["defaults", "hw3_n4096"]
    )
    @pytest.mark.parametrize(
        "measure, pins_quadrature, digests",
        [
            (RESC43, True,
             ("3d07b55db441537da1fc8dba561b09a68f9f3734ca5c5cd80ea468f0c13d8dd0",
              "e1f28d3640780eac19e94f1fc5024a7841952a87b59ccb43c88d53f0fbd37dca")),
            (HYP75, False,
             ("e627b5779c79cae1e912731450b69104b8473d5c3762632a46958a05f50e2308",
              "fdf22bd21610b146f2c243c2b9584ca6d73f72a8ee7adc53cf0761b5c9ef3b84")),
            (RESC75, True,
             ("2e09285eec3ca2300fad73e33e270367e12e6f5702146dd3c45e1ef164cf368f",
              "62a914b28c55f8ff73005542f5c75a3da4a345302fda8ca85439f934dc02a344")),
            (LIMIT1, True,
             ("92a2c666729428f2999076fb9a90fae42e77e5c2bf85f8df40911b51ad68e958",
              "d138da8124319db0e1944d2b31ea624f6836e467fbfcfb8accf60c4f41d8d93f")),
            (LIMIT2, True,
             ("b321aec1597a39d71bb9171399cd712f2445277bcc16be2c3c7336dc6d59ea1e",
              "4746627fd60a4e5b2ba4a43cb9bff6f76a6a3f705d8a2e5bda8e64d90bcb9a30")),
        ],
        ids=["resc43", "hyp75", "resc75", "limit1", "limit2"],
    )
    def test_density_digest_is_pinned(self, measure, pins_quadrature, digests, kw):
        # SHA-256 of the float64 bytes of the values, then of the meta as
        # JSON with sorted keys (floats by repr, so bit for bit); recorded
        # when psi's quadrature took its Taylor and x == 1.0 columns as
        # weighted row sums, whose rounding moved them (hyp75's stayed:
        # its quadrature rows have |cf| below 2e-18, too small to move a
        # bit of its grid or meta, so resc75, whose rows reach 2.6e-6,
        # pins a second pair's quadrature route); resc43, resc75, limit1
        # and limit2-defaults re-recorded when the first batch stopped
        # restarting its recurrence runs after each probe (every value
        # within 2.7e-16 of its grid's peak, cf_at_cutoff within 7.4e-15);
        # all ten re-recorded when the grid took a pruned transform of
        # a_0..a_L with dt / 2 pi folded in and the trapezoid sums by sum
        # (every value within 1.6e-15 of its grid's peak, the meta within
        # 1.8e-14; its quadrature rows kept their bits); all ten re-recorded
        # when the moments became raw moments on the integer ramp m - n/2,
        # corrected by the grid mean (every value and every other meta key
        # kept its bits; mean moved by at most 1.6e-16, variance 4.5e-16,
        # third_central 1.6e-15)
        grid = invert_to_density(measure, **kw)
        h = hashlib.sha256(grid.values.tobytes())
        h.update(json.dumps(grid.meta, sort_keys=True).encode())
        assert h.hexdigest() == digests[0 if not kw else 1]
        if pins_quadrature:
            # the first grid frequency the cumulant series cannot answer
            # takes the quadrature in every batch the density computes; its
            # |cf| must be large enough for the digest to pin that route
            meta = grid.meta
            dt = math.pi / (meta["half_width"] * math.sqrt(measure.total_second_moment))
            ts = dt * np.arange(1, round(meta["cf_cutoff"] / dt) + 1)
            first = len(_series_exponents(measure, ts)[0])
            assert abs(np.exp(_quadrature_exponents(measure, ts[first : first + 1])[0])) >= 1e-10

    def test_moment_posts(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        meta = grid.meta
        assert abs(meta["mass"] - 1.0) <= 1e-6
        assert abs(meta["mean"]) <= 1e-6
        assert abs(meta["variance"] - 1.0) <= 1e-4
        assert abs(meta["third_central"] - 0.5) <= 1e-4
        assert meta["clipped_mass"] < 1e-6
        assert grid.values.min() >= 0.0

    def test_grid_geometry(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        assert len(grid.values) == 4096
        assert math.isclose(grid.x0, -12.0, rel_tol=1e-12)
        assert math.isclose(grid.xs[-1], 12.0 - grid.step, rel_tol=1e-9)

    def test_round_trip_to_the_characteristic_function(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        xs = grid.xs
        for t in (1.0, 3.0, 10.0):
            back = np.sum(grid.values * np.exp(1j * t * xs)) * grid.step
            direct = char_function(RESC43, t)
            assert abs(back - direct) <= 1e-5

    def test_limit_family_inversion(self):
        grid = cached_density("limit", 2, half_width=12.0, n_points=4096)
        assert abs(grid.meta["variance"] - 1.0) <= 1e-3
        assert abs(grid.meta["third_central"] - 0.5) <= 1e-2

    @pytest.mark.parametrize("b", [7, 10])
    def test_limit_family_past_codimension_six(self, b):
        # the exp-sinh products e^(-jv) v^((b-2)/2) that are 0 * inf at the
        # largest nodes count as 0, so psi and the density exist
        measure = make_measure("limit", b)
        assert abs(char_function(measure, 1.0)) <= 1.0
        meta = invert_to_density(measure).meta
        assert abs(meta["mass"] - 1.0) <= 1e-12
        assert abs(meta["variance"] - 1.0) <= 1e-11

    def test_decay_never_detected_inside_window(self):
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(LIMIT2, half_width=1e6, n_points=256)
        assert info.value.achieved > 0.9

    @pytest.mark.parametrize("half_width", [1e5, 1e6])
    def test_undetected_decay_advises_a_narrower_window(self, half_width):
        # the top grid frequency is (n/2) pi / (half_width sigma), 2.6e-1 and
        # 2.6e-2 here: more points or a narrower window reach further
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(RESC43, half_width=half_width)
        t_top = 8192 * grid_step(RESC43, half_width)
        assert str(info.value) == (
            f"|cf| only reached {info.value.achieved:.3e} at the edge of the frequency "
            f"window (t = {t_top:.6g}); enlarge n_points or narrow half_width"
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            invert_to_density(RESC43, half_width=0.0)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=255)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=258)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=512.0)
        # bools are not integers, and a window must be a real number
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=True)
        for half_width in ("12", None, 12.0 + 0j, True):
            with pytest.raises(DomainError, match="half_width"):
                invert_to_density(RESC43, half_width=half_width, n_points=256)

    def test_numpy_numbers_are_numbers(self):
        # held as a Python int and float, so the grid and its meta are
        # those of the equal Python arguments
        got = invert_to_density(LIMIT2, half_width=np.float64(6.0), n_points=np.int64(1024))
        want = invert_to_density(LIMIT2, half_width=6.0, n_points=1024)
        assert type(got.meta["n_points"]) is int and type(got.meta["half_width"]) is float
        assert got.meta == want.meta
        assert got.values.tobytes() == want.values.tobytes()

    def test_a_variance_that_underflows_is_a_domain_error(self, exponent_calls):
        # hyperbolic (2000, 1500) has variance exp(-1321.16), 0.0 as a
        # double, so dt = pi / (half_width sigma) has no finite value
        measure = make_measure("hyperbolic", DimensionPair(2000, 1500))
        assert measure.total_second_moment == 0.0
        with pytest.raises(DomainError, match=r"underflows to 0\.0 .*exp\(-1321\.16\)"):
            invert_to_density(measure)
        assert exponent_calls == []

    def test_a_constant_past_the_double_range_is_a_domain_error(self):
        # rescaled (4000, 3000): psi is O(1), but the quadrature's constant
        # exp(-2032.75 + 2989.3) is not a double
        measure = make_measure("rescaled", DimensionPair(4000, 3000))
        for call in (lambda: char_exponent(measure, 0.5), lambda: invert_to_density(measure)):
            with pytest.raises(DomainError, match=r"exp\(956\.554\) overflows"):
                call()

    def test_non_finite_half_width_is_a_domain_error(self, exponent_calls):
        # an infinite window makes dt = 0, where every probe has |cf| = 1
        for half_width in (math.inf, math.nan):
            with pytest.raises(DomainError, match="half_width"):
                invert_to_density(RESC43, half_width=half_width, n_points=256)
        assert exponent_calls == []


class TestHalfSpectrumInversion:
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("measure", [RESC43, LIMIT2], ids=["resc43", "limit2"])
    def test_matches_the_direct_sum(self, measure, n, exponent_values):
        grid = invert_to_density(measure, n_points=n)
        dt = grid_step(measure)
        cf = exponent_values(dt)
        assert sorted(cf) == list(range(1, round(grid.meta["cf_cutoff"] / dt) + 1))
        assert_matches_direct_sum(grid, cf, dt)

    @pytest.mark.parametrize("n", [1000, 4100])
    @pytest.mark.parametrize("measure", [RESC43, LIMIT2], ids=["resc43", "limit2"])
    def test_a_grid_of_no_power_of_two_matches_the_direct_sum(self, measure, n, exponent_values):
        # n/2 = 500 = 2^2 5^3 and 2050 = 2 5^2 41: the transform takes
        # a_0..a_L, L the least divisor of n/2 above the cutoff index, in
        # n/(2L) > 1 transforms of length 2L (L = 100, 250, 82 and 205)
        grid = invert_to_density(measure, n_points=n)
        dt = grid_step(measure)
        cf = exponent_values(dt)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        length = spectral._pruned_length(n // 2, i_cut)
        assert (n // 2) % length == 0 and i_cut < length < n // 2
        assert all((n // 2) % d for d in range(i_cut + 1, length))
        assert_matches_direct_sum(grid, cf, dt)

    @pytest.mark.parametrize(
        "measure, i_cut",
        [
            (make_measure("limit", 6), 32),
            (RESC43, 64),
            (make_measure("rescaled", DimensionPair(5, 4)), 128),
            (LIMIT1, 256),
        ],
        ids=["limit6", "resc43", "resc54", "limit1"],
    )
    def test_each_cutoff_class_matches_the_direct_sum(self, measure, i_cut, exponent_values):
        # the cutoff indices of the benchmark's 128 laws at the default
        # 16384 points: 128 transforms of length 128 down to 16 of length
        # 1024; every 61st point covers every one of them
        grid = invert_to_density(measure)
        dt = grid_step(measure)
        assert round(grid.meta["cf_cutoff"] / dt) == i_cut
        assert spectral._pruned_length(8192, i_cut) == 2 * i_cut
        assert_matches_direct_sum(grid, exponent_values(dt), dt, every=61)

    def test_cached_twiddles_are_read_only(self):
        # the cache hands the same table to every density: cutoff 32 at
        # 16384 points places k = 0..32 and takes L = 64, so 128 columns
        table = spectral._twiddles(16384, 32)
        assert table.shape == (33, 128)
        assert spectral._twiddles(16384, 32) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    @pytest.mark.parametrize(
        "n, top", [(16384, 32), (16384, 64), (16384, 128), (16384, 256), (1000, 99)]
    )
    def test_twiddles_are_the_direct_table(self, n, top):
        # e^{2 pi i k r / n} for k = 0..top down and r = 0..n/(2L) - 1
        # across, L the least divisor of n/2 above top, read from the width
        table = spectral._twiddles.__wrapped__(n, top)
        length = spectral._pruned_length(n // 2, top)
        assert table.shape == (top + 1, n // (2 * length))
        with mpmath.workdps(30):
            want = [
                [complex(mpmath.expjpi(mpmath.mpf(2 * k * r) / n)) for r in range(table.shape[1])]
                for k in range(top + 1)
            ]
        # each angle 2 pi k r / n < pi takes two roundings (2 pi / n and
        # the product), at most 2 pi u, and cos and sin one ulp each
        assert np.max(np.abs(table - np.array(want))) <= 1e-15

    def test_a_large_grid_keeps_no_twiddles(self):
        # a table holds about n / 2 complex numbers, so the cache holds
        # none of a grid above _CACHED_TWIDDLES points (2 MB at 2^18)
        spectral._twiddles.cache_clear()
        try:
            invert_to_density(RESC43, n_points=2 * spectral._CACHED_TWIDDLES)
            assert spectral._twiddles.cache_info().currsize == 0
            invert_to_density(RESC43, n_points=spectral._CACHED_TWIDDLES)
            assert spectral._twiddles.cache_info().currsize == 1
        finally:
            spectral._twiddles.cache_clear()

    @pytest.mark.parametrize(
        "measure", [RESC43, HYP75, LIMIT1, LIMIT3], ids=["resc43", "hyp75", "limit1", "limit3"]
    )
    def test_moments_match_fsum_moments_of_the_grid(self, measure):
        grid = invert_to_density(measure, n_points=4096)
        n = len(grid.values)
        w = np.full(n, grid.step)
        w[0] = w[-1] = 0.5 * grid.step
        wv = w * grid.values
        mean = math.fsum(wv * grid.xs)
        c = grid.xs - mean
        # an n-term sum in double rounds to about sqrt(n) eps times the sum
        # of its absolute terms; 8 sqrt(n) eps of those sums is the bar
        tol = 8.0 * math.sqrt(n) * np.finfo(float).eps
        assert abs(grid.meta["mean"] - mean) <= tol * math.fsum(wv * np.abs(grid.xs))
        assert abs(grid.meta["variance"] - math.fsum(wv * c * c)) <= tol * math.fsum(wv * c * c)
        third = math.fsum(wv * c * c * c)
        assert abs(grid.meta["third_central"] - third) <= tol * math.fsum(wv * np.abs(c) ** 3)


class TestDensityStages:
    """invert_to_density's three stages, each on its own."""

    @pytest.mark.parametrize("measure", [RESC43, LIMIT1, HYP75], ids=["resc43", "limit1", "hyp75"])
    def test_a_default_density_takes_one_series_evaluation(self, measure, monkeypatch):
        # the grid's lead rows k = 1, 2, ... below the series table's reach
        # and the probes the Gaussian bound leaves, below the remainder's
        # pole, share one _series_rows call, which every batch reads
        calls = []
        real = spectral._series_rows

        def record(table, log_weight, ts):
            calls.append(np.array(ts))
            return real(table, log_weight, ts)

        monkeypatch.setattr(spectral, "_series_rows", record)
        invert_to_density(measure)
        assert len(calls) == 1
        dt = grid_step(measure)
        lead = np.arange(1, 8193) * dt
        lead = lead[lead < spectral._series_table(measure.shape).reach]
        probe = np.array([p for p in probes(16384) if p >= _safe_index(12.0)]) * dt
        probe = probe[probe < spectral._SERIES_POLE]
        assert len(lead) > 16 and len(probe) >= 1
        assert calls[0].tobytes() == np.concatenate((lead, probe)).tobytes()

    @pytest.mark.parametrize(
        "measure", [RESC43, LIMIT1, make_measure("rescaled", DimensionPair(20, 19))],
        ids=["resc43", "limit1", "resc20_19"],
    )
    def test_the_cutoff_search_alone(self, measure):
        # the half spectrum it fills is that of its batches, 1..seed and
        # then each probe above the seed with the frequencies below it, each
        # batch as one call with the step alone, byte for byte; the cutoff
        # is the plain ladder's
        dt = grid_step(measure)
        a, i_cut, achieved = spectral._cutoff_search(measure, dt, 16384, 12.0)
        seed = seeded_block(measure, 12.0, 16384)[-1]
        assert seed <= i_cut and achieved == abs(a[i_cut])
        ref_cut, ref_achieved = ladder_reference(measure, 12.0, 16384, 1e-12)
        assert i_cut == ref_cut
        psi = char_exponent(measure, i_cut * dt)
        assert abs(math.log(achieved) - math.log(ref_achieved)) <= 1e-13 * abs(psi)
        batches = [np.arange(1, seed + 1)]
        batches += [np.arange(p // 2 + 1, p + 1) for p in probes(16384) if seed < p <= i_cut]
        for ks in batches:
            want = np.exp(_char_exponents(measure, ks * dt, dt))
            assert a[ks].tobytes() == want.tobytes()
        assert a[0] == 1.0 and not a[i_cut + 1 :].any()

    def test_the_cutoff_search_alone_raises_undetected_decay(self):
        dt = grid_step(LIMIT2, 1e6)
        with pytest.raises(DecayDetectionError, match="narrow half_width") as info:
            spectral._cutoff_search(LIMIT2, dt, 256, 1e6)
        assert info.value.achieved == ladder_reference(LIMIT2, 1e6, 256, 1e-12)[1]

    @pytest.mark.parametrize("n, shift", [(256, 0.0), (4096, 0.3), (16384, -1.7)])
    def test_grid_moments_match_an_fsum_trapezoid(self, n, shift):
        # a skewed two-normal mixture, off centre by shift, with ripple of
        # 1e-6 that the clip takes out: mass, clipped mass, the clipped
        # and renormalised values, and the moments about the grid mean,
        # against the same trapezoid rule summed by math.fsum
        dx = 24.0 / n
        xs = np.arange(-n // 2, n // 2) * dx
        mix = 0.7 * np.exp(-0.5 * ((xs + 0.3 - shift) / 0.8) ** 2) / 0.8
        mix += 0.3 * np.exp(-0.5 * ((xs - 0.7 - shift) / 1.2) ** 2) / 1.2
        raw = mix / math.sqrt(2.0 * math.pi)
        raw += 1e-6 * np.random.default_rng(n).standard_normal(n)
        values = raw.copy()
        meta = spectral._grid_moments(values, dx)
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
        eps = np.finfo(float).eps
        tol = 8.0 * math.sqrt(n) * eps
        assert abs(meta["mass"] - math.fsum(w * raw)) <= tol * math.fsum(w * np.abs(raw))
        ripple = np.minimum(raw, 0.0)
        assert (ripple < 0.0).any()
        assert abs(meta["clipped_mass"] + math.fsum(w * ripple)) <= tol * math.fsum(-w * ripple)
        clipped = raw - ripple
        np.testing.assert_allclose(values, clipped / math.fsum(w * clipped), rtol=tol, atol=0.0)
        wv = w * values
        mean = math.fsum(wv * xs)
        c = xs - mean
        assert abs(meta["mean"] - mean) <= tol * math.fsum(wv * np.abs(xs))
        assert abs(meta["mean"] - shift) <= 1e-4  # the clip biases it a little
        # raw moments about 0 made central by the mean: each raw moment j
        # errs by tol sum w v |x|^j, and binomially the central one by at
        # most tol sum w v (|x| + |mean|)^power
        for key, power in (("variance", 2), ("third_central", 3)):
            want = math.fsum(wv * c**power)
            assert abs(meta[key] - want) <= tol * math.fsum(wv * (np.abs(xs) + abs(mean)) ** power)
        assert meta["third_central"] > 0.1


class TestCdf:
    def test_monotone_normalized(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        table = grid.cdf()
        assert table.values[0] == 0.0
        assert math.isclose(table.values[-1], 1.0, rel_tol=1e-12)
        assert np.all(np.diff(table.values) >= 0.0)

    def test_evaluate_clamps_outside_support(self):
        table = CdfTable(x0=0.0, step=1.0, values=np.array([0.0, 0.5, 1.0]))
        assert table.evaluate(-5.0) == 0.0
        assert table.evaluate(7.0) == 1.0
        assert table.evaluate(0.5) == 0.25

    def test_zero_mass_grid_is_rejected(self):
        grid = DensityGrid(x0=0.0, step=0.1, values=np.zeros(8))
        with pytest.raises(DomainError):
            grid.cdf()


class TestKolmogorovDistance:
    def test_self_distance_is_zero(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        assert ks_distance(grid, grid) == 0.0
        assert ks_distance(grid.cdf(), grid) == 0.0

    def test_synthetic_gaussian_grid_matches_the_normal_sentinel(self):
        xs = np.linspace(-10.0, 10.0, 4097)
        pdf = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
        grid = DensityGrid(x0=-10.0, step=float(xs[1] - xs[0]), values=pdf)
        assert ks_distance(grid, STANDARD_NORMAL) <= 1e-4

    def test_skewed_law_is_far_from_normal(self):
        grid = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096)
        assert ks_distance(grid, STANDARD_NORMAL) > 0.01

    def test_unknown_operand_is_rejected(self):
        with pytest.raises(DomainError):
            ks_distance("bogus", STANDARD_NORMAL)

    def test_sample_distance_on_plugin_quantiles(self):
        n = 1000
        xs = scipy.special.ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert ks_distance_sample(xs, STANDARD_NORMAL) <= 6e-4

    def test_empty_sample_is_rejected(self):
        with pytest.raises(DomainError):
            ks_distance_sample(np.array([]), STANDARD_NORMAL)

    def test_a_sample_is_read_flat(self):
        # a (1000, 1) column read 0.99995 (one model value against every
        # draw) and a (2, 500) block raised a bare ValueError
        xs = np.random.default_rng(0).standard_normal(1000)
        flat = ks_distance_sample(xs, STANDARD_NORMAL)
        assert flat < 0.05  # 0.0354; the 5 % critical value is 0.043
        for shape in ((1000, 1), (2, 500), (1, 10, 100)):
            assert ks_distance_sample(xs.reshape(shape), STANDARD_NORMAL) == flat, shape

    @pytest.mark.parametrize("where", [0, 499, 999])
    def test_a_nan_in_the_sample_is_a_domain_error(self, where):
        xs = np.random.default_rng(0).standard_normal(1000)
        xs[where] = math.nan
        with pytest.raises(DomainError, match="no NaN, got 1000 values, 1 NaN"):
            ks_distance_sample(xs, STANDARD_NORMAL)

    @pytest.mark.parametrize(
        "x0, step, n",
        [(0.0, 1.0, 1), (0.0, 1.0, 0), (0.0, 0.0, 3), (0.0, -1.0, 3), (math.nan, 1.0, 3),
         (0.0, math.inf, 3)],
        ids=["one-point", "empty", "zero-step", "descending", "nan-start", "inf-step"],
    )
    def test_a_table_that_spans_no_interval_is_a_domain_error(self, x0, step, n):
        # two one-point tables raised a bare ValueError from np.concatenate
        bad = CdfTable(x0=x0, step=step, values=np.linspace(0.0, 1.0, n))
        two = CdfTable(x0=0.0, step=1.0, values=np.array([0.0, 1.0]))
        for call in (
            lambda: ks_distance(bad, bad),
            lambda: ks_distance(bad, STANDARD_NORMAL),
            lambda: ks_distance(two, bad),
            lambda: ks_distance_sample(np.zeros(3), bad),
        ):
            with pytest.raises(DomainError, match=f"2 values at least, on a finite increasing grid; got {n} "):
                call()
        assert ks_distance(two, two) == 0.0
