"""Characteristic exponents, Fourier inversion, Kolmogorov distances."""

import math
import sys

import numpy as np
import pytest
import scipy.special

from conftest import cached_density, peak_rss_rise_mb, psi_oracle
from hyplevy.errors import DecayDetectionError, DomainError, QuadratureError
from hyplevy.measures import DimensionPair, LevyMeasure1D, make_measure
from hyplevy.pairs import cumulant, variance
from hyplevy import spectral
from hyplevy.spectral import (
    STANDARD_NORMAL,
    CdfTable,
    DensityGrid,
    char_exponent,
    char_function,
    invert_to_density,
    ks_distance,
    ks_distance_sample,
    taylor_remainder_bound,
    _BLOCK,
    _SMALL_PHASE,
    _char_exponents,
    _exponent_rule,
    _phase_kernel,
    _safe_index,
)

RESC43 = make_measure("rescaled", DimensionPair(4, 3))
HYP75 = make_measure("hyperbolic", DimensionPair(7, 5))
LIMIT1 = make_measure("limit", 1)
LIMIT2 = make_measure("limit", 2)
LIMIT3 = make_measure("limit", 3)
RESC40 = make_measure("rescaled", DimensionPair(40, 21))


@pytest.fixture
def quad_log(monkeypatch):
    """One record per spectral quadrature call: the batch shape of the
    integrand's values (() for a 1-D integrand) and the points evaluated."""
    log = []
    for name in ("tanh_sinh", "exp_sinh"):
        def wrapper(f, *args, rule=getattr(spectral, name), **kwargs):
            rec = {"rows": None, "points": 0}
            log.append(rec)

            def counted(x, *rest):
                vals = f(x, *rest)
                rec["rows"] = np.shape(vals)[:-1]
                rec["points"] += np.size(x)
                return vals

            return rule(counted, *args, **kwargs)

        monkeypatch.setattr(spectral, name, wrapper)
    return log


@pytest.fixture
def exponent_calls(monkeypatch):
    """The frequency arrays passed to _char_exponents, in call order."""
    calls = []
    real = spectral._char_exponents

    def record(measure, ts):
        calls.append(np.array(ts, dtype=float))
        return real(measure, ts)

    monkeypatch.setattr(spectral, "_char_exponents", record)
    return calls


@pytest.fixture
def exponent_values(monkeypatch):
    """{round(t / dt): exp(psi(t))} over every frequency passed to
    _char_exponents, for the step dt given when read."""
    seen = []
    real = spectral._char_exponents

    def record(measure, ts):
        psi = real(measure, ts)
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


def seeded_block(half_width, n):
    """The indices invert_to_density evaluates before any probe above the
    seed: 1..seed, the seed being the first probe >= k_safe (at the
    current spectral._DECAY_THRESHOLD), or only the top probe when no
    probe reaches k_safe. (A top-probe seed is evaluated alone first, and
    1..seed-1 follow only when it drops below.)"""
    ladder = probes(n)
    k_safe = _safe_index(half_width)
    seed = next((i for i in ladder if i >= k_safe), None)
    return list(range(1, seed + 1)) if seed else ladder[-1:]


def where_kernel(t, x, top, powers, forced):
    """Both forms of the phase kernel over the whole block, one picked per
    element by where(): the reference the single-form kernel must equal."""
    p2, p3, p4, p5 = powers
    t2 = t * t
    y = t * x
    small = (np.abs(y) < _SMALL_PHASE) | forced
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

    @pytest.mark.parametrize("b", [221, 300])
    def test_limit_family_past_the_power_overflow(self, b):
        # kappa_m = (m-1)^(-b/2) leaves psi(1) = -1/2 to far below 1e-12
        measure = make_measure("limit", b)
        assert abs(char_exponent(measure, 1.0) + 0.5) <= 1e-12
        assert abs(invert_to_density(measure).meta["variance"] - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_limit_family_with_an_unrepresentable_integrand_raises(self):
        with pytest.raises(QuadratureError):
            char_exponent(make_measure("limit", 400), 1.0)

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
        ts[40] = 300.0  # needs level >= 7, so the second block refines past 6
        got = _char_exponents(measure, ts)
        assert _BLOCK == 32
        assert [rec["rows"] for rec in quad_log] == [(32,), (32,), (6,)]
        assert quad_log[1]["points"] >= 1565 > quad_log[0]["points"]
        quad_log.clear()
        psi = _exponent_rule(measure)
        alone = np.array([psi(float(t)) for t in ts])
        assert all(rec["rows"] == () for rec in quad_log)
        assert np.all(np.abs(got - alone) <= 1e-14 * np.abs(alone))
        # every row, the ones frozen at level 6 beside the level-7 row
        # included, meets its own tolerance against a tighter evaluation
        monkeypatch.setattr(spectral, "_REL_TOL", 1e-13)
        tight = _char_exponents(measure, ts)
        assert np.all(np.abs(got - tight) <= 1e-11 * np.abs(tight))

    def test_zero_frequencies_cost_nothing(self, quad_log):
        got = _char_exponents(RESC43, np.array([0.0, 1.0, 0.0]))
        assert got[0] == got[2] == 0.0
        assert got[1] == char_exponent(RESC43, 1.0)
        assert [rec["rows"] for rec in quad_log] == [(1,), (1,)]

    def test_level_five_to_six_evaluates_783_points(self, quad_log):
        char_exponent(RESC43, 1.0)
        char_exponent(LIMIT2, 1.0)
        assert [rec["points"] for rec in quad_log] == [783, 783]


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
        "measure, i_cut, rows",
        [
            # 1..32, probe 64, the 31 frequencies 33..63
            (RESC43, 64, [(32,), (1,), (31,)]),
            # 1..32, probes 64 and 128, the 94 frequencies left below 128
            (LIMIT2, 128, [(32,), (1,), (1,), (32,), (32,), (30,)]),
        ],
        ids=["resc43", "limit2"],
    )
    def test_each_grid_frequency_up_to_the_cutoff_is_evaluated_once(
        self, measure, i_cut, rows, exponent_calls, quad_log
    ):
        grid = invert_to_density(measure)
        dt = grid_step(measure)
        assert round(grid.meta["cf_cutoff"] / dt) == i_cut
        index = [list(np.round(ts / dt).astype(int)) for ts in exponent_calls]
        # k = 1..32 as one block (32 is the first probe >= k_safe = 27.9),
        # the probes above it one per call, then the rest in blocks
        assert index[0] == list(range(1, 33))
        above = [p for p in probes(16384) if 32 < p <= i_cut]
        assert index[1 : 1 + len(above)] == [[p] for p in above]
        assert sorted(np.concatenate(index)) == list(range(1, i_cut + 1))
        assert [rec["rows"] for rec in quad_log] == rows
        assert max(r[0] for r in rows) <= _BLOCK

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
        # the grid has no +n/2 frequency: the density is the sum over
        # |k| < n/2, and a stray (-1)^m cf_{n/2} term would be visible
        bound = assert_matches_direct_sum(grid, cf, dt)
        nyquist = dt / (2.0 * math.pi) * abs(cf[n // 2])
        assert nyquist > 1e6 * bound

    def test_undetected_decay_evaluates_only_the_probes(self, exponent_calls, quad_log):
        # k_safe = 1e6 sqrt(2 ln 1e12 - 2) / pi is far above n/2 = 128: no
        # probe can reach the threshold, and only the top one is evaluated
        # for the |cf| the error reports
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(LIMIT2, half_width=1e6, n_points=256)
        dt = grid_step(LIMIT2, 1e6)
        assert [list(np.round(ts / dt)) for ts in exponent_calls] == [[128]]
        assert [rec["rows"] for rec in quad_log] == [(1,)]
        assert info.value.achieved == ladder_reference(LIMIT2, 1e6, 256, 1e-12)[1]

    def test_a_top_probe_seed_that_passes_raises_after_one_evaluation(
        self, exponent_calls, quad_log, monkeypatch
    ):
        # k_safe = 96 sqrt(2 ln 100 - 2) / pi = 82 makes the top probe 128 the
        # seed; limit b = 1 keeps |cf| >= 1e-2 there, so no probe can be the
        # cutoff and the block k = 1..128 (four 32-row calls) is not needed
        monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", 1e-2)
        dt = grid_step(LIMIT1, 96.0)
        assert seeded_block(96.0, 256)[-1] == 128
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(LIMIT1, half_width=96.0, n_points=256)
        assert [list(np.round(ts / dt)) for ts in exponent_calls] == [[128]]
        assert [rec["rows"] for rec in quad_log] == [(1,)]
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
        block = seeded_block(half_width, n)
        try:
            grid = invert_to_density(measure, half_width=half_width, n_points=n)
        except DecayDetectionError as exc:
            cf = exponent_values(dt)  # read before the reference adds its probes
            ladder = probes(n)
            if block[-1] == ladder[-1]:
                # the top probe, evaluated alone first, decides the raise
                assert sorted(cf) == ladder[-1:]
            else:
                assert sorted(cf) == block + [p for p in ladder if p > block[-1]]
            assert ladder_reference(measure, half_width, n, threshold) == (None, exc.achieved)
            return
        cf = exponent_values(dt)
        i_cut = round(grid.meta["cf_cutoff"] / dt)
        assert grid.meta["cf_cutoff"] == i_cut * dt
        assert (i_cut, grid.meta["cf_at_cutoff"]) == ladder_reference(
            measure, half_width, n, threshold
        )
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
        assert i_cut < seeded_block(half_width, n)[-1]
        assert (i_cut, grid.meta["cf_at_cutoff"]) == ladder_reference(
            UNDERSTATED, half_width, n, threshold
        )
        # the values evaluated above the cutoff are not placed
        placed = {k: c for k, c in cf.items() if k <= i_cut}
        assert sorted(placed) == list(range(1, i_cut + 1))
        assert_matches_direct_sum(grid, placed, dt)

    @pytest.mark.parametrize("measure", SEARCH_LAWS, ids=SEARCH_IDS)
    def test_cf_modulus_bound_holds_up_to_the_seed(self, measure, monkeypatch):
        # |cf(t)| >= exp(-sigma^2 t^2 / 2), since 1 - cos u <= u^2 / 2; the
        # computed |cf| carries the quadrature's relative error, well
        # below the 1e-9 allowed here
        sigma2 = measure.total_second_moment
        for half_width, threshold in ((3.0, 1e-12), (12.0, 1e-12), (96.0, 1e-2), (96.0, 1e-12)):
            monkeypatch.setattr(spectral, "_DECAY_THRESHOLD", threshold)
            dt = grid_step(measure, half_width)
            ks = np.arange(1, seeded_block(half_width, 16384)[-1] + 1)
            t = ks * dt
            got = np.abs(np.exp(_char_exponents(measure, t)))
            assert np.all(got >= np.exp(-0.5 * sigma2 * t * t) * (1.0 - 1e-9))
            safe = ks <= _safe_index(half_width)
            assert np.all(got[safe] >= math.e * threshold)


class TestPhaseKernel:
    @pytest.mark.parametrize(
        "measure", [RESC43, RESC40, HYP75, LIMIT1, LIMIT2, LIMIT3],
        ids=["resc43", "resc40_21", "hyp75", "limit1", "limit2", "limit3"],
    )
    def test_single_form_equals_the_two_form_where(self, measure, monkeypatch):
        # frequencies from 1e-3 to 3e3 in one block put columns in all
        # three spans and drive the levels past _CHUNK nodes
        calls = []
        real = spectral._phase_kernel

        def record(t, x, top, powers, forced=None):
            calls.append((t, x, top, powers, forced))
            return real(t, x, top, powers, forced)

        monkeypatch.setattr(spectral, "_phase_kernel", record)
        _char_exponents(measure, np.geomspace(1e-3, 3e3, 32))
        assert max(len(c[1]) for c in calls) > spectral._CHUNK
        for t, x, top, powers, forced in calls:
            # the nodes are monotone, as the spans assume
            steps = np.diff(x)
            assert np.all(steps <= 0.0) or np.all(steps >= 0.0)
            mask = np.zeros(len(x), dtype=bool) if forced is None else forced
            want = where_kernel(t, x, top, powers, mask)
            got = _phase_kernel(t, x, top, powers, forced)
            np.testing.assert_array_equal(got, want)
            # a scalar frequency and a negative one take the same forms
            for one in (t[0, 0], -t[-1:]):
                got = _phase_kernel(one, x, top, powers, forced)
                np.testing.assert_array_equal(got, where_kernel(one, x, top, powers, mask))


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_a_deep_block_keeps_its_temporaries_small():
    """32 frequencies near t = 1e4 on rescaled (4,3) refine to level 12,
    whose 25026 new nodes make the block's (32, nodes) complex values
    12.8 MB. Evaluating both kernel forms over the whole block and
    weighting them out of place raised the peak RSS of a fresh
    interpreter by 40.6-41.4 MB; the single-form column chunks and the
    in-place weighting must keep the rise to at most half of 40.6 MB."""
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


class TestCharFunction:
    def test_modulus_bounded_by_one(self):
        for measure in (RESC43, LIMIT2):
            for t in np.linspace(-20.0, 20.0, 17):
                assert abs(char_function(measure, float(t))) <= 1.0 + 1e-12

    def test_unit_at_zero(self):
        assert char_function(RESC43, 0.0) == 1.0 + 0.0j


class TestTaylorRemainderBound:
    def test_frozen_values(self):
        assert math.isclose(taylor_remainder_bound(2, 0.1), 1e-3 / 6.0, rel_tol=1e-15)
        assert taylor_remainder_bound(1, 10.0) == 20.0

    def test_dominates_the_exponential_remainder(self):
        for x in np.linspace(-10.0, 10.0, 10001):
            x = float(x)
            lhs = math.hypot(2.0 * math.sin(0.5 * x) ** 2, x - math.sin(x))
            assert lhs <= taylor_remainder_bound(1, x) * (1.0 + 1e-12) + 1e-300

    def test_validation(self):
        with pytest.raises(DomainError):
            taylor_remainder_bound(0, 1.0)
        with pytest.raises(DomainError):
            taylor_remainder_bound(1.5, 1.0)


class TestInvertToDensity:
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

    def test_validation(self):
        with pytest.raises(DomainError):
            invert_to_density(RESC43, half_width=0.0)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=255)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=258)
        with pytest.raises(DomainError):
            invert_to_density(RESC43, n_points=512.0)

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
