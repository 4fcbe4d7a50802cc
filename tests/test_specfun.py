"""Special-function layer: frozen values, identities, and bound sweeps."""

import json
import math
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
import scipy.special

from conftest import hyplevy_env
from hyplevy import specfun
from hyplevy.errors import ConvergenceError, DomainError
from hyplevy.measures import DimensionPair, log_variance
from hyplevy.specfun import (
    beta,
    beta_dist_stats,
    chebyshev_tail_bound,
    gamma_ratio_log_bounds,
    inc_beta,
    log_beta,
    log_gamma,
    log_gamma_ratio,
    reg_inc_beta,
    reg_upper_gamma,
    stirling_log_bounds,
    taylor_remainder_bound,
    wendel_lower,
)

EPS = 2.0**-52


def log_gamma_terms(x):
    """Sum of the magnitudes of the terms log_gamma(x) adds up: the Stirling
    form at y = x + n >= 10, plus the log of the shift product when n > 0."""
    y = x + max(0, math.ceil(10.0 - x))
    return 1.0 + abs((y - 0.5) * math.log(y)) + y + abs(math.lgamma(y) - math.lgamma(x))


class TestLogGamma:
    def test_integer_and_half_integer_values_are_exact(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == 0.5 * math.log(math.pi)
        assert math.isclose(log_gamma(6.0), math.log(120.0), rel_tol=1e-15)
        assert math.isclose(math.exp(log_gamma(5.0)), 24.0, rel_tol=1e-14)
        # Gamma(7/2) = (15/8) sqrt(pi)
        assert math.isclose(
            log_gamma(3.5), math.log(15.0 / 8.0) + 0.5 * math.log(math.pi), rel_tol=1e-14
        )

    def test_matches_libm_on_generic_arguments(self):
        xs = np.linspace(0.07, 171.0, 400) + 0.0137
        for x in xs:
            ref = math.lgamma(x)
            assert abs(log_gamma(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_matches_libm_on_long_half_integer_ladders(self):
        for x in (100.5, 1000.5, 2000.0, 5000.5):
            ref = math.lgamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-13 * abs(ref)

    def test_matches_mpmath_within_its_term_sizes(self):
        for x in (1100000.5, 1100001.0, 4e6, 0.3, 1.7, 9.99):
            with mpmath.workprec(120):
                ref = float(mpmath.loggamma(mpmath.mpf(x)))
            assert abs(log_gamma(x) - ref) <= 8.0 * EPS * log_gamma_terms(x), x

    def test_reflection_identity(self):
        for x in np.linspace(0.03, 0.97, 41):
            x = float(x)
            lhs = log_gamma(x) + log_gamma(1.0 - x)
            rhs = math.log(math.pi / math.sin(math.pi * x))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_gamma(bad)

    def test_an_overflowing_value_is_a_domain_error(self):
        # x log x passes the largest double near x = 2.56e305: 3e305 gave
        # inf, and 1e308 an OverflowError from floor(2 x) = floor(inf)
        assert math.isfinite(log_gamma(2e305))
        for x in (3e305, 1e308, 1.7976931348623157e308):
            with pytest.raises(DomainError, match="overflows"):
                log_gamma(x)


class TestLogGammaRatio:
    def test_matches_mpmath_for_both_signs_of_a(self):
        # Once z and z + a are both >= 10 the error must scale with the ratio's
        # own terms a log z, not with log Gamma(z); below that the value is a
        # difference of two log_gamma values and carries their rounding.
        for z in np.geomspace(0.05, 4e6, 41):
            z = float(z)
            for a in (0.5, 2.5, 37.0, 0.01 * z, 0.5 * z, 3.0 * z,
                      -0.04, -0.5, -2.5, -0.1 * z, -0.5 * z, -0.999 * z):
                if z + a <= 0.0:
                    continue
                got = log_gamma_ratio(z, a)
                with mpmath.workprec(120):
                    want = float(mpmath.loggamma(mpmath.mpf(z) + mpmath.mpf(a))
                                 - mpmath.loggamma(mpmath.mpf(z)))
                size = 1.0 + abs(a) * (1.0 + abs(math.log(z)))
                if min(z, z + a) < 10.0:
                    size += log_gamma_terms(z) + log_gamma_terms(z + a)
                assert abs(got - want) <= 8.0 * EPS * size, (z, a, got, want)

    def test_exact_values(self):
        assert log_gamma_ratio(3.0, 0.0) == 0.0
        assert log_gamma_ratio(1e6, 0.0) == 0.0
        assert log_gamma_ratio(0.5, 0.5) == -0.5 * math.log(math.pi)
        assert log_gamma_ratio(1.0, 1.0) == 0.0

    def test_domain(self):
        for z, a in ((0.0, 1.0), (-1.0, 3.0), (2.0, -2.0), (2.0, -3.0),
                     (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                log_gamma_ratio(z, a)


_THREAD_SCRIPT = textwrap.dedent(
    """
    import json, sys, threading
    from hyplevy.measures import DimensionPair, log_variance
    from hyplevy.specfun import log_gamma

    xs = [0.5 + 7.0 * i for i in range(int(sys.argv[1]))]
    out = [None] * len(xs)

    def work(t):
        for i in range(t, len(xs), 4):
            x = xs[i]
            d = int(2 * x) + 3
            out[i] = (log_gamma(x), log_variance(DimensionPair(d, d - 1 - i % 3)))

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    print(json.dumps(out))
    """
)


def test_threads_agree_with_a_serial_run():
    """Four threads in a fresh interpreter (more threads than cores, short
    switch interval) return exactly what one thread returns here."""
    xs = [0.5 + 7.0 * i for i in range(28572)]  # half integers up to 2e5, as in the script
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_SCRIPT, str(len(xs))],
        capture_output=True, text=True, env=hyplevy_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    threaded = [tuple(v) for v in json.loads(proc.stdout)]
    serial = []
    for i, x in enumerate(xs):
        d = int(2 * x) + 3
        serial.append((log_gamma(x), log_variance(DimensionPair(d, d - 1 - i % 3))))
    wrong = sum(t != s for t, s in zip(threaded, serial))
    assert wrong == 0, f"{wrong} of {len(xs)} threaded values differ from the serial run"


class TestBeta:
    def test_frozen_values(self):
        assert math.isclose(beta(0.5, 0.5), math.pi, rel_tol=1e-14)
        assert beta(1.0, 1.0) == 1.0
        assert math.isclose(beta(2.0, 3.0), 1.0 / 12.0, rel_tol=1e-14)

    def test_symmetry(self):
        for p, q in ((0.3, 4.5), (2.0, 7.0), (11.5, 0.25)):
            assert math.isclose(log_beta(p, q), log_beta(q, p), rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)

    def test_an_overflowing_value_is_a_domain_error(self):
        # B(p, q) ~ 1/p + 1/q; math.exp raised OverflowError
        with pytest.raises(DomainError, match="overflows"):
            beta(1e-320, 1e-320)


class TestRegIncBeta:
    def test_arcsine_closed_form(self):
        for x in np.linspace(0.01, 0.99, 33):
            x = float(x)
            want = (2.0 / math.pi) * math.asin(math.sqrt(x))
            assert abs(reg_inc_beta(0.5, 0.5, x) - want) <= 1e-12

    def test_extended_domain_conventions(self):
        assert reg_inc_beta(2.0, 3.0, -0.5) == 0.0
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
        assert reg_inc_beta(2.0, 3.0, 7.0) == 1.0

    def test_reflection_symmetry(self):
        shapes = (0.1, 0.5, 2.0, 7.5, 20.0, 50.0)
        xs = np.linspace(0.02, 0.98, 25)
        for p in shapes:
            for q in shapes:
                for x in xs:
                    x = float(x)
                    total = reg_inc_beta(p, q, x) + reg_inc_beta(q, p, 1.0 - x)
                    assert abs(total - 1.0) <= 1e-12

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        for p, q in ((0.5, 0.5), (2.0, 9.0), (12.0, 3.0)):
            vals = np.array([reg_inc_beta(p, q, float(x)) for x in xs])
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_against_scipy(self):
        shapes = np.geomspace(0.5, 40.0, 12)
        xs = np.linspace(0.05, 0.95, 11)
        worst = 0.0
        for p in shapes:
            for q in shapes:
                for x in xs:
                    mine = reg_inc_beta(float(p), float(q), float(x))
                    ref = float(scipy.special.betainc(p, q, x))
                    worst = max(worst, abs(mine - ref))
        assert worst <= 1e-10

    def test_continued_fraction_exhaustion(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations"):
            reg_inc_beta(2.5, 3.5, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, math.nan)

    @pytest.mark.xfail(
        raises=ConvergenceError, strict=True,
        reason="CHANGES.md FOUND (line 123): reg_inc_beta's continued fraction does not "
        "converge from p = q = 1e7 at x = 0.5",
    )
    def test_large_equal_parameters_at_one_half(self):
        # I_(1/2)(p, p) = 1/2 exactly, by the reflection symmetry
        assert abs(reg_inc_beta(1e7, 1e7, 0.5) - 0.5) <= 1e-13

    def test_a_lost_prefactor_is_a_domain_error(self):
        # the prefactor's logs cancel at p = q = 1e200, and their rounding
        # made exp overflow (OverflowError)
        with pytest.raises(DomainError, match="prefactor"):
            reg_inc_beta(1e200, 1e200, 0.5)


class TestRegUpperGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 172.0, 2500.0])
    def test_against_mpmath(self, a):
        # both branches: the series below x = a + 1, the fraction above
        for x in (1e-5, 0.3, 1.0, 6.9, 13.8, 100.0, 0.9 * a, a, 1.2 * a, 3.0 * a + 50.0):
            want = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            assert math.isclose(reg_upper_gamma(a, x), float(want), rel_tol=1e-11), x

    @pytest.mark.xfail(
        raises=ConvergenceError, strict=True,
        reason="CHANGES.md FOUND (line 130): reg_upper_gamma near x = a raises "
        "ConvergenceError from a ~ 5500 on (a = x = 1e4 does)",
    )
    def test_near_the_transition_at_large_a(self):
        want = mpmath.gammainc(1e4, 1e4, mpmath.inf, regularized=True)
        assert math.isclose(reg_upper_gamma(1e4, 1e4), float(want), rel_tol=1e-11)

    def test_endpoints_and_domain(self):
        assert reg_upper_gamma(2.5, 0.0) == 1.0
        assert reg_upper_gamma(2.5, 1e6) == 0.0
        for a, x in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, -0.5), (1.0, math.nan)):
            with pytest.raises(DomainError):
                reg_upper_gamma(a, x)

    def test_exhaustion(self, monkeypatch):
        # near x = a the steps grow as sqrt(a); at a = x = 1e20 the fraction's
        # first denominator x + 1 - a rounds to 0, which is no ZeroDivisionError
        for a in (1e4, 1e20):
            with pytest.raises(ConvergenceError, match="in 500 iterations"):
                reg_upper_gamma(a, a)
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 1)
        for x in (0.3, 30.0):
            with pytest.raises(ConvergenceError, match="in 1 iterations"):
                reg_upper_gamma(2.5, x)


class TestIncBeta:
    def test_frozen_value(self):
        assert math.isclose(inc_beta(0.5, 0.5, 0.5), 0.5 * math.pi, rel_tol=1e-12)

    def test_endpoints(self):
        assert inc_beta(2.0, 5.0, 0.0) == 0.0
        assert math.isclose(inc_beta(2.0, 5.0, 1.0), beta(2.0, 5.0), rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            inc_beta(2.0, 5.0, -0.1)
        with pytest.raises(DomainError):
            inc_beta(2.0, 5.0, 1.1)


class TestBetaDistStats:
    def test_frozen_values(self):
        mean, var = beta_dist_stats(2.0, 3.0)
        assert mean == 0.4
        assert math.isclose(var, 0.04, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_dist_stats(-1.0, 2.0)
        # an overflowing p + q gave a nan variance
        for bad in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1e308, 1e308)):
            with pytest.raises(DomainError):
                beta_dist_stats(*bad)

    def test_extreme_shapes_give_finite_stats(self):
        # p q or (p + q)^3 overflowed (a nan variance), and subnormal
        # shapes divided 0 by 0
        mean, var = beta_dist_stats(2.0, 1e308)
        assert mean == 2e-308 and var == 0.0
        assert beta_dist_stats(5e-324, 5e-324) == (0.5, 0.25)
        mean, var = beta_dist_stats(1e150, 3e150)
        assert mean == 0.25 and math.isclose(var, 0.1875 / 4e150, rel_tol=1e-15)


class TestChebyshevTail:
    def test_frozen_values(self):
        assert chebyshev_tail_bound(2.0, 3.0, 0.2) == ("below", 2.0)
        assert chebyshev_tail_bound(2.0, 3.0, 0.8) == ("above", 0.5)

    def test_undefined_at_the_mean(self):
        with pytest.raises(DomainError):
            chebyshev_tail_bound(2.0, 3.0, 0.4)

    def test_nan_point_is_a_domain_error(self):
        # nan compares false with the mean on both sides, which read as "above"
        with pytest.raises(DomainError):
            chebyshev_tail_bound(1.0, 1.0, math.nan)

    def test_non_finite_arguments_are_domain_errors(self):
        bad_args = ((math.inf, 1.0, 0.5), (1.0, math.inf, 0.5), (1.0, 1.0, math.inf), (1e308, 1e308, 0.25))
        for bad in bad_args:
            with pytest.raises(DomainError):
                chebyshev_tail_bound(*bad)

    def test_extreme_shapes_need_no_division_by_zero(self):
        # the mean 5e-324 / 2 underflows to 0, and p t^2 to 0 near the
        # mean: both raised ZeroDivisionError
        assert chebyshev_tail_bound(5e-324, 2.0, 5e-324) == ("above", 0.0)
        assert chebyshev_tail_bound(5e-324, 2.0, -1.0) == ("below", 0.0)
        assert chebyshev_tail_bound(5e-324, 5e-324, 0.5 + 2.0**-53) == ("above", 0.0)

    def test_dominates_the_cdf(self):
        # below the mean the bound caps I_x from above, past it from below
        for p, q in ((1.5, 4.0), (3.0, 3.0), (8.0, 2.0)):
            mu = p / (p + q)
            for x in np.linspace(0.02, 0.98, 49):
                x = float(x)
                if abs(x - mu) < 1e-9:
                    continue
                kind, bound = chebyshev_tail_bound(p, q, x)
                cdf = reg_inc_beta(p, q, x)
                if kind == "below":
                    assert cdf <= bound + 1e-12
                else:
                    assert cdf >= bound - 1e-12


class TestGammaRatioBounds:
    def test_frozen_values(self):
        lo, hi = gamma_ratio_log_bounds(2.0, 1.0)
        assert lo == 0.0
        assert math.isclose(hi, math.log(3.0), rel_tol=1e-15)
        assert lo <= math.lgamma(3.0) <= hi
        lo, hi = gamma_ratio_log_bounds(5.0, 0.0)
        assert lo == hi == log_gamma(5.0)
        lo, hi = gamma_ratio_log_bounds(1.0, 2.0)
        assert lo == -math.inf and math.isfinite(hi)

    def test_brackets_the_true_value(self):
        for p in np.linspace(1.0, 40.0, 27):
            for q in np.linspace(0.0, 15.0, 16):
                lo, hi = gamma_ratio_log_bounds(float(p), float(q))
                truth = math.lgamma(p + q)
                assert lo - 1e-12 <= truth <= hi + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio_log_bounds(0.5, 1.0)
        with pytest.raises(DomainError):
            gamma_ratio_log_bounds(2.0, -0.1)
        for bad in ((math.inf, 1.0), (2.0, math.inf), (2.0, math.nan)):
            with pytest.raises(DomainError):
                gamma_ratio_log_bounds(*bad)
        with pytest.raises(DomainError):  # log Gamma(p) overflows
            gamma_ratio_log_bounds(1e308, 1.0)


class TestStirlingBounds:
    def test_brackets_gamma(self):
        for z in np.linspace(1.0, 300.0, 1200):
            lo, hi = stirling_log_bounds(float(z))
            truth = log_gamma(float(z))
            assert lo - 1e-12 <= truth <= hi + 1e-12

    def test_frozen_value(self):
        lo, hi = stirling_log_bounds(10.0)
        assert lo <= math.log(362880.0) <= hi
        assert math.isclose(hi - lo, 1.0 / 120.0, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling_log_bounds(0.99)
        with pytest.raises(DomainError):  # was nan for both logs
            stirling_log_bounds(math.inf)


class TestWendelLower:
    def test_frozen_value(self):
        assert wendel_lower(4.0, 0.5) == 2.0
        assert wendel_lower(4.0, 0.5) <= math.exp(log_gamma(5.0) - log_gamma(4.5)) + 1e-15

    def test_equality_at_the_corners(self):
        assert wendel_lower(3.7, 1.0) == 1.0
        ratio = math.exp(log_gamma(4.7) - log_gamma(3.7))
        assert abs(wendel_lower(3.7, 0.0) - ratio) <= 1e-12 * ratio

    def test_bounds_the_ratio(self):
        for z in np.geomspace(0.02, 60.0, 40):
            for t in np.linspace(0.0, 1.0, 21):
                z, t = float(z), float(t)
                ratio = math.exp(log_gamma(z + 1.0) - log_gamma(z + t))
                assert wendel_lower(z, t) <= ratio * (1.0 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            wendel_lower(-0.1, 0.5)
        with pytest.raises(DomainError):
            wendel_lower(1.0, 1.5)
        with pytest.raises(DomainError):  # was inf
            wendel_lower(math.inf, 0.5)


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
        with pytest.raises(DomainError):  # not min() of two nan bounds, nan
            taylor_remainder_bound(2, math.nan)
        with pytest.raises(DomainError):
            taylor_remainder_bound(2, math.inf)

    def test_a_bound_past_the_largest_double_is_a_domain_error(self):
        # 2 x^2 / 2 = 1e400; x ** 3 raised OverflowError
        with pytest.raises(DomainError, match="overflows"):
            taylor_remainder_bound(2, 1e200)

    def test_the_log_form_where_a_term_or_a_factorial_overflows(self):
        # x^2 overflows, the smaller term 2 x does not
        assert math.isclose(taylor_remainder_bound(1, 1e155), 2e155, rel_tol=1e-13)
        # 171! is no double; the log form never builds a factorial, so a
        # large order costs no more than a small one
        assert math.isclose(
            taylor_remainder_bound(180, 30.0),
            float(mpmath.mpf(30) ** 181 / mpmath.factorial(181)),
            rel_tol=1e-12,
        )
        assert taylor_remainder_bound(10**6, 0.5) == 0.0
        assert taylor_remainder_bound(10**6, 0.0) == 0.0
