"""Levy measures: admissibility, densities, exact moments, the codimension limit."""

import math

import mpmath
import numpy as np
import pytest

from conftest import admissible_pairs, limit_moment_oracle, pair_moment_oracle
from hyplevy.errors import DomainError, InadmissiblePairError
from hyplevy.measures import (
    DimensionPair,
    LevyMeasure1D,
    LimitShape,
    PairShape,
    codim_limit_cumulant,
    codim_limit_density,
    levy_density,
    log_variance,
    make_measure,
    normalized_density,
)
from hyplevy.pairs import cumulant, is_admissible, sphere_surface, variance


class TestAdmissibility:
    def test_truth_table(self):
        assert is_admissible(4, 3)
        assert is_admissible(5, 4)
        assert is_admissible(6, 4)
        assert is_admissible(7, 5)
        assert not is_admissible(4, 2)
        assert not is_admissible(5, 3)  # 2k = d + 1 exactly, still excluded
        assert not is_admissible(7, 4)
        assert not is_admissible(3, 2)
        assert not is_admissible(4, 4)  # k = d
        assert not is_admissible(2, 1)

    def test_non_integers_are_rejected(self):
        assert not is_admissible(4.0, 3)
        assert not is_admissible(4, 3.0)

    def test_pair_construction(self):
        with pytest.raises(InadmissiblePairError):
            DimensionPair(4, 2)
        with pytest.raises(InadmissiblePairError):
            DimensionPair(5, 5)
        pair = DimensionPair(7, 5)
        assert pair.r == 2
        assert pair.codim == 2
        assert pair.alpha == 1.5
        assert pair.u_power == 0.5

    def test_small_jump_index_always_in_one_two(self):
        for d, k in admissible_pairs(40):
            alpha = DimensionPair(d, k).alpha
            assert 1.0 < alpha < 2.0


class TestSphereSurface:
    def test_frozen_values(self):
        assert math.isclose(sphere_surface(1), 2.0, rel_tol=1e-14)
        assert math.isclose(sphere_surface(2), 2.0 * math.pi, rel_tol=1e-14)
        assert math.isclose(sphere_surface(3), 4.0 * math.pi, rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_surface(0.0)


class TestPairDensity:
    def test_frozen_values(self):
        # codimension 1: x^(-5/2) (1-x)^(-1/2), unit front factor
        want = 64.0 / math.sqrt(3.0)
        assert math.isclose(levy_density(DimensionPair(4, 3), 0.25), want, rel_tol=1e-13)
        # codimension 2: the (1 - x^(2/(k-1))) factor drops out entirely
        pair = DimensionPair(7, 5)
        want = 0.5 * math.pi * 2.0**2.5
        assert math.isclose(levy_density(pair, 0.5), want, rel_tol=1e-13)

    def test_zero_outside_support(self):
        pair = DimensionPair(6, 4)
        assert levy_density(pair, 0.0) == 0.0
        assert levy_density(pair, 1.0) == 0.0
        assert levy_density(pair, -0.5) == 0.0
        assert levy_density(pair, 2.0) == 0.0

    def test_scalar_and_array_modes(self):
        pair = DimensionPair(6, 4)
        xs = np.array([-1.0, 0.3, 0.7, 1.5])
        vals = levy_density(pair, xs)
        assert vals.shape == (4,)
        assert vals[0] == 0.0 and vals[3] == 0.0
        assert isinstance(levy_density(pair, 0.3), float)
        assert vals[1] == levy_density(pair, 0.3)

    def test_stable_near_the_right_endpoint(self):
        # codimension 1 diverges like (1-x)^(-1/2); the log1p/expm1 route
        # must track it down to the last representable point below 1
        pair = DimensionPair(4, 3)
        x = np.nextafter(1.0, 0.0)
        val = levy_density(pair, float(x))
        want = x ** (-2.5) / math.sqrt(1.0 - x)
        assert math.isclose(val, want, rel_tol=1e-7)
        assert np.isfinite(val)

    def test_normalized_density_ratio(self):
        pair = DimensionPair(4, 3)
        x = 0.37
        assert math.isclose(
            normalized_density(pair, x) * variance(pair),
            levy_density(pair, x),
            rel_tol=1e-13,
        )


class TestExactMoments:
    def test_variance_trio(self):
        assert math.isclose(variance(DimensionPair(4, 3)), math.pi, rel_tol=1e-14)
        assert math.isclose(variance(DimensionPair(6, 4)), 2.0 * math.pi, rel_tol=1e-14)
        assert math.isclose(variance(DimensionPair(7, 5)), math.pi, rel_tol=1e-14)

    def test_log_variance_consistency(self):
        for d, k in ((4, 3), (9, 6), (17, 12), (33, 20)):
            pair = DimensionPair(d, k)
            assert math.isclose(math.log(variance(pair)), log_variance(pair), rel_tol=1e-14)

    def test_log_variance_matches_mpmath_to_1e_14_along_fixed_codimension(self):
        # log sigma^2 = ((d-k)/2) log pi + log Gamma(r/2) - log Gamma((k-1)/2);
        # the two log-Gamma values reach 6.6e6 at d = 1e6, the difference stays O(log d)
        for b in (1, 2, 3):
            for d in (2 * b + 2, 12, 21, 100, 502, 5000, 62837, 100007, 400001, 10**6):
                pair = DimensionPair(d, d - b)
                with mpmath.workprec(120):
                    want = float(
                        b * mpmath.log(mpmath.pi) / 2
                        + mpmath.loggamma(mpmath.mpf(pair.r) / 2)
                        - mpmath.loggamma(mpmath.mpf(pair.k - 1) / 2)
                    )
                assert abs(log_variance(pair) - want) <= 1e-14, (b, d)

    def test_third_cumulant_frozen(self):
        assert math.isclose(cumulant(DimensionPair(4, 3), 3), 0.5 * math.pi, rel_tol=1e-14)

    def test_second_cumulant_is_the_variance(self):
        for d, k in ((4, 3), (7, 5), (12, 8), (25, 16)):
            pair = DimensionPair(d, k)
            assert math.isclose(cumulant(pair, 2), variance(pair), rel_tol=1e-14)

    def test_order_validation(self):
        pair = DimensionPair(4, 3)
        with pytest.raises(DomainError):
            cumulant(pair, 1)
        with pytest.raises(DomainError):
            cumulant(pair, 0)
        with pytest.raises(DomainError):
            cumulant(pair, 2.5)

    def test_moments_match_direct_quadrature(self):
        # the closed forms come from a Beta reduction; the oracle integrates
        # the density in x with no shared identities
        for d, k in ((4, 3), (7, 5), (12, 7), (31, 17), (60, 31)):
            for m in range(2, 7):
                want = pair_moment_oracle(d, k, m)
                got = cumulant(DimensionPair(d, k), m)
                assert math.isclose(got, want, rel_tol=1e-9), (d, k, m)

    def test_rescaled_second_moment_is_one(self):
        for d, k in ((4, 3), (7, 5), (18, 11)):
            ratio = pair_moment_oracle(d, k, 2) / variance(DimensionPair(d, k))
            assert math.isclose(ratio, 1.0, rel_tol=1e-9)


class TestCodimLimit:
    def test_density_frozen_values(self):
        assert math.isclose(codim_limit_density(2, 0.3), 0.3**-2, rel_tol=1e-14)
        x = math.exp(-1.0)
        want = math.exp(2.0) / math.sqrt(math.pi)
        assert math.isclose(codim_limit_density(1, x), want, rel_tol=1e-13)
        want = 0.25**-2 * (-math.log(0.25))
        assert math.isclose(codim_limit_density(4, 0.25), want, rel_tol=1e-13)

    def test_density_zero_outside_support(self):
        assert codim_limit_density(2, 0.0) == 0.0
        assert codim_limit_density(2, 1.0) == 0.0
        assert codim_limit_density(3, 1.7) == 0.0

    def test_unit_second_moment(self):
        for b in (1, 2, 3, 4):
            assert math.isclose(limit_moment_oracle(b, 2), 1.0, rel_tol=1e-9)

    def test_cumulants_closed_form(self):
        assert codim_limit_cumulant(2, 2) == 1.0
        assert codim_limit_cumulant(2, 3) == 0.5
        assert math.isclose(codim_limit_cumulant(2, 4), 1.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(codim_limit_cumulant(1, 5), 0.5, rel_tol=1e-15)

    def test_cumulants_match_quadrature(self):
        for b in (1, 2, 3, 4):
            for m in range(2, 7):
                want = limit_moment_oracle(b, m)
                got = codim_limit_cumulant(b, m)
                assert math.isclose(got, want, rel_tol=1e-9), (b, m)

    def test_validation(self):
        with pytest.raises(DomainError):
            codim_limit_density(0, 0.5)
        with pytest.raises(DomainError):
            codim_limit_density(1.5, 0.5)
        with pytest.raises(DomainError):
            codim_limit_cumulant(2, 1)

    def test_pointwise_convergence_of_rescaled_pairs(self):
        # growing dimension at fixed codimension drives the unit-variance
        # density to the limit family's on any interior grid
        xs = np.array([0.2, 0.5, 0.8])
        for b in (1, 2):
            target = codim_limit_density(b, xs)
            errs = []
            for k in (10, 20, 40, 80, 160):
                got = normalized_density(DimensionPair(k + b, k), xs)
                errs.append(float(np.max(np.abs(got - target))))
            # the b = 1 column sits at 11% of its start by k = 80 and only
            # clears the bar at k = 160
            assert errs[-1] < 0.1 * errs[0]
            assert errs == sorted(errs, reverse=True)


class TestMakeMeasure:
    def test_hyperbolic_metadata(self):
        m = make_measure("hyperbolic", DimensionPair(4, 3))
        assert m.family == "hyperbolic"
        # the metadata is the shape's: the pair, the small-jump index and
        # the power of the endpoint factor
        assert m.shape.pair == DimensionPair(4, 3)
        assert m.shape.codim == 1
        assert m.shape.alpha == 1.5
        assert m.shape.end_power == -0.5
        assert math.isclose(m.total_second_moment, math.pi, rel_tol=1e-14)
        assert math.isclose(m.density(0.25), 64.0 / math.sqrt(3.0), rel_tol=1e-13)
        assert m.shape == PairShape(DimensionPair(4, 3)) and m.log_weight == 0.0

    def test_rescaled_metadata(self):
        m = make_measure("rescaled", DimensionPair(4, 3))
        assert m.total_second_moment == 1.0
        assert m.shape == PairShape(DimensionPair(4, 3))
        assert m.log_weight == -log_variance(DimensionPair(4, 3))
        assert math.isclose(
            m.density(0.5) * math.pi, levy_density(DimensionPair(4, 3), 0.5), rel_tol=1e-13
        )

    def test_limit_metadata(self):
        m = make_measure("limit", 3)
        assert m.family == "limit"
        assert m.shape.codim == 3
        assert m.shape.alpha == 1.0
        assert m.shape.end_power == 0.5
        assert m.total_second_moment == 1.0
        assert m.shape == LimitShape(3) and m.log_weight == 0.0

    # (kind, param, family, total_second_moment, density at DERIVED_XS) of
    # the measures as they were built when these three were stored fields
    DERIVED_XS = (1e-300, 1e-3, 0.25, 0.5, 0.9, 1 - 1e-12)
    DERIVED = [
        ("hyperbolic", (4, 3), "0x1.921fb54442d18p+1",
         ("inf", "0x1.e2c447dbc1309p+24", "0x1.279a74590331cp+5", "0x1.ffffffffffffep+2",
          "0x1.075fde49beaeep+2", "0x1.e84961f416e73p+19")),
        ("rescaled", (4, 3), "0x1.0000000000000p+0",
         ("inf", "0x1.3356be3d69b3fp+23", "0x1.785fb53dcdc18p+3", "0x1.45f306dc9c883p+1",
          "0x1.4f56bc42d5b75p+0", "0x1.36da5a0caed93p+18")),
        ("hyperbolic", (7, 5), "0x1.921fb54442d18p+1",
         ("inf", "0x1.7af976aa1c07cp+25", "0x1.921fb54442d19p+5", "0x1.1c5831add62e4p+3",
          "0x1.05a6d64c04bafp+1", "0x1.921fb5444722dp+0")),
        ("rescaled", (7, 5), "0x1.0000000000000p+0",
         ("inf", "0x1.e286789a07f1bp+23", "0x1.fffffffffffffp+3", "0x1.6a09e667f3bccp+1",
          "0x1.4d25326f508cap-1", "0x1.0000000002bfbp-1")),
        ("limit", 1, "0x1.0000000000000p+0",
         ("inf", "0x1.a34359e09b70ap+17", "0x1.eaadc5a5bb298p+2", "0x1.5af6599bd6134p+1",
          "0x1.12ab7e9e97c4bp+1", "0x1.137c7a5ed1181p+19")),
        ("limit", 3, "0x1.0000000000000p+0",
         ("inf", "0x1.6a0556a0217dbp+21", "0x1.541cd4fa36c63p+4", "0x1.e0fdec495104cp+1",
          "0x1.cf07a0da2e8e0p-2", "0x1.2ee4c4ab709c5p-20")),
    ]

    @pytest.mark.parametrize(
        "kind, param, moment, density", DERIVED,
        ids=["hyp43", "resc43", "hyp75", "resc75", "limit1", "limit3"],
    )
    def test_derived_values_are_the_stored_ones(self, kind, param, moment, density):
        m = make_measure(kind, DimensionPair(*param) if kind != "limit" else param)
        assert m.family == kind
        assert m.total_second_moment == float.fromhex(moment)
        got = m.density(np.array(self.DERIVED_XS))
        assert [float(v) for v in got] == [float.fromhex(v) for v in density]
        assert [m.density(x) for x in self.DERIVED_XS] == list(got)

    def test_a_measure_is_its_shape_and_weight(self):
        shape = PairShape(DimensionPair(4, 3))
        with pytest.raises(DomainError):
            LevyMeasure1D(None)
        with pytest.raises(DomainError):
            LevyMeasure1D(shape, math.nan)
        with pytest.raises(DomainError):
            LevyMeasure1D(shape, math.inf)
        assert LevyMeasure1D(shape) == make_measure("hyperbolic", DimensionPair(4, 3))

    def test_validation(self):
        with pytest.raises(DomainError):
            make_measure("cauchy", DimensionPair(4, 3))
        with pytest.raises(DomainError):
            make_measure("hyperbolic", 4)
        with pytest.raises(DomainError):
            make_measure("limit", 0)
