"""Threshold statistic, tail-variance functional, sequence classification."""

import math

import numpy as np
import pytest

from conftest import admissible_pairs, pair_moment_oracle
from hyplevy.errors import DomainError, InadmissiblePairError
import hyplevy
from hyplevy.measures import DimensionPair, log_variance
from hyplevy.pairs import is_admissible, variance
from hyplevy.regime import (
    E_TIMES_PI,
    ExplicitFamily,
    FixedCodimensionFamily,
    PowerLawFamily,
    classify_sequence,
    probe_regime,
    tail_second_moment,
    threshold_stat,
)
from hyplevy.specfun import reg_inc_beta


class TestThresholdStat:
    def test_frozen_value(self):
        assert abs(threshold_stat(DimensionPair(7, 5)) - 0.37700226022082693) <= 1e-12

    def test_reduces_to_inverse_dimension_when_r_is_one(self):
        for d, k in ((4, 3), (6, 4), (10, 6)):
            pair = DimensionPair(d, k)
            assert pair.r == 1
            assert math.isclose(threshold_stat(pair), 1.0 / d, rel_tol=1e-15)

    def test_comparison_constant(self):
        assert E_TIMES_PI == math.e * math.pi

    def test_admissible_reexport(self):
        assert hyplevy.is_admissible is is_admissible
        assert is_admissible(7, 5) and not is_admissible(7, 4)


class TestTailSecondMoment:
    def test_frozen_value(self):
        val = tail_second_moment(DimensionPair(4, 3), 0.1)
        assert abs(val - 0.7233548139716148) <= 1e-12

    def test_zero_once_cutoff_leaves_support(self):
        pair = DimensionPair(4, 3)  # sigma = sqrt(pi) > 1
        assert tail_second_moment(pair, 1.0) == 0.0
        assert tail_second_moment(pair, 0.6) == 0.0

    def test_tends_to_one_for_small_cutoffs(self):
        # the leftover mass decays like a slow power of the cutoff (exponent
        # 2/(k-1)), so a very deep cutoff is needed to get under 1e-9
        for d, k in ((4, 3), (9, 6), (15, 9)):
            assert tail_second_moment(DimensionPair(d, k), 1e-60) > 1.0 - 1e-9

    def test_bounded_and_nonincreasing_in_epsilon(self):
        eps = np.geomspace(1e-6, 2.0, 80)
        for d, k in ((4, 3), (8, 5), (13, 8), (26, 15)):
            pair = DimensionPair(d, k)
            vals = np.array([tail_second_moment(pair, float(e)) for e in eps])
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) <= 1e-15)

    def test_two_incomplete_beta_forms_agree(self):
        # I(p, q; y) and 1 - I(q, p; 1-y) are the same number
        for d, k in ((4, 3), (7, 5), (14, 9), (23, 13)):
            pair = DimensionPair(d, k)
            sigma = math.exp(0.5 * log_variance(pair))
            for eps in (1e-3, 0.05, 0.3):
                y = (sigma * eps) ** pair.u_power
                if y >= 1.0:
                    continue
                direct = tail_second_moment(pair, eps)
                other = reg_inc_beta(0.5 * pair.codim, 0.5 * pair.r, 1.0 - y)
                assert abs(direct - other) <= 1e-12

    def test_matches_tail_quadrature(self):
        for d, k in ((4, 3), (7, 5), (16, 10), (33, 18)):
            pair = DimensionPair(d, k)
            sigma = math.sqrt(variance(pair))
            for eps in (0.01, 0.1, 0.3):
                cut = sigma * eps
                if cut >= 1.0:
                    continue
                want = pair_moment_oracle(d, k, 2, lo=cut) / variance(pair)
                got = tail_second_moment(pair, eps)
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (d, k, eps)

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_second_moment(DimensionPair(4, 3), 0.0)
        with pytest.raises(DomainError):
            tail_second_moment(DimensionPair(4, 3), -0.1)


class TestFixedCodimensionFamily:
    def test_realization(self):
        fam = FixedCodimensionFamily(b=2)
        assert fam.realize(4) == DimensionPair(6, 4)
        assert fam.realize(100) == DimensionPair(102, 100)

    def test_inadmissible_index_is_tagged(self):
        fam = FixedCodimensionFamily(b=2)
        with pytest.raises(InadmissiblePairError, match="n=1"):
            fam.realize(1)

    def test_validation(self):
        with pytest.raises(DomainError):
            FixedCodimensionFamily(b=0)
        with pytest.raises(DomainError):
            FixedCodimensionFamily(b=1.5)


class TestPowerLawFamily:
    def test_small_dimensions_clamp_into_the_admissible_window(self):
        fam = PowerLawFamily(gamma=1.0, beta=0.7)
        assert fam.realize(1) == DimensionPair(4, 3)
        floor_fam = PowerLawFamily(gamma=1.0, beta=0.7, rounding="floor")
        assert floor_fam.realize(1) == DimensionPair(4, 3)

    def test_unclamped_region_follows_the_power_law(self):
        fam = PowerLawFamily(gamma=1.0, beta=0.3)
        pair = fam.realize(5)  # d = 20, raw k = 10 + 20^0.3
        assert pair.d == 20
        assert pair.k == math.ceil(10.0 + 20.0**0.3)

    def test_every_realized_pair_is_admissible(self):
        for gamma, beta, rounding in (
            (1.0, 0.3, "ceil"),
            (1.0, 0.7, "floor"),
            (2.5, 0.5, "ceil"),
            (0.1, 0.9, "floor"),
        ):
            fam = PowerLawFamily(gamma=gamma, beta=beta, rounding=rounding)
            for n in range(1, 120):
                pair = fam.realize(n)
                assert is_admissible(pair.d, pair.k)

    @pytest.mark.parametrize("gamma", [math.inf, 1e308])
    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_an_infinite_raw_k_clamps_to_the_top(self, gamma, rounding):
        # d/2 + gamma d^beta is inf; any raw k >= d clamps to d - 1
        fam = PowerLawFamily(gamma=gamma, beta=0.5, rounding=rounding)
        assert fam.realize(1) == DimensionPair(4, 3)
        assert fam.realize(2) == DimensionPair(8, 7)
        verdict = classify_sequence(fam)
        assert (verdict.label, verdict.threshold_limit) == ("degenerate", math.inf)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7])
    def test_an_infinite_gamma_is_degenerate_for_every_beta(self, beta):
        # k = d - 1 at every d is a codimension-1 sequence, whatever beta
        fam = PowerLawFamily(gamma=math.inf, beta=beta)
        assert [fam.realize(n) for n in (1, 10, 1000)] == [
            DimensionPair(4, 3), DimensionPair(40, 39), DimensionPair(4000, 3999)
        ]
        verdict = classify_sequence(fam)
        assert (verdict.label, verdict.threshold_limit) == ("degenerate", math.inf)

    def test_no_admissible_pair_below_dimension_four(self):
        fam = PowerLawFamily(gamma=1.0, beta=0.5, d_step=1)
        with pytest.raises(InadmissiblePairError, match="n=3"):
            fam.realize(3)
        assert fam.realize(4).d == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            PowerLawFamily(gamma=0.0, beta=0.5)
        with pytest.raises(DomainError):
            PowerLawFamily(gamma=1.0, beta=0.0)
        with pytest.raises(DomainError):
            PowerLawFamily(gamma=1.0, beta=1.0)
        with pytest.raises(DomainError):
            PowerLawFamily(gamma=1.0, beta=0.5, d_step=0)
        with pytest.raises(DomainError):
            PowerLawFamily(gamma=1.0, beta=0.5, rounding="trunc")


class TestExplicitFamily:
    def test_indexing(self):
        fam = ExplicitFamily(pairs=(DimensionPair(4, 3), DimensionPair(7, 5)))
        assert fam.realize(1) == DimensionPair(4, 3)
        assert fam.realize(2) == DimensionPair(7, 5)
        with pytest.raises(DomainError):
            fam.realize(0)
        with pytest.raises(DomainError):
            fam.realize(3)

    def test_empty_list_is_rejected(self):
        with pytest.raises(DomainError):
            ExplicitFamily(pairs=())


class TestClassifySequence:
    def test_power_law_subcritical_growth_is_gaussian(self):
        verdict = classify_sequence(PowerLawFamily(gamma=1.0, beta=0.3))
        assert verdict.label == "gaussian"
        assert verdict.threshold_limit == 0.0

    def test_power_law_supercritical_growth_is_degenerate(self):
        verdict = classify_sequence(PowerLawFamily(gamma=1.0, beta=0.7))
        assert verdict.label == "degenerate"
        assert verdict.threshold_limit == math.inf

    def test_critical_exponent_compares_against_e_pi(self):
        low = classify_sequence(PowerLawFamily(gamma=1.0, beta=0.5))
        assert low.label == "gaussian"
        assert low.threshold_limit == 4.0
        high = classify_sequence(PowerLawFamily(gamma=2.0, beta=0.5))
        assert high.label == "degenerate"
        assert high.threshold_limit == 16.0
        knife = classify_sequence(
            PowerLawFamily(gamma=0.5 * math.sqrt(E_TIMES_PI), beta=0.5)
        )
        assert knife.label == "indeterminate"

    def test_verdict_does_not_depend_on_rounding(self):
        for gamma, beta in ((1.0, 0.3), (1.0, 0.7), (0.7, 0.5), (3.0, 0.5)):
            ceil_v = classify_sequence(PowerLawFamily(gamma=gamma, beta=beta))
            floor_v = classify_sequence(
                PowerLawFamily(gamma=gamma, beta=beta, rounding="floor")
            )
            assert ceil_v.label == floor_v.label

    def test_fixed_codimension_is_degenerate(self):
        verdict = classify_sequence(FixedCodimensionFamily(b=3))
        assert verdict.label == "degenerate"
        assert verdict.threshold_limit == 1.0

    def test_explicit_tail_ratios_above_half_are_degenerate(self):
        fam = ExplicitFamily(
            pairs=tuple(DimensionPair(d, d - 2) for d in (12, 14, 16, 18))
        )
        assert classify_sequence(fam).label == "degenerate"

    def test_explicit_small_threshold_near_half_is_gaussian(self):
        # ratios 13/24, 15/28, 17/32 sit strictly inside the near-half band;
        # a ratio of exactly 0.55 would land on the band edge and fall to
        # indeterminate under float rounding
        fam = ExplicitFamily(
            pairs=(DimensionPair(24, 13), DimensionPair(28, 15), DimensionPair(32, 17))
        )
        assert classify_sequence(fam).label == "gaussian"

    def test_explicit_large_threshold_near_half_is_degenerate(self):
        fam = ExplicitFamily(
            pairs=(
                DimensionPair(10000, 5200),
                DimensionPair(10400, 5408),
                DimensionPair(10800, 5616),
            )
        )
        assert classify_sequence(fam, margin=0.05).label == "degenerate"

    def test_explicit_mixed_list_is_indeterminate(self):
        fam = ExplicitFamily(pairs=(DimensionPair(4, 3), DimensionPair(40, 21)))
        assert classify_sequence(fam).label == "indeterminate"

    def test_margin_validation(self):
        fam = FixedCodimensionFamily(b=2)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                classify_sequence(fam, margin=bad)


class TestProbeRegime:
    def test_rows_and_verdict(self):
        fam = PowerLawFamily(gamma=1.0, beta=0.7)
        table = probe_regime(fam, [1, 3], [0.1, 0.5])
        assert len(table.rows) == 4
        assert [(row.n, row.epsilon) for row in table.rows] == [
            (1, 0.1),
            (1, 0.5),
            (3, 0.1),
            (3, 0.5),
        ]
        for row in table.rows:
            pair = DimensionPair(row.d, row.k)
            assert row.r == pair.r
            assert math.isclose(row.sigma**2, variance(pair), rel_tol=1e-13)
            assert math.isclose(
                row.threshold_stat, threshold_stat(pair), rel_tol=1e-15
            )
            assert row.tail_second_moment == tail_second_moment(pair, row.epsilon)
        assert table.verdict.label == "degenerate"

    def test_needs_at_least_one_epsilon(self):
        with pytest.raises(DomainError):
            probe_regime(FixedCodimensionFamily(b=2), [4, 5], [])

    def test_inadmissible_index_propagates(self):
        with pytest.raises(InadmissiblePairError, match="n=1"):
            probe_regime(FixedCodimensionFamily(b=2), [1], [0.1])


class TestTailProbabilityTrends:
    """Limits of I_x(p, q) along moving-parameter sequences."""

    def test_fixed_shape_with_cutoff_far_above_the_mean(self):
        # p = 1, q = n, x_n = (1+n)^(-1/2): x_n / mean -> infinity
        ns = [4, 16, 64, 256, 1024]
        vals = [reg_inc_beta(1.0, float(n), (1.0 + n) ** -0.5) for n in ns]
        assert vals[-1] > 0.999
        assert abs(1.0 - vals[-1]) < 0.5 * abs(1.0 - vals[0])

    def test_growing_shapes_with_cutoff_above_the_mean(self):
        ns = [4, 16, 64, 256]
        vals = [reg_inc_beta(float(n), float(n), 0.75) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 - 1e-6
        assert abs(1.0 - vals[-1]) < 0.5 * abs(1.0 - vals[0])

    def test_growing_shapes_with_cutoff_below_the_mean(self):
        ns = [4, 16, 64, 256]
        vals = [reg_inc_beta(float(n), float(n), 0.25) for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6
        assert abs(vals[-1]) < 0.5 * abs(vals[0])
