"""Jump-size quantiles, partial moments, and the compensated Monte Carlo sampler."""

import math
import time

import numpy as np
import pytest

from conftest import cached_density
from hyplevy import sampler
from hyplevy.errors import (
    ConvergenceError,
    DivergentMomentError,
    DomainError,
    SamplerConfigError,
)
from hyplevy.measures import DimensionPair, cumulant, make_measure, variance
from hyplevy.regime import tail_second_moment
from hyplevy.sampler import (
    SamplerConfig,
    empirical_cumulants,
    inverse_jump_cdf,
    partial_moment,
    sample,
    tail_mass,
)
from hyplevy.spectral import ks_distance_sample

HYP43 = make_measure("hyperbolic", DimensionPair(4, 3))
RESC43 = make_measure("rescaled", DimensionPair(4, 3))
LIMIT2 = make_measure("limit", 2)


@pytest.fixture(scope="module")
def resc43_draws():
    """One shared 20k-draw run at the default cutoff."""
    return sample(RESC43, 20_000, SamplerConfig(cutoff_delta=1e-3, seed=3))


class TestTailMass:
    def test_frozen_values(self):
        # integral of x^(-5/2) (1-x)^(-1/2) over (1/4, 1) is 4 sqrt(3)
        want = 4.0 * math.sqrt(3.0)
        assert math.isclose(tail_mass(HYP43, 0.25), want, rel_tol=1e-10)
        assert math.isclose(tail_mass(RESC43, 0.25), want / math.pi, rel_tol=1e-10)
        # the codimension-2 limit measure integrates to 1/delta - 1
        assert math.isclose(tail_mass(LIMIT2, 1e-3), 999.0, rel_tol=1e-12)

    def test_monotone_in_delta(self):
        vals = [tail_mass(RESC43, float(d)) for d in np.geomspace(1e-4, 0.9, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_mass(HYP43, 0.0)
        with pytest.raises(DomainError):
            tail_mass(HYP43, 1.0)


class TestPartialMoment:
    def test_second_moment_split_frozen(self):
        below = partial_moment(HYP43, 0.25, 2, "below")
        above = partial_moment(HYP43, 0.25, 2, "above")
        assert math.isclose(below, math.pi / 3.0, rel_tol=1e-10)
        assert math.isclose(above, 2.0 * math.pi / 3.0, rel_tol=1e-10)

    def test_split_reassembles_the_cumulant(self):
        for measure, pair, scale in (
            (HYP43, DimensionPair(4, 3), 1.0),
            (RESC43, DimensionPair(4, 3), math.pi),
        ):
            for m in (2, 3, 4):
                total = cumulant(pair, m) / scale
                split = partial_moment(measure, 0.1, m, "below") + partial_moment(
                    measure, 0.1, m, "above"
                )
                assert math.isclose(split, total, rel_tol=1e-10)
        for m in (2, 3, 4):
            split = partial_moment(LIMIT2, 0.3, m, "below") + partial_moment(
                LIMIT2, 0.3, m, "above"
            )
            assert math.isclose(split, float(m - 1) ** -1.0, rel_tol=1e-10)

    def test_limit_family_closed_forms(self):
        assert math.isclose(partial_moment(LIMIT2, 0.25, 2, "below"), 0.25, rel_tol=1e-10)
        assert math.isclose(partial_moment(LIMIT2, 0.25, 2, "above"), 0.75, rel_tol=1e-10)
        assert math.isclose(partial_moment(LIMIT2, 0.5, 3, "below"), 0.125, rel_tol=1e-10)
        assert math.isclose(partial_moment(LIMIT2, 0.5, 3, "above"), 0.375, rel_tol=1e-10)

    def test_tail_fraction_matches_the_regime_functional(self):
        pair = DimensionPair(4, 3)
        sigma = math.sqrt(variance(pair))
        for eps in (0.05, 0.1, 0.3):
            above = partial_moment(HYP43, sigma * eps, 2, "above")
            want = variance(pair) * tail_second_moment(pair, eps)
            assert math.isclose(above, want, rel_tol=1e-10)

    def test_rescaled_split_survives_an_underflowing_variance(self):
        # sigma^2 = exp(log sigma^2) is 0.0 in double precision for this pair
        resc = make_measure("rescaled", DimensionPair(10**6, 500355))
        below = partial_moment(resc, 0.5, 2, "below")
        above = partial_moment(resc, 0.5, 2, "above")
        assert math.isclose(below + above, 1.0, rel_tol=1e-12)
        assert 0.0 <= partial_moment(resc, 0.5, 3, "above") <= above

    def test_tiny_cutoff_recovers_the_full_third_moment(self):
        above = partial_moment(HYP43, 1e-6, 3, "above")
        assert abs(above - 0.5 * math.pi) <= 1e-8

    def test_first_moment_above_frozen(self):
        # integral of x^(-3/2) (1-x)^(-1/2) over (1/4, 1) is 2 sqrt(3)
        got = partial_moment(HYP43, 0.25, 1, "above")
        assert math.isclose(got, 2.0 * math.sqrt(3.0), rel_tol=1e-10)

    def test_divergent_orders_below_the_cutoff(self):
        with pytest.raises(DivergentMomentError):
            partial_moment(HYP43, 0.1, 1, "below")
        with pytest.raises(DivergentMomentError):
            partial_moment(LIMIT2, 0.1, 0, "below")

    def test_zeroth_moment_above_is_the_tail_mass(self):
        assert partial_moment(RESC43, 0.2, 0, "above") == tail_mass(RESC43, 0.2)

    def test_validation(self):
        with pytest.raises(DomainError):
            partial_moment(HYP43, 0.1, 2, "middle")
        with pytest.raises(DomainError):
            partial_moment(HYP43, 0.1, -1, "above")
        with pytest.raises(DomainError):
            partial_moment(HYP43, 0.0, 2, "above")


class TestInverseJumpCdf:
    def test_endpoints_are_pinned(self):
        assert inverse_jump_cdf(HYP43, 0.0, 0.25) == 0.25
        assert inverse_jump_cdf(HYP43, 1.0, 0.25) == 1.0

    def test_median_frozen(self):
        got = inverse_jump_cdf(HYP43, 0.5, 0.25)
        assert abs(got - 0.41723798792621878) <= 1e-9

    def test_round_trip_against_direct_tail_integrals(self):
        lam = tail_mass(HYP43, 0.25)
        for p in np.linspace(0.02, 0.98, 21):
            x = inverse_jump_cdf(HYP43, float(p), 0.25)
            cdf = 1.0 - tail_mass(HYP43, float(x)) / lam
            assert abs(cdf - p) <= 2e-9

    def test_monotone(self):
        ps = np.linspace(0.0, 1.0, 1001)
        xs = inverse_jump_cdf(HYP43, ps, 0.25)
        assert np.all(np.diff(xs) >= -1e-12)

    def test_scalar_and_array_modes(self):
        out = inverse_jump_cdf(HYP43, 0.5, 0.25)
        assert isinstance(out, float)
        arr = inverse_jump_cdf(HYP43, np.array([0.1, 0.9]), 0.25)
        assert arr.shape == (2,)

    def test_every_cell_against_direct_tail_integrals(self):
        # the table's own certificate reuses its panel CDF; this checks the
        # quantile against tail_mass, one seeded point inside every cell
        rng = np.random.default_rng(43)
        delta = 1e-3
        laws = (
            RESC43,
            LIMIT2,
            make_measure("limit", 1),
            make_measure("limit", 3),
            make_measure("rescaled", DimensionPair(40, 21)),
        )
        for measure in laws:
            table = sampler._certified_jump_table(measure, delta)
            lam = tail_mass(measure, delta)
            s = (np.arange(table.cells) + rng.random(table.cells)) / table.cells
            q = s**table.index_pow
            x = table.x_of_q(q)
            # a quantile that rounds to 1.0 has no jump mass above it
            got = np.array([tail_mass(measure, v) / lam if v < 1.0 else 0.0 for v in x])
            assert np.max(np.abs(got - q)) <= 1e-10, measure

    def test_validation(self):
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, -0.1, 0.25)
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, 1.1, 0.25)
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, 0.5, 0.0)


@pytest.mark.filterwarnings("ignore:small-jump Gaussian proxy is thin")
class TestSampleDeterminism:
    # the coarse cutoff here trades moment fidelity for speed; these tests
    # only compare streams, so the thin-proxy warning is expected noise

    def test_same_seed_same_values(self):
        a = sample(RESC43, 400, SamplerConfig(cutoff_delta=0.05, seed=9))
        b = sample(RESC43, 400, SamplerConfig(cutoff_delta=0.05, seed=9))
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = sample(RESC43, 400, SamplerConfig(cutoff_delta=0.05, seed=9))
        b = sample(RESC43, 400, SamplerConfig(cutoff_delta=0.05, seed=10))
        assert not np.array_equal(a.values, b.values)

    def test_prefix_stable_in_n(self):
        cfg = SamplerConfig(cutoff_delta=0.05, seed=9, batch_size=64)
        long = sample(RESC43, 256, cfg)
        short = sample(RESC43, 160, cfg)
        assert np.array_equal(long.values[:160], short.values)

    def test_run_rebuilt_from_the_documented_stream(self):
        # batch 0 holds about 2.7M jumps, three chunks even at a 2^20 chunk
        # length, and batch 1 is partial; the rebuild never chunks
        delta, n = 1e-3, 600
        cfg = SamplerConfig(cutoff_delta=delta, seed=5, batch_size=400)
        got = sample(RESC43, n, cfg).values
        table = sampler._certified_jump_table(RESC43, delta)
        lam = tail_mass(RESC43, delta)
        compensator = partial_moment(RESC43, delta, 1, "above")
        small_sd = math.sqrt(partial_moment(RESC43, delta, 2, "below"))
        chunk = sampler._JUMP_CHUNK
        eps = np.finfo(float).eps
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            m = min(cfg.batch_size, n - start)
            rng = np.random.Generator(
                np.random.Philox(seed=np.random.SeedSequence((cfg.seed, batch_index)))
            )
            z = rng.standard_normal(cfg.batch_size)[:m]
            counts = rng.poisson(lam, size=cfg.batch_size)[:m]
            ends = np.cumsum(counts)
            assert batch_index == 1 or ends[-1] > 2 * (1 << 20)
            x = table.x_of_q(rng.random(int(ends[-1])))
            sums = np.array([math.fsum(x[e - c : e]) for e, c in zip(ends, counts)])
            # the sampler takes each draw as differences of per-chunk prefix
            # sums: each prefix is off by at most chunk * eps * the chunk total
            chunk_total = max(math.fsum(x[c0 : c0 + chunk]) for c0 in range(0, x.size, chunk))
            spans = (np.maximum(ends - 1, ends - counts) // chunk) - (ends - counts) // chunk + 1
            want = sums - compensator + small_sd * z
            bound = 2.0 * spans * chunk * eps * chunk_total + 4.0 * eps * (
                sums + compensator + np.abs(small_sd * z)
            )
            assert np.all(np.abs(got[start : start + m] - want) <= bound)

    def test_partial_final_batch(self):
        cfg = SamplerConfig(cutoff_delta=0.05, seed=2, batch_size=64)
        batch = sample(RESC43, 100, cfg)
        assert len(batch.values) == 100
        assert batch.diagnostics["batches"] == 2


class TestSampleMoments:
    def test_variance_band(self, resc43_draws):
        k = empirical_cumulants(resc43_draws.values, 2)
        assert abs(k[1] - 1.0) < 0.05

    def test_kolmogorov_distance_to_the_inverted_density(self, resc43_draws):
        table = cached_density("rescaled", (4, 3), half_width=12.0, n_points=4096).cdf()
        assert ks_distance_sample(resc43_draws.values, table) <= 0.015

    def test_limit_family_bands(self):
        batch = sample(LIMIT2, 20_000, SamplerConfig(cutoff_delta=1e-3, seed=11))
        k = empirical_cumulants(batch.values, 3)
        assert abs(k[0]) < 0.05
        assert abs(k[1] - 1.0) < 0.05
        assert abs(k[2] - 0.5) < 0.1

    def test_halving_the_cutoff_stays_inside_the_noise_band(self):
        coarse = sample(LIMIT2, 10_000, SamplerConfig(cutoff_delta=2e-3, seed=21))
        fine = sample(LIMIT2, 10_000, SamplerConfig(cutoff_delta=1e-3, seed=22))
        k_coarse = empirical_cumulants(coarse.values, 2)[1]
        k_fine = empirical_cumulants(fine.values, 2)[1]
        assert abs(k_coarse - 1.0) < 0.062
        assert abs(k_fine - 1.0) < 0.062
        assert abs(k_coarse - k_fine) < 0.1


class TestSampleDiagnostics:
    def test_reported_quantities_are_consistent(self, resc43_draws):
        diag = resc43_draws.diagnostics
        delta = 1e-3
        assert diag["jump_rate"] == tail_mass(RESC43, delta)
        assert diag["compensator"] == partial_moment(RESC43, delta, 1, "above")
        total = diag["small_jump_variance"] + partial_moment(RESC43, delta, 2, "above")
        assert abs(total - 1.0) <= 1e-10
        assert diag["small_jump_sd"] == math.sqrt(diag["small_jump_variance"])
        assert diag["small_jump_ratio"] >= 10.0
        assert diag["table_cert_error"] <= 1e-10
        # the table is the first power of two from 2^11 cells that certifies
        cells = diag["table_cells"]
        assert cells >= 1 << 11 and cells & (cells - 1) == 0
        for fewer in (1 << j for j in range(11, cells.bit_length() - 1)):
            assert sampler._build_jump_table(RESC43, delta, fewer).cert_error > 1e-10
        assert diag["batches"] == 1

    def test_berry_esseen_ratio_of_the_small_jump_proxy(self, resc43_draws):
        # limit b = 2 has density x^-2: int_0^delta x^3 over delta^(3/2)
        for delta in (1e-3, 1e-2):
            diag = sample(LIMIT2, 4, SamplerConfig(cutoff_delta=delta)).diagnostics
            assert math.isclose(diag["small_jump_be_ratio"], 0.5 * math.sqrt(delta), rel_tol=1e-10)
        # rescaled (4,3) has density x^(-5/2) (1-x)^(-1/2) / pi
        delta = 1e-3
        a = math.asin(math.sqrt(delta))
        third = (a - math.sqrt(delta * (1.0 - delta))) / math.pi
        second = 2.0 * a / math.pi
        got = resc43_draws.diagnostics["small_jump_be_ratio"]
        assert math.isclose(got, third / second**1.5, rel_tol=1e-8)
        assert abs(got - 2.349e-3) <= 5e-7

    def test_thin_gaussian_proxy_warns(self):
        with pytest.warns(RuntimeWarning, match="thin"):
            sample(LIMIT2, 16, SamplerConfig(cutoff_delta=0.999, seed=0))

    @pytest.mark.filterwarnings("ignore:small-jump Gaussian proxy is thin")
    def test_table_at_its_rounding_floor_fails_fast(self):
        # for codimension 1 at large d the quantile rounds to x = 1.0 over
        # q < 1e-9, so the residual stays near 1e-10 whatever the cell count
        measure = make_measure("rescaled", DimensionPair(40, 39))
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="stuck"):
            sample(measure, 1, SamplerConfig(cutoff_delta=0.1))
        assert time.perf_counter() - t0 < 0.5

    def test_excessive_jump_rate_is_rejected_with_advice(self):
        with pytest.raises(SamplerConfigError, match="raise the cutoff"):
            sample(RESC43, 10, SamplerConfig(cutoff_delta=2e-11))

    def test_config_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(SamplerConfigError):
                SamplerConfig(cutoff_delta=bad)
        with pytest.raises(SamplerConfigError):
            SamplerConfig(seed=-1)
        with pytest.raises(SamplerConfigError):
            SamplerConfig(seed=0.5)
        with pytest.raises(SamplerConfigError):
            SamplerConfig(batch_size=0)

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            sample(RESC43, 0)
        with pytest.raises(DomainError):
            sample(RESC43, 3.5)


class TestEmpiricalCumulants:
    def test_constant_input(self):
        k = empirical_cumulants(np.full(64, 2.5), 4)
        assert k[0] == 2.5
        assert np.all(k[1:] == 0.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        a, b = 1.7, -2.3
        base = empirical_cumulants(x, 4)
        moved = empirical_cumulants(a + b * x, 4)
        assert math.isclose(moved[0], a + b * base[0], rel_tol=1e-12, abs_tol=1e-12)
        for m in (2, 3, 4):
            assert math.isclose(
                moved[m - 1], b**m * base[m - 1], rel_tol=1e-11, abs_tol=1e-12
            )

    def test_gaussian_bands(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(200_000)
        k = empirical_cumulants(x, 4)
        assert abs(k[1] - 1.0) < 0.02
        assert abs(k[2]) < 0.025
        assert abs(k[3]) < 0.05

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(10.0), 0)
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(10.0), 7)
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(4.0), 4)
