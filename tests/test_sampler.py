"""Jump-size quantiles, partial moments, and the compensated Monte Carlo sampler."""

import hashlib
import math
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

import mpmath
import numpy as np
import pytest

from conftest import cached_density, hyplevy_env, peak_rss_rise_mb
from hyplevy import sampler
from hyplevy.errors import (
    ConvergenceError,
    DivergentMomentError,
    DomainError,
    SamplerConfigError,
)
from hyplevy.measures import DimensionPair, PairShape, make_measure
from hyplevy.pairs import cumulant, variance
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
HYP75 = make_measure("hyperbolic", DimensionPair(7, 5))
LIMIT2 = make_measure("limit", 2)


def table_x_of_q(table, q):
    """The table's quantile at the upper-tail probabilities q, through the
    in-place evaluation the jump loop uses, on a copy of q."""
    q = np.array(q, dtype=float)
    return table.fill_x_of_q(q, *sampler._buffers(q.size))


def hermite_reference(table, q):
    """The table's cubic written out from its knots and slopes: s = q^(1/P)
    by the table's root, cell i = floor(s cells) clamped to the last cell,
    t = s cells - i, and the Hermite basis on (x_i, x_{i+1}) with the
    slopes scaled to the cell, d = slopes / cells."""
    s = np.sqrt(np.sqrt(q)) if table.index_pow == 4 else np.cbrt(q)
    pos = s * table.cells
    i = np.minimum(np.floor(pos).astype(np.int64), table.cells - 1)
    t = pos - i
    x0, x1 = table.x_knots[i], table.x_knots[i + 1]
    d0, d1 = table.slopes[i] / table.cells, table.slopes[i + 1] / table.cells
    t2, t3 = t * t, t * t * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * x0 + (t3 - 2.0 * t2 + t) * d0
        + (3.0 * t2 - 2.0 * t3) * x1 + (t3 - t2) * d1
    )


def clamped_kernel(table, s):
    """The table's quantile at the coordinates s by the Horner kernel with
    an explicit clamp: cell i = min(trunc(s cells), cells - 1), fraction
    s cells - i as a float minus an int64, and clip-mode gathers from the
    cells' coefficient rows c0..c3. Streams from 0.2.0 on were recorded
    through these bits."""
    s = np.array(s, dtype=float)
    idx, scratch, acc = sampler._buffers(s.size)
    np.multiply(s, table.cells, out=s)
    np.copyto(idx, s, casting="unsafe")
    np.minimum(idx, table.cells - 1, out=idx)
    np.subtract(s, idx, out=s)
    c0, c1, c2, c3 = table.coef[:, : table.cells]
    np.take(c3, idx, out=acc, mode="clip")
    for c in (c2, c1, c0):
        acc *= s
        np.take(c, idx, out=scratch, mode="clip")
        acc += scratch
    return acc


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

    @staticmethod
    def assert_upper_moments_match_mpmath(d, k, delta):
        # both sides integrate in y = 1 - u on (0, y_max), y_max = 1 - delta^(2/(k-1));
        # mpmath scales y = y_max t so its integrand stays O(1) at 50 digits
        measure = make_measure("hyperbolic", DimensionPair(d, k))
        got = (tail_mass(measure, delta), partial_moment(measure, delta, 1, "above"))
        with mpmath.workdps(50):
            half_b = mpmath.mpf(d - k) / 2
            coef = mpmath.pi**half_b / mpmath.gamma(half_b)
            y_max = -mpmath.expm1(2 * mpmath.log(mpmath.mpf(delta)) / (k - 1))
            for m in (0, 1):
                e_pow = mpmath.mpf((k - 1) * m - d - 1) / 2
                want = coef * y_max**half_b * mpmath.quad(
                    lambda t: (1 - y_max * t) ** e_pow * t ** (half_b - 1), [0, 1]
                )
                assert abs(got[m] / want - 1) <= 1e-12, (d, k, delta, m)

    def test_cutoff_near_one_against_mpmath(self):
        for d, k in ((4, 3), (24, 13), (40, 21), (100, 99)):
            for delta in (1e-3, 0.5, 1.0 - 1e-9, 0.99999999999999745):
                self.assert_upper_moments_match_mpmath(d, k, delta)

    @pytest.mark.parametrize("d, k", [(100, 99), (101, 99), (1002, 1000)])
    def test_a_node_that_rounds_to_zero_counts_as_positive(self, d, k):
        # at delta = 1 - 2^-53, y_max = 2.3e-18 (k = 99) or 2.2e-19
        # (k = 1000), and the outermost tanh-sinh node y = 6.7e-308 y_max
        # rounds to 0: y^(b/2-1) there was inf for b = 1 (tail_mass inf)
        # and would be nan for b = 2, where 0 * log 0 is nan
        self.assert_upper_moments_match_mpmath(d, k, 1.0 - 2.0**-53)

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
        with pytest.raises(DomainError):
            partial_moment(HYP43, 0.1, True, "above")


class TestLargeCodimensionLimit:
    """From b = 7 on, the limit family's exp-sinh nodes reach v where
    v^((b-2)/2) alone overflows while e^(-v) underflows, and from b = 218
    on v^((b-2)/2) overflows where the product is still finite; the
    integrand is one exp of ((b-2)/2) log v - (m-1) v, so neither shows."""

    @pytest.mark.parametrize("b", [7, 8, 10, 40, 218, 220, 221, 300])
    def test_moments_below_the_cutoff_are_incomplete_gammas(self, b):
        # (m-1)^(-b/2) Q(b/2, (m-1) v_cut) with v_cut = -log delta
        measure = make_measure("limit", b)
        v_cut = -math.log(1e-3)
        for m in (2, 3):
            q = mpmath.gammainc(0.5 * b, (m - 1) * v_cut, mpmath.inf, regularized=True)
            want = float(q * mpmath.mpf(m - 1) ** (-0.5 * b))
            got = partial_moment(measure, 1e-3, m, "below")
            assert abs(got - want) <= 1e-13 * want, m

    @pytest.mark.parametrize("b", [344, 400, 1000, 5000])
    def test_past_the_quadrature_range_the_closed_form_answers(self, b):
        # from b = 344 at m = 2 the shape's integral Gamma(b/2) overflows
        # (at b = 400, e^(-v) v^199 peaks at e^854), and the quadrature
        # raised QuadratureError; the share below the cutoff is then the
        # upper incomplete Gamma, whatever the size of the integral
        measure = make_measure("limit", b)
        v_cut = -math.log(1e-3)
        for m in (2, 3):
            q = mpmath.gammainc(0.5 * b, (m - 1) * v_cut, mpmath.inf, regularized=True)
            want = float(q * mpmath.mpf(m - 1) ** (-0.5 * b))  # 0.0 where it underflows
            got = partial_moment(measure, 1e-3, m, "below")
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), m

    @pytest.mark.parametrize("b", [346, 350, 356, 360, 400])
    def test_moments_above_the_cutoff_past_a_normal_constant(self, b):
        # from b = 343 the constant 1/Gamma(b/2) is subnormal, and from
        # b = 357 it is 0.0, so coef times the quadrature lost digits
        # (9.9e-9 relative at b = 350, 3.8 % at 356) and then gave 0.0;
        # the product is taken in logs there. The integral of v^(a-1)
        # e^(s v) over (0, c) is c^a 1F1(a; a + 1; s c) / a (DLMF 13.4.1)
        measure = make_measure("limit", b)
        got = [tail_mass(measure, 1e-3)]
        got += [partial_moment(measure, 1e-3, m, "above") for m in (1, 2)]
        with mpmath.workdps(40):
            a, c = mpmath.mpf(b) / 2, -mpmath.log(mpmath.mpf(1e-3))
            for m, value in enumerate(got):
                want = c**a / a * mpmath.hyp1f1(a, a + 1, (1 - m) * c) / mpmath.gamma(a)
                assert abs(value / want - 1) <= 1e-12, m

    @pytest.mark.parametrize("b", [350, 360, 380, 400])
    def test_moments_below_the_cutoff_past_a_normal_constant(self, b):
        # the exp-sinh branch, which m >= 3 keeps past b = 344, has the
        # same constant: m = 3 gave 0.0 at b = 360 and 380, m = 4 at
        # b = 360 to 400
        measure = make_measure("limit", b)
        v_cut = -math.log(1e-3)
        for m in (3, 4):
            q = mpmath.gammainc(0.5 * b, (m - 1) * v_cut, mpmath.inf, regularized=True)
            want = q * mpmath.mpf(m - 1) ** (-0.5 * b)
            got = partial_moment(measure, 1e-3, m, "below")
            assert abs(got / want - 1) <= 1e-12, m

    def test_sample_is_finite(self):
        cfg = SamplerConfig(cutoff_delta=1e-2, seed=1, batch_size=128)
        batch = sample(make_measure("limit", 7), 300, cfg)
        assert np.all(np.isfinite(batch.values))
        assert math.isfinite(batch.diagnostics["small_jump_variance"])


class TestInverseJumpCdf:
    def test_endpoints_are_pinned(self):
        assert inverse_jump_cdf(HYP43, 0.0, 0.25) == 0.25
        assert inverse_jump_cdf(HYP43, 1.0, 0.25) == 1.0
        assert inverse_jump_cdf(RESC43, [0.0, 1.0], 1e-3).tolist() == [1e-3, 1.0]

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

    @pytest.mark.parametrize(
        "delta, laws, bound",
        [
            (1e-3, (RESC43, LIMIT2, make_measure("limit", 1), make_measure("limit", 3),
                    make_measure("rescaled", DimensionPair(40, 21))), 1e-10),
            (1e-4, (make_measure("limit", 1), LIMIT2, make_measure("limit", 3)), 1e-10),
            (1e-4, (RESC43,), 1e-11),
            (3e-5, (RESC43,), 1e-11),
            (1e-5, (make_measure("rescaled", DimensionPair(7, 5)),
                    make_measure("rescaled", DimensionPair(40, 21))), 1e-11),
        ],
        ids=["1e-3", "1e-4", "resc43-1e-4", "resc43-3e-5", "1e-5"],
    )
    def test_every_cell_against_direct_tail_integrals(self, delta, laws, bound):
        # the table's own certificate reuses its panel CDF; this checks the
        # quantile against tail_mass, one seeded point inside every cell.
        # Without the graded pair panels rescaled (4,3) certified at 8192
        # cells at 1e-4 (32768 at 3e-5) yet was off by 3.0e-5 (4.9e-4). The
        # pair cases below 1e-3 hold to a tenth of the certificate's target
        rng = np.random.default_rng(43)
        for measure in laws:
            table = sampler._certified_jump_table(measure.shape, delta)
            lam = tail_mass(measure, delta)
            s = (np.arange(table.cells) + rng.random(table.cells)) / table.cells
            q = s**table.index_pow
            x = table_x_of_q(table, q)
            # a quantile that rounds to 1.0 has no jump mass above it
            got = np.array([tail_mass(measure, v) / lam if v < 1.0 else 0.0 for v in x])
            assert table.cells == 1 << 11, measure
            assert np.max(np.abs(got - q)) <= bound, measure

    def test_hyperbolic_and_rescaled_share_one_table(self, monkeypatch):
        # the weight 1/sigma^2 cancels from the conditional jump law, so the
        # table is keyed by the shape and built once for both measures
        builds = []
        real = sampler._build_jump_table

        def counting(shape, delta, cells):
            builds.append((shape, delta, cells))
            return real(shape, delta, cells)

        monkeypatch.setattr(sampler, "_build_jump_table", counting)
        sampler._certified_jump_table.cache_clear()
        pair = DimensionPair(7, 5)
        hyp, resc = make_measure("hyperbolic", pair), make_measure("rescaled", pair)
        q = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(inverse_jump_cdf(hyp, q, 0.01), inverse_jump_cdf(resc, q, 0.01))
        a, b = (sample(m, 50, SamplerConfig(cutoff_delta=0.01, seed=2)) for m in (hyp, resc))
        assert a.diagnostics["table_cert_error"] == b.diagnostics["table_cert_error"]
        assert builds == [(hyp.shape, 0.01, 2048)]
        assert hyp.shape == resc.shape == PairShape(pair)

    def test_hot_loop_quantile_matches_the_reference_at_the_edges(self):
        # q just below 1 gives s = 1.0, which fill_x_of_q reads from the
        # sentinel cell past the last one
        rng = np.random.default_rng(17)
        delta = 1e-3
        q = np.concatenate(
            (rng.random(1 << 15), [0.0, 2.0**-53, np.nextafter(1.0, 0.0)])
        )
        for measure in (RESC43, make_measure("limit", 3)):
            table = sampler._certified_jump_table(measure.shape, delta)
            assert table.index_pow in (3, 4)
            got = table_x_of_q(table, q)
            want = hermite_reference(table, q)
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(got)), measure
            assert got[-3] == table.x_knots[0] == 1.0, measure
            assert abs(got[-1] - delta) <= 2.0 * np.spacing(delta), measure

    @pytest.mark.parametrize(
        "measure, delta, start, cells",
        [(RESC43, 1e-3, 1 << 11, 1 << 11), (make_measure("limit", 3), 1e-3, 1 << 11, 1 << 11),
         (RESC43, 1e-4, 1 << 8, 1 << 9)],
        ids=["resc43", "limit3", "resc43-doubled"],
    )
    def test_hot_loop_is_the_clamped_kernel_bit_for_bit(self, monkeypatch, measure, delta,
                                                        start, cells):
        # the sentinel cell and the float floor stand in for the clamp and
        # the mixed subtract; every draw depends on these bits. The last
        # case starts from 2^8 cells, so its table is one that doubled
        # (every table here certifies at the default 2^11)
        monkeypatch.setattr(sampler, "_TABLE_CELLS", start)
        sampler._certified_jump_table.cache_clear()
        try:
            table = sampler._certified_jump_table(measure.shape, delta)
        finally:
            sampler._certified_jump_table.cache_clear()
        assert table.cells == cells and table.index_pow in (3, 4)
        rng = np.random.default_rng(29)
        s = np.concatenate((
            [0.0, 2.0**-53, np.nextafter(1.0, 0.0), 1.0],
            np.arange(cells + 1) / cells,
            rng.random(1 << 15),
        ))
        got = table.fill_x_of_s(s.copy(), *sampler._buffers(s.size))
        assert got.tobytes() == clamped_kernel(table, s).tobytes(), measure

    @pytest.mark.parametrize(
        "measure, digest",
        [
            (RESC43, "9354a3cd954c609783f0c2c472e5b8de7576aa52df17f7e13a35ef55b0385bd1"),
            (make_measure("limit", 3),
             "b7a6588331fd05c22e9d5cf65a0a88efdfeeecd934f2bff4ba2de386c29bb24e"),
        ],
        ids=["resc43", "limit3"],
    )
    def test_table_digest_is_pinned(self, measure, digest):
        # the two mc_sample tables at delta = 1e-3: SHA-256 of the float64
        # bytes of the knots, slopes and cells-long coefficient rows c0..c3,
        # then cells as int64 and cert_error as float64; any change here
        # moves every draw
        table = sampler._certified_jump_table(measure.shape, 1e-3)
        h = hashlib.sha256()
        for a in (table.x_knots, table.slopes, *table.coef[:, : table.cells]):
            h.update(a.tobytes())
        h.update(np.int64(table.cells).tobytes())
        h.update(np.float64(table.cert_error).tobytes())
        assert h.hexdigest() == digest

    def test_a_cached_table_is_read_only(self):
        # every sample and quantile call at this shape and delta shares it;
        # the last column of the coefficient array is the sentinel cell
        table = sampler._certified_jump_table(RESC43.shape, 1e-3)
        sentinel = table.coef[:, table.cells]
        for a in (table.x_knots, table.slopes, *table.coef, sentinel):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert table.coef.shape == (4, table.cells + 1)
        assert sentinel[1:].tolist() == [0.0, 0.0, 0.0]

    def test_a_table_build_leaves_out_numpy_polynomial(self):
        # the panel rule is a module constant and the graded boundaries are
        # deduplicated by sort and mask, not np.unique: importing
        # numpy.polynomial or numpy.ma costs each process a few ms
        script = (
            "import sys\n"
            "from hyplevy import DimensionPair, inverse_jump_cdf, make_measure\n"
            "inverse_jump_cdf(make_measure('rescaled', DimensionPair(4, 3)), 0.5)\n"
            "print('numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=hyplevy_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    @pytest.mark.parametrize(
        "measure",
        [RESC43, make_measure("rescaled", DimensionPair(7, 5)),
         make_measure("rescaled", DimensionPair(40, 21)),
         make_measure("limit", 1), LIMIT2, make_measure("limit", 3)],
        ids=["resc43", "resc75", "resc40_21", "limit1", "limit2", "limit3"],
    )
    def test_every_knot_meets_the_newton_bar(self, measure, delta):
        # the knot Newton freezes a knot once its residual is within
        # 1e-12 of the total and never evaluates it again; the frozen
        # residual must still hold in a whole-table call. A knot where one
        # ulp of w moves the CDF by more than the bar (rescaled (4,3) at
        # 1e-4 near w_max) can only meet that ulp's CDF step
        table = sampler._certified_jump_table(measure.shape, delta)
        panel = sampler._PanelCdf(measure.shape, delta, table.cells)
        s = np.arange(table.cells + 1) / table.cells
        targets = np.power(s, float(table.index_pow)) * panel.total
        w = panel.knots(targets)
        # these are the table's knots
        y = np.power(w[1:-1], 2.0 / measure.shape.codim)
        assert measure.shape.x_of_y(y).tobytes() == table.x_knots[1:-1].tobytes()
        resid = np.abs(panel.cdf(w) - targets)
        ulp_step = np.abs(panel.cdf(np.nextafter(w, np.inf)) - panel.cdf(w))
        assert np.all(resid <= np.maximum(1e-12 * panel.total, ulp_step))
        assert np.max(resid) <= 1e-11 * panel.total

    @pytest.mark.parametrize(
        "measure, delta, calls",
        [(RESC43, 1e-3, 5), (make_measure("limit", 3), 1e-3, 4), (RESC43, 1e-4, 7),
         (RESC43, 3e-5, 6)],
        ids=["resc43-1e-3", "limit3-1e-3", "resc43-1e-4", "resc43-3e-5"],
    )
    def test_a_stalled_knot_leaves_the_newton(self, monkeypatch, measure, delta, calls):
        # a knot whose step leaves w unchanged would take that step again
        # at every later one, so it leaves the live set at once and the
        # whole-table check judges it. Rescaled (4,3) has 33 such knots at
        # 1e-4 and 243 at 3e-5, which the 60-step cap would keep live for
        # 62 cdf calls a build. The counts take in the Newton steps, the
        # 1e-11 check where a knot stalls, and the midpoint certificate;
        # the mc_sample builds at 1e-3 have no stalled knot
        sizes = []
        cdf = sampler._PanelCdf.cdf

        def record(panel, w):
            sizes.append(w.size)
            return cdf(panel, w)

        monkeypatch.setattr(sampler._PanelCdf, "cdf", record)
        sampler._certified_jump_table.cache_clear()
        try:
            table = sampler._certified_jump_table(measure.shape, delta)
        finally:
            sampler._certified_jump_table.cache_clear()
        assert table.cells == 1 << 11
        assert len(sizes) == calls
        assert sizes[0] == table.cells + 1 and sizes[-1] == table.cells  # knots, midpoints

    def test_panel_sums_do_not_depend_on_the_block(self):
        # a knot's CDF value must be the same whichever knots share its
        # call; a BLAS gemv's row sums depend on the row's place in its block
        rng = np.random.default_rng(5)
        block = rng.random((2049, 16))
        whole = sampler._panel_sums(block)
        for rows in (1, 5, 13):
            for start in range(0, 2049 - rows, 7):
                part = sampler._panel_sums(block[start : start + rows])
                assert part.tobytes() == whole[start : start + rows].tobytes()
        panel = sampler._PanelCdf(RESC43.shape, 1e-4, 1 << 11)
        w = rng.random(4097) * panel.w_max
        cdf = panel.cdf(w)
        for start in range(0, 4097, 97):
            assert panel.cdf(w[start : start + 3]).tobytes() == cdf[start : start + 3].tobytes()

    # the known faults of _build_jump_table, one strict xfail per CHANGES.md
    # FOUND line; each asserts the right outcome, so a mend turns it XPASS
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.xfail(
        raises=ConvergenceError, strict=True,
        reason="CHANGES.md FOUND: _build_jump_table fails on rescaled pairs of large "
        "codimension b (knot targets s^P total underflow to 0, the certificate is NaN)",
    )
    def test_large_codimension_pair_builds(self):
        delta = 1e-3
        x = inverse_jump_cdf(make_measure("rescaled", DimensionPair(200, 101)), 0.5, delta)
        assert math.isfinite(x) and delta < x < 1.0

    @pytest.mark.parametrize(
        "measure",
        [
            pytest.param(RESC43, marks=pytest.mark.xfail(
                raises=ConvergenceError, strict=True,
                reason="CHANGES.md FOUND: _build_jump_table raises ConvergenceError "
                "('jump-table knot inversion did not converge') at small cutoffs that "
                "sample accepts",
            )),
            make_measure("limit", 1),
        ],
        ids=["resc43", "limit1"],
    )
    def test_small_cutoff_builds(self, measure):
        delta = 1e-5
        x = inverse_jump_cdf(measure, 0.5, delta)
        assert math.isfinite(x) and delta < x < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, -0.1, 0.25)
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, 1.1, 0.25)
        with pytest.raises(DomainError):
            inverse_jump_cdf(HYP43, 0.5, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_nan_probabilities_are_rejected(self):
        with pytest.raises(DomainError):
            inverse_jump_cdf(RESC43, float("nan"))
        with pytest.raises(DomainError):
            inverse_jump_cdf(RESC43, np.array([0.25, np.nan, 0.75]))


def _rebuild_from_stream(measure, n, cfg, chunk):
    """The documented stream, rebuilt without chunks: per batch an SFC64
    generator seeded by SeedSequence((seed, batch)), then standard_normal
    and poisson over the full batch_size and one random(total) call mapped
    through x_of_q, each draw's jumps summed exactly with math.fsum.

    Returns the draws, a per-draw bound on the sampler's rounding and each
    batch's jump total. The sampler adds up to (count - 1) roundings inside
    its pieces and one per chunk spanned, each at most eps times the draw's
    sum; then 4 eps of the final terms for the compensator and Gaussian."""
    delta = cfg.cutoff_delta
    table = sampler._certified_jump_table(measure.shape, delta)
    lam = tail_mass(measure, delta)
    compensator = partial_moment(measure, delta, 1, "above")
    small_sd = math.sqrt(partial_moment(measure, delta, 2, "below"))
    eps = np.finfo(float).eps
    want, bound, totals = [], [], []
    for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
        m = min(cfg.batch_size, n - start)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence((cfg.seed, batch_index)))
        )
        z = rng.standard_normal(cfg.batch_size)[:m]
        counts = rng.poisson(lam, size=cfg.batch_size)[:m]
        ends = np.cumsum(counts)
        starts = ends - counts
        x = table_x_of_q(table, rng.random(int(ends[-1])))
        sums = np.array([math.fsum(x[a:e]) for a, e in zip(starts, ends)])
        spans = np.maximum(ends - 1, starts) // chunk - starts // chunk + 1
        want.append(sums - compensator + small_sd * z)
        bound.append(
            (counts + spans) * eps * sums
            + 4.0 * eps * (sums + compensator + np.abs(small_sd * z))
        )
        totals.append(int(ends[-1]))
    return np.concatenate(want), np.concatenate(bound), totals


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
        cfg = SamplerConfig(cutoff_delta=1e-3, seed=5, batch_size=400)
        got = sample(RESC43, 600, cfg).values
        want, bound, totals = _rebuild_from_stream(RESC43, 600, cfg, sampler._JUMP_CHUNK)
        assert totals[0] > 2 * (1 << 20)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("chunk", [5, 7])
    @pytest.mark.parametrize(
        "measure, delta",
        # lambda = 1 at b = 2, delta = 0.5, so about 37 % of the draws are
        # empty; RESC43 at 0.05 makes about 20 jumps a draw, several chunks
        [(LIMIT2, 0.5), (RESC43, 0.05)],
        ids=["limit2", "resc43"],
    )
    def test_segment_sums_at_chunk_edges(self, monkeypatch, measure, delta, chunk):
        monkeypatch.setattr(sampler, "_JUMP_CHUNK", chunk)
        cfg = SamplerConfig(cutoff_delta=delta, seed=11, batch_size=256)
        got = sample(measure, 400, cfg).values
        want, bound, _ = _rebuild_from_stream(measure, 400, cfg, chunk)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize(
        "measure, n, delta, batch_size, digest",
        [
            # full batches, a partial last batch, n < batch_size
            (RESC43, 2000, 1e-2, 1000,
             "2ca4645b9e51f1719ce4c2efb1f1aba79331c38ad6f8f58de326124b543166e3"),
            (RESC43, 2500, 1e-2, 1000,
             "a2ceb7a0ffe5ff2d6fe3e47258e228d55c98cce2f07c4a3999d123c3d2156b89"),
            (RESC43, 700, 1e-2, 1000,
             "f585fb944a96496375bf51a837e623756c043a6fcbf04a04854061accec20ca4"),
            # about 212k jumps a draw: every draw spans several chunks
            (RESC43, 5, 1e-4, 4,
             "37ecbb716a86732614d4daa35b2d0c078bb0579c8bddaf649e16a901385c1005"),
            (LIMIT2, 2000, 1e-3, 1000,
             "01622f2f99e0af0d15d88c300e80ba4a5fe9326908ec5d556d3f7bb16de9e6fc"),
            (LIMIT2, 2500, 1e-3, 1000,
             "5a0f5b1b76138dba8991dc791367a6722e6fe3faba482987801b9b17f9b0dd9a"),
            (LIMIT2, 700, 1e-3, 1000,
             "2e9353f5a3a592c1b4fd2be428687f81b92e0c5ab3f5bf00840caf9507de577a"),
            # one jump a draw on average, so about 37 % of the draws are empty
            (LIMIT2, 300, 0.5, 128,
             "8291c128aa5ef66ffe7ed3394c5bfa4fb53ad2cf7c5c51065a4a1164312725bf"),
        ],
        ids=["resc43-full", "resc43-partial", "resc43-short", "resc43-wide",
             "limit2-full", "limit2-partial", "limit2-short", "limit2-sparse"],
    )
    def test_stream_digest_is_pinned(self, measure, n, delta, batch_size, digest):
        # stream 0.3.0: SHA-256 of the draws' bytes; any change here is a
        # stream bump
        cfg = SamplerConfig(cutoff_delta=delta, seed=7, batch_size=batch_size)
        values = sample(measure, n, cfg).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_a_codimension_two_pair_is_pinned(self):
        # b = 2: the endpoint power b/2 - 1 is 0, and exp(0 log y) = 1
        # exactly in the general expressions; table and stream 0.3.0
        delta = 1e-2
        table = sampler._certified_jump_table(HYP75.shape, delta)
        h = hashlib.sha256()
        for a in (table.x_knots, table.slopes, *table.coef[:, : table.cells]):
            h.update(a.tobytes())
        h.update(np.int64(table.cells).tobytes())
        h.update(np.float64(table.cert_error).tobytes())
        assert h.hexdigest() == "7eafe4b39d485e14dd718084c9ddc01e5c610f6a5e3002ad324ad72d08149cf7"
        values = sample(HYP75, 700, SamplerConfig(cutoff_delta=delta, seed=7, batch_size=1000)).values
        assert (
            hashlib.sha256(values.tobytes()).hexdigest()
            == "e030049b26fe5bca384853a09f7b48a636af194db14759fcd7b55057aceb2c7a"
        )
        assert tail_mass(HYP75, delta) == 1046.1503536454009
        assert partial_moment(HYP75, delta, 1, "above") == 28.274333882308127
        xs = np.array([1e-3, 0.1, 0.5, 0.9, 1.0 - 2.0**-40])
        assert HYP75.density(xs).tolist() == [
            49672941.328980416, 496.7294132898045, 8.885765876316732,
            2.044153964155576, 1.570796326798468,
        ]

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
            assert sampler._build_jump_table(RESC43.shape, delta, fewer).cert_error > 1e-10
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
        with pytest.raises(SamplerConfigError):
            SamplerConfig(seed=True)
        with pytest.raises(SamplerConfigError):
            SamplerConfig(batch_size=True)
        # a cutoff must be a real number, not a string, None, a complex or
        # a bool
        for bad in ("0.5", None, 0.5 + 0j, True):
            with pytest.raises(SamplerConfigError, match="cutoff_delta"):
                SamplerConfig(cutoff_delta=bad)

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            sample(RESC43, 0)
        with pytest.raises(DomainError):
            sample(RESC43, 3.5)
        with pytest.raises(DomainError):
            sample(RESC43, True, SamplerConfig(cutoff_delta=0.05))

    @pytest.mark.filterwarnings("ignore:small-jump Gaussian proxy is thin")
    def test_numpy_integers_are_integers(self):
        # stored as Python numbers, so the config and its stream are those
        # of the equal Python arguments
        cfg = SamplerConfig(cutoff_delta=np.float64(0.05), seed=np.int64(3), batch_size=np.int32(64))
        assert type(cfg.seed) is int and type(cfg.batch_size) is int
        assert type(cfg.cutoff_delta) is float
        plain = SamplerConfig(cutoff_delta=0.05, seed=3, batch_size=64)
        assert cfg == plain
        got = sample(RESC43, np.int64(100), cfg).values
        assert got.tobytes() == sample(RESC43, 100, plain).values.tobytes()
        for side in ("below", "above"):
            got = partial_moment(RESC43, 0.1, np.int64(2), side)
            assert got == partial_moment(RESC43, 0.1, 2, side)


def _integer_partitions(r, largest=None):
    largest = r if largest is None else largest
    if r == 0:
        yield ()
        return
    for part in range(min(r, largest), 0, -1):
        for rest in _integer_partitions(r - part, part):
            yield (part,) + rest


def exact_k_statistic(xs, r):
    """The order-r k-statistic of the sample xs, in exact arithmetic, as
    the symmetric unbiased estimator of the cumulant: kappa_r is the sum
    over set partitions pi of {1..r} of (-1)^(|pi|-1) (|pi|-1)! times the
    product of the raw moments mu'_|B| of its blocks, and each such
    product is estimated without bias by the mean of prod_j x_(i_j)^(b_j)
    over ordered tuples of distinct indices. The doubles are scaled to
    integers by their common power-of-two denominator D, and the degree-r
    statistic is divided by D^r at the end."""
    fracs = [Fraction(x) for x in xs]
    den = max(f.denominator for f in fracs)
    ints = [int(f * den) for f in fracs]
    n = len(ints)
    total = Fraction(0)
    for parts in _integer_partitions(r):
        ell = len(parts)
        blocks = math.factorial(r) // (
            math.prod(math.factorial(b) for b in parts)
            * math.prod(math.factorial(m) for m in Counter(parts).values())
        )
        tuples = sum(
            math.prod(ints[i] ** b for i, b in zip(idx, parts))
            for idx in permutations(range(n), ell)
        )
        sign = (-1) ** (ell - 1) * math.factorial(ell - 1)
        total += Fraction(sign * blocks * tuples, math.perm(n, ell))
    return total / Fraction(den) ** r


class TestEmpiricalCumulants:
    def test_exact_k_statistics_on_small_samples(self):
        rng = np.random.default_rng(23)
        samples = (
            rng.exponential(size=7),
            3.0 * rng.standard_normal(8) + 0.5,
            rng.lognormal(sigma=0.7, size=9),
        )
        for x in samples:
            got = empirical_cumulants(x, 6)
            for r in range(1, 7):
                want = float(exact_k_statistic(x.tolist(), r))
                assert abs(got[r - 1] - want) <= 1e-13 * abs(want), (len(x), r, got[r - 1], want)

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

    def test_chunked_moments_match_whole_array_means(self):
        """The arrays of the tests above; the 200000-value one spans six
        chunks and a partial one."""
        small = np.random.default_rng(23)
        arrays = [
            small.exponential(size=7),
            3.0 * small.standard_normal(8) + 0.5,
            small.lognormal(sigma=0.7, size=9),
            np.full(64, 2.5),
            np.random.default_rng(5).standard_normal(300),
            np.random.default_rng(17).standard_normal(200_000),
        ]
        assert len(arrays[-1]) > 6 * sampler._MOMENT_CHUNK
        for x in arrays:
            xbar = float(np.mean(x))
            got = sampler._central_moments(x, xbar, 6)
            d = x - xbar
            for j in range(2, 7):
                want = float(np.mean(d**j))
                assert abs(got[j] - want) <= 1e-13 * float(np.mean(np.abs(d) ** j)), (len(x), j)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_memory_stays_bounded_at_a_million_values(self):
        """The whole-array central powers raised the peak RSS of a fresh
        interpreter by 15.2 MB on 10^6 values (two 8 MB temporaries); the
        chunked sums must stay within 4 MB."""
        rise = peak_rss_rise_mb(
            setup="""
                import numpy as np
                from hyplevy.sampler import empirical_cumulants

                values = np.random.default_rng(0).standard_normal(10**6)
                empirical_cumulants(values[:100], 4)
            """,
            measured="empirical_cumulants(values, 4)",
        )
        assert rise <= 4.0

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(10.0), 0)
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(10.0), 7)
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(4.0), 4)
        with pytest.raises(DomainError):
            empirical_cumulants(np.arange(10.0), True)
        got = empirical_cumulants(np.arange(10.0), np.int64(4))
        assert got.tobytes() == empirical_cumulants(np.arange(10.0), 4).tobytes()
