"""Double-exponential quadrature against closed-form integrals."""

import math

import numpy as np
import pytest

from hyplevy import quadrature
from hyplevy.errors import QuadratureError
from hyplevy.quadrature import _es_nodes, _ts_nodes, exp_sinh, tanh_sinh
from hyplevy.sampler import _GL_NODES, _GL_WEIGHTS


def counted(f):
    """f with a tally of the integrand points it is called on."""
    calls = []

    def g(x, *rest):
        calls.append(np.size(x))
        return f(x, *rest)

    g.calls = calls
    return g


def last_delta(info) -> str:
    return str(info.value).split("last delta ")[1].split(")")[0].split(",")[0]


class TestTanhSinh:
    def test_beta_half_half(self):
        # both endpoints carry an inverse-square-root singularity
        val = tanh_sinh(lambda x, bm: 1.0 / np.sqrt(x * bm))
        assert math.isclose(val, math.pi, rel_tol=1e-12)

    def test_log_singularity(self):
        val = tanh_sinh(lambda x, bm: np.log(x))
        assert math.isclose(val, -1.0, rel_tol=1e-12)

    def test_shifted_interval(self):
        val = tanh_sinh(lambda x, bm: x * x, a=1.0, b=3.0)
        assert math.isclose(val, 26.0 / 3.0, rel_tol=1e-13)

    def test_complex_integrand(self):
        val = tanh_sinh(lambda x, bm: np.exp(1j * x))
        assert abs(val - (math.sin(1.0) + 1j * (1.0 - math.cos(1.0)))) <= 1e-13

    def test_right_endpoint_distance_is_exact(self):
        # (1 - x)^(-1/2) through the dist_b argument keeps full precision
        val = tanh_sinh(lambda x, bm: 1.0 / np.sqrt(bm))
        assert math.isclose(val, 2.0, rel_tol=1e-12)

    def test_empty_interval(self):
        with pytest.raises(QuadratureError):
            tanh_sinh(lambda x, bm: x, a=1.0, b=1.0)


class TestExpSinh:
    def test_gamma_five(self):
        val = exp_sinh(lambda x: np.exp(4.0 * np.log(x) - x))
        assert math.isclose(val, 24.0, rel_tol=1e-12)

    def test_shifted_lower_limit(self):
        val = exp_sinh(lambda x: np.exp(-x), a=2.0)
        assert math.isclose(val, math.exp(-2.0), rel_tol=1e-12)

    def test_divergent_integrand_fails(self):
        with pytest.raises(QuadratureError):
            exp_sinh(lambda x: np.ones_like(x))


class TestLevelBounds:
    def test_message_reports_the_worst_rows_delta(self, monkeypatch):
        # 1/x is not integrable at 0, so neither row ever converges; the
        # larger row's delta is the one its own 1-D call reports (the last
        # level is lowered to 8 to keep the failing runs short)
        monkeypatch.setattr(quadrature, "_MAX_LEVEL", 8)
        scale = np.array([[1.0], [3.0]])
        with pytest.raises(QuadratureError) as batch:
            tanh_sinh(lambda x, bm: scale / x)
        with pytest.raises(QuadratureError) as alone:
            tanh_sinh(lambda x, bm: 3.0 / x)
        assert "did not converge by level 8" in str(batch.value)
        assert "the worst of 2 unconverged rows" in str(batch.value)
        assert last_delta(batch) == last_delta(alone)


class TestNestedLevels:
    def test_level_nodes_are_the_even_nodes_of_the_next(self):
        # level L's nodes at half their weight, plus the nodes level L + 1
        # adds, are exactly level L + 1's nodes and weights
        def rows(*cols):
            cols = [np.asarray(c) for c in cols]
            order = np.lexsort(cols[::-1])
            return [c[order] for c in cols]

        for level in (5, 6, 9):
            s, s1, w = _ts_nodes(level)
            n_s, n_s1, n_w = _ts_nodes(level + 1, True)
            want = rows(*_ts_nodes(level + 1))
            got = rows(np.r_[s, n_s], np.r_[s1, n_s1], np.r_[0.5 * w, n_w])
            assert all(np.array_equal(g, h) for g, h in zip(got, want))
            x, v = _es_nodes(level)
            n_x, n_v = _es_nodes(level + 1, True)
            want = rows(*_es_nodes(level + 1))
            got = rows(np.r_[x, n_x], np.r_[0.5 * v, n_v])
            assert all(np.array_equal(g, h) for g, h in zip(got, want))

    def test_level_five_to_six_evaluates_783_points(self):
        # 391 nodes at level 5, then only the 392 nodes level 6 adds
        f = counted(lambda x, bm: x * x)
        assert math.isclose(tanh_sinh(f, a=1.0, b=3.0), 26.0 / 3.0, rel_tol=1e-13)
        assert f.calls == [391, 392]
        g = counted(lambda x: np.exp(-x))
        assert math.isclose(exp_sinh(g, a=2.0), math.exp(-2.0), rel_tol=1e-12)
        assert g.calls == [391, 392]

    def test_nested_sum_matches_the_full_level_sum(self, monkeypatch):
        # rel_tol = 1 accepts the first nested level after the start one
        f = lambda x, bm: 1.0 / np.sqrt(x * bm)  # noqa: E731
        for level in (6, 7):
            s, s1, w = _ts_nodes(level)
            full = np.sum(w * f(s, s1))
            monkeypatch.setattr(quadrature, "_MIN_LEVEL", level - 1)
            nested = tanh_sinh(f, rel_tol=1.0)
            assert abs(nested - full) <= 4e-16 * full


class TestBatchedRows:
    def test_rows_match_their_own_one_dimensional_calls(self):
        p = np.array([[0.5], [1.5], [4.0]])
        got = tanh_sinh(lambda x, bm: x**p * np.log(x) ** 2)
        assert got.shape == (3,)
        for row, pk in zip(got, p[:, 0]):
            alone = tanh_sinh(lambda x, bm: x**pk * np.log(x) ** 2)
            assert abs(row - alone) <= 1e-15 * abs(alone)
            assert math.isclose(row, 2.0 / (pk + 1.0) ** 3, rel_tol=1e-12)
        k = np.array([[1.0], [2.5]])
        got = exp_sinh(lambda x: np.exp(k * np.log(x) - x))
        assert np.allclose(got, [1.0, math.gamma(3.5)], rtol=1e-12, atol=0.0)

    def test_each_row_stops_at_its_own_level(self, monkeypatch):
        # started at level 4 with abs_tol = 1, the unit row passes at level
        # 5 while the scaled row needs level 7; the unit row keeps its
        # level-5 value, the one its own 1-D call returns, and not the
        # sharper level-7 sum
        monkeypatch.setattr(quadrature, "_MIN_LEVEL", 4)
        kw = {"rel_tol": 0.0, "abs_tol": 1.0}
        scale = np.array([[1.0], [1e7]])
        f = counted(lambda x, bm: scale * np.cos(200.0 * x))
        got = tanh_sinh(f, **kw)
        assert len(f.calls) == 4
        alone = tanh_sinh(lambda x, bm: np.cos(200.0 * x), **kw)
        exact = math.sin(200.0) / 200.0
        assert got[0] == alone
        assert abs(alone - exact) > 1e-7
        assert abs(got[1] - 1e7 * exact) <= 1e-6

    def test_complex_rows(self):
        t = np.array([[1.0], [-2.0]])
        got = tanh_sinh(lambda x, bm: np.exp(1j * t * x))
        want = (np.exp(1j * t[:, 0]) - 1.0) / (1j * t[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-13


class TestGaussLegendre:
    """The sampler's panel rule, shipped as constants: numpy's 16-point
    leggauss mapped to (0, 1)."""

    def test_constants_are_leggauss_on_the_unit_interval(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(_GL_NODES, 0.5 * (x + 1.0))
        assert np.array_equal(_GL_WEIGHTS, 0.5 * w)

    def test_weights_sum_to_one(self):
        assert math.isclose(float(np.sum(_GL_WEIGHTS)), 1.0, rel_tol=1e-15)

    def test_polynomial_exactness(self):
        # degree 2n-1 = 31 is integrated exactly on (0, 1)
        assert math.isclose(float(np.sum(_GL_WEIGHTS * _GL_NODES**31)), 1.0 / 32.0, rel_tol=1e-14)

    def test_nodes_inside_unit_interval(self):
        assert np.all((_GL_NODES > 0.0) & (_GL_NODES < 1.0))
