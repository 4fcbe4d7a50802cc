"""Double-exponential quadrature rules.

tanh_sinh integrates over a finite interval and tolerates integrable
algebraic or logarithmic endpoint singularities; exp_sinh covers (a, inf)
for integrands with decay. Both evaluate the integrand on full node arrays
(numpy vectorized) and refine by level doubling until two consecutive
levels agree. Integrands receive the node position together with the
distance to the singular endpoint so that factors like (1 - x)^(-1/2) can
be evaluated without cancellation.

Levels are nested: the nodes of level L are the even-index nodes of level
L + 1, at exactly half the weight, so each level after the first
evaluates only its new odd-index nodes and S_{L+1} = S_L / 2 + sum over
the new nodes of w f (Bailey, Jeyabalan & Li 2005). A level-5 to level-6
pass costs 783 integrand points rather than 391 + 783.

Refinement runs from level 5 to level 12 at most; the levels are fixed,
not parameters. The tolerances rel_tol and abs_tol are the callers': the
sampler's moments ask for 1e-12 and the characteristic exponent for 1e-11.

An integrand may return a (..., n_nodes) array, one row per integral
sharing the nodes; the sum runs over the last axis. Each row converges on
its own test |S_L - S_{L-1}| <= max(abs_tol, rel_tol |S_L|) and keeps the
value of the first level that passes it, which is the value a 1-D call on
that row alone returns; the rule returns once every row has passed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_T_MAX = 6.11  # |(pi/2) sinh t| ~ 350 here, transformed weights underflow beyond
_MIN_LEVEL = 5  # the first level, 391 nodes
_MAX_LEVEL = 12  # the last level tried before QuadratureError


def _level_steps(level: int, new_only: bool) -> tuple[float, np.ndarray]:
    """Spacing 2^-level and the step points t = i h, |t| <= _T_MAX; with
    new_only, only the odd i that the level adds to the one before."""
    h = 2.0 ** (-level)
    n = int(_T_MAX / h)
    i = np.arange(-n, n + 1)
    if new_only:
        i = i[i % 2 != 0]
    return h, i * h


@lru_cache(maxsize=32)
def _ts_nodes(level: int, new_only: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissas on (0,1) at spacing 2^-level: (s, 1-s, weight)."""
    h, t = _level_steps(level, new_only)
    a = 0.5 * math.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-2.0 * a))
    s1 = 1.0 / (1.0 + np.exp(2.0 * a))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(a) ** 2
    keep = (s > 0.0) & (s1 > 0.0) & (w > 0.0)
    return s[keep], s1[keep], w[keep]


@lru_cache(maxsize=32)
def _es_nodes(level: int, new_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas on (0, inf) at spacing 2^-level: (x, weight)."""
    h, t = _level_steps(level, new_only)
    a = 0.5 * math.pi * np.sinh(t)
    x = np.exp(a)
    w = h * x * 0.5 * math.pi * np.cosh(t)
    keep = np.isfinite(w) & (x > 0.0) & (x < 1e300)
    return x[keep], w[keep]


def _weighted_sum(w: np.ndarray, vals) -> np.ndarray:
    """The row sums of w * vals. The integrand's result belongs to the
    rule, so the product is formed in it when it can hold the product's
    type and shape, which spares a (rows, nodes) temporary."""
    if (
        isinstance(vals, np.ndarray)
        and vals.flags.writeable
        and vals.shape[-1:] == w.shape
        and vals.dtype == np.result_type(vals, w)
    ):
        vals *= w
        return np.sum(vals, axis=-1)
    return np.sum(w * vals, axis=-1)


def _refine(level_sum, where: str, rel_tol: float, abs_tol: float):
    """Run the nested levels _MIN_LEVEL.._MAX_LEVEL; level_sum(level,
    new_only) is the weighted sum over that level's (new) nodes. Returns
    each row's value at the first level where it passes its test."""
    cur = level_sum(_MIN_LEVEL, False)
    result = cur
    done = np.zeros(np.shape(cur), dtype=bool)
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        prev = cur
        cur = 0.5 * prev + level_sum(level, True)
        err = np.abs(cur - prev)
        passed = err <= np.maximum(abs_tol, rel_tol * np.abs(cur))
        result = np.where(done, result, cur)
        done |= passed
        if np.all(done):
            return result[()]
    worst = float(np.max(err[~done]))
    rows = f", the worst of {np.count_nonzero(~done)} unconverged rows" if done.ndim else ""
    raise QuadratureError(
        f"{where} did not converge by level {_MAX_LEVEL} (last delta {worst:.3e}{rows})"
    )


def tanh_sinh(
    f,
    a: float = 0.0,
    b: float = 1.0,
    *,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-15,
):
    """Integrate f over (a, b).

    f(x, dist_b) is called with node arrays, dist_b = b - x computed
    stably; it may return real or complex values, of shape (n_nodes,) or
    (..., n_nodes) for a batch of integrals (an array of results). The
    returned array is handed over: the rule may weight it in place, so f
    must not return an array it keeps. Raises
    QuadratureError if consecutive levels never agree to tolerance.
    """
    if not b > a:
        raise QuadratureError(f"empty interval ({a}, {b})")
    scale = b - a

    def level_sum(level: int, new_only: bool):
        s, s1, w = _ts_nodes(level, new_only)
        return scale * _weighted_sum(w, f(a + scale * s, scale * s1))

    return _refine(level_sum, f"tanh_sinh on ({a}, {b})", rel_tol, abs_tol)


def exp_sinh(
    f,
    a: float = 0.0,
    *,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-15,
):
    """Integrate f over (a, inf) for decaying integrands.

    f(x) is called with node arrays (positions a + u, u on a
    double-exponential grid spanning roughly 1e-300 .. 1e300); the
    integrand must return finite values (for example 0) over that whole
    range, of shape (n_nodes,) or (..., n_nodes), and handed over, as for
    tanh_sinh.
    """

    def level_sum(level: int, new_only: bool):
        x, w = _es_nodes(level, new_only)
        return _weighted_sum(w, f(a + x))

    return _refine(level_sum, f"exp_sinh on ({a}, inf)", rel_tol, abs_tol)


@lru_cache(maxsize=8)
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


__all__ = ["tanh_sinh", "exp_sinh", "gauss_legendre_nodes"]
