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

An integrand returns its (n_nodes,) values for one integral, or a
RowBatch for n integrals sharing the nodes: n, and a function sums(rows,
w) that gives the rows in the index array rows their weighted sums over
the level's nodes under the weights w, a (len(rows),) array. The rule
weights and sums a plain integrand's values itself (np.sum of w times
them); a batch does its own weighting, so it can sum a node-only factor
once per level and scale it per row rather than weight (rows, nodes)
values element by element. The characteristic exponent does
(hyplevy.spectral): its Taylor-form columns and those where the node
rounds to 1 cost O(1) per row, and only its large-form columns cost work
per element. The integrand is called once per level, so a batch's
node-only factors are computed once per level, and its rows are summed
in tiles of at most _TILE elements (rows x nodes), whole rows each,
which bounds the temporaries whatever the batch's size. Each row
converges on its own test
|S_L - S_{L-1}| <= max(abs_tol, rel_tol |S_L|) and keeps the value of the
first level that passes it; a level sums only the rows that have not
passed yet, and the rule returns once every row has passed. So a row's
value is the one a batch of that row alone returns whenever the batch's
sums give each row the value of that row alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError

_T_MAX = 6.11  # |(pi/2) sinh t| ~ 350 here, transformed weights underflow beyond
_MIN_LEVEL = 5  # the first level, 391 nodes
_MAX_LEVEL = 12  # the last level tried before QuadratureError
_TILE = 1 << 16  # elements (rows x nodes) per call of a batch's row function


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
    nodes = (s[keep], s1[keep], w[keep])
    for shared in nodes:  # every caller gets these arrays
        shared.flags.writeable = False
    return nodes


@lru_cache(maxsize=32)
def _es_nodes(level: int, new_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas on (0, inf) at spacing 2^-level: (x, weight)."""
    h, t = _level_steps(level, new_only)
    a = 0.5 * math.pi * np.sinh(t)
    x = np.exp(a)
    w = h * x * 0.5 * math.pi * np.cosh(t)
    keep = np.isfinite(w) & (x > 0.0) & (x < 1e300)
    nodes = (x[keep], w[keep])
    for shared in nodes:  # every caller gets these arrays
        shared.flags.writeable = False
    return nodes


class RowBatch(NamedTuple):
    """n integrals sharing a level's nodes: sums(rows, w) gives the
    (len(rows),) weighted sums over the nodes, under the level's weights
    w, of the rows in the index array rows."""

    n: int
    sums: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _level_sums(values, w: np.ndarray, live) -> np.ndarray:
    """The weighted sums over one level's nodes w of an integrand's values
    there: of its one integral, or of a RowBatch's rows live (all of them
    if None), in tiles of at most _TILE elements."""
    if not isinstance(values, RowBatch):
        if np.ndim(values) != 1:
            raise ValueError("an integrand returns (n_nodes,) values or a RowBatch")
        return np.sum(w * values)
    live = np.arange(values.n) if live is None else live
    step = max(1, _TILE // len(w))
    return np.concatenate([values.sums(live[i : i + step], w) for i in range(0, len(live), step)])


def _refine(level_sum, where: str, rel_tol: float, abs_tol: float):
    """Run the nested levels _MIN_LEVEL.._MAX_LEVEL; level_sum(level,
    new_only, live) is the weighted sum over that level's (new) nodes: a
    scalar for one integral, or an array over the rows live of a batch
    (all of them at the first level). Returns each row's value at the
    first level where it passes its test; after each level only the rows
    that have not passed go on."""
    cur = level_sum(_MIN_LEVEL, False, None)
    batch = np.ndim(cur) == 1
    live = np.arange(len(cur)) if batch else None
    result = np.empty_like(cur)
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        prev = cur
        cur = 0.5 * prev + level_sum(level, True, live)
        err = np.abs(cur - prev)
        passed = err <= np.maximum(abs_tol, rel_tol * np.abs(cur))
        if passed.all():
            if not batch:
                return cur
            result[live] = cur
            return result
        if passed.any():
            result[live[passed]] = cur[passed]
            live, cur, err = live[~passed], cur[~passed], err[~passed]
    worst = float(np.max(err))
    rows = f", the worst of {len(live)} unconverged rows" if batch else ""
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
    stably; it may return real or complex values of shape (n_nodes,), or
    a RowBatch of n integrals, whose result is an array of n. Raises
    QuadratureError if consecutive levels never agree to tolerance.
    """
    if not b > a:
        raise QuadratureError(f"empty interval ({a}, {b})")
    scale = b - a

    def level_sum(level: int, new_only: bool, live):
        s, s1, w = _ts_nodes(level, new_only)
        return scale * _level_sums(f(a + scale * s, scale * s1), w, live)

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
    range, of shape (n_nodes,), or a RowBatch, as for tanh_sinh.
    """

    def level_sum(level: int, new_only: bool, live):
        x, w = _es_nodes(level, new_only)
        return _level_sums(f(a + x), w, live)

    return _refine(level_sum, f"exp_sinh on ({a}, inf)", rel_tol, abs_tol)


__all__ = ["tanh_sinh", "exp_sinh"]
