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
the new nodes of w f (Bailey, Jeyabalan & Li 2005). No row is tested
before level 6, so the first call of the integrand takes the 391 nodes
of level 5 followed by the 392 that level 6 adds, and the rule forms S_5
from the first part and S_6 = S_5 / 2 + the sum over the second, by the
same formulas and in the same order per part as two calls would: 783
integrand points in one call. Each later call takes one level's new
nodes, and each call's nodes are computed once (_call_nodes).

Refinement runs from level 5 to level 12 at most; the levels are fixed,
not parameters. The tolerances rel_tol and abs_tol are the callers': the
sampler's moments ask for 1e-12 and the characteristic exponent for 1e-11.

An integrand returns its (n_nodes,) values for one integral, or a
RowBatch for n integrals sharing the nodes: n, and a function sums(rows,
ws) that gives the rows in the index array rows their weighted sums over
each part of the call's nodes, the parts' weights ws in turn, as a
(len(ws), len(rows)) array. The rule weights and sums a plain
integrand's values itself, slice by slice (np.sum of w times them); a
batch does its own weighting, so it can sum a node-only factor once per
call and scale it per row rather than weight (rows, nodes) values
element by element. The characteristic exponent does (hyplevy.spectral):
its Taylor-form columns and those where the node rounds to 1 cost O(1)
per row, and only its large-form columns cost work per element. A
batch's node-only factors are computed once per call, and its rows are
summed in tiles of whole rows of at most _TILE elements (rows x nodes)
per part, which bounds the temporaries whatever the batch's size. Each row converges on its own
test |S_L - S_{L-1}| <= max(abs_tol, rel_tol |S_L|) and keeps the value
of the first level that passes it; a call sums only the rows that have
not passed yet, and the rule returns once every row has passed. So a
row's value is the one a batch of that row alone returns whenever the
batch's sums give each row the value of that row alone.
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


def _ts_nodes(level: int, new_only: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissas on (0,1) at spacing 2^-level: (s, 1-s, weight)."""
    h, t = _level_steps(level, new_only)
    a = 0.5 * math.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-2.0 * a))
    s1 = 1.0 / (1.0 + np.exp(2.0 * a))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(a) ** 2
    keep = (s > 0.0) & (s1 > 0.0) & (w > 0.0)
    return s[keep], s1[keep], w[keep]


def _es_nodes(level: int, new_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas on (0, inf) at spacing 2^-level: (x, weight)."""
    h, t = _level_steps(level, new_only)
    a = 0.5 * math.pi * np.sinh(t)
    x = np.exp(a)
    w = h * x * 0.5 * math.pi * np.cosh(t)
    keep = np.isfinite(w) & (x > 0.0) & (x < 1e300)
    return x[keep], w[keep]


class RowBatch(NamedTuple):
    """n integrals sharing a call's nodes: sums(rows, ws) gives the
    (len(ws), len(rows)) weighted sums of the rows in the index array
    rows, one line per part: the call's nodes are the parts' nodes in
    turn, and part p's are weighted by ws[p]."""

    n: int
    sums: Callable[[np.ndarray, tuple], np.ndarray]


def _part_sums(values, ws: tuple, live) -> np.ndarray:
    """The weighted sums over each part of one call's nodes of an
    integrand's values there, the parts' weights ws in turn: (parts,) for
    its one integral, or (parts, rows) for a RowBatch's rows live (all of
    them if None), in tiles of whole rows of at most _TILE elements per
    part."""
    if not isinstance(values, RowBatch):
        if np.ndim(values) != 1:
            raise ValueError("an integrand returns (n_nodes,) values or a RowBatch")
        sums, start = [], 0
        for w in ws:
            sums.append(np.sum(w * values[start : start + len(w)]))
            start += len(w)
        return np.array(sums)
    live = np.arange(values.n) if live is None else live
    step = max(1, _TILE // max(len(w) for w in ws))
    tiles = [values.sums(live[i : i + step], ws) for i in range(0, len(live), step)]
    return tiles[0] if len(tiles) == 1 else np.concatenate(tiles, axis=1)


@lru_cache(maxsize=32)
def _call_nodes(table, parts: tuple) -> tuple[tuple, tuple]:
    """A call's nodes from the table (_ts_nodes or _es_nodes) of each
    (level, new_only) part: each node array but the weights, over the
    parts in turn, and the parts' weights, all read-only; the nodes'
    only cache, whose 32 entries hold the two rules' 14 calls."""
    columns = list(zip(*(table(*part) for part in parts)))
    nodes = tuple(c[0] if len(c) == 1 else np.concatenate(c) for c in columns[:-1])
    for shared in nodes + columns[-1]:  # every caller gets these arrays
        shared.flags.writeable = False
    return nodes, columns[-1]


def _refine(evaluate, where: str, rel_tol: float, abs_tol: float):
    """Run the nested levels _MIN_LEVEL.._MAX_LEVEL; evaluate(parts,
    live) calls the integrand once over the nodes of the parts, each a
    (level, new_only) pair, and gives each part's weighted sum over its
    nodes: a scalar for one integral, or an array over the rows live of a
    batch (all of them, None, until some pass). No row is tested before the
    second level, so the first call takes _MIN_LEVEL and the nodes the
    next level adds; each later call, one level's new nodes. Returns each
    row's value at the first level where it passes its test; after each
    level only the rows that have not passed go on."""
    cur, new = evaluate(((_MIN_LEVEL, False), (_MIN_LEVEL + 1, True)), None)
    live = result = None  # every row live, none passed yet
    for level in range(_MIN_LEVEL + 1, _MAX_LEVEL + 1):
        if level > _MIN_LEVEL + 1:
            (new,) = evaluate(((level, True),), live)
        prev = cur
        cur = 0.5 * prev + new
        err = np.abs(cur - prev)
        passed = err <= np.maximum(abs_tol, rel_tol * np.abs(cur))
        if passed.all():
            if result is None:
                return cur
            result[live] = cur
            return result
        if passed.any():  # a batch's rows, some of which passed
            if result is None:
                live, result = np.arange(len(cur)), np.empty_like(cur)
            result[live[passed]] = cur[passed]
            live, cur, err = live[~passed], cur[~passed], err[~passed]
    worst = float(np.max(err))
    rows = f", the worst of {len(cur)} unconverged rows" if np.ndim(cur) else ""
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
    stably, once per level after the first two, which take one call; it
    may return real or complex values of shape (n_nodes,), or a RowBatch
    of n integrals, whose result is an array of n. Raises QuadratureError
    if consecutive levels never agree to tolerance.
    """
    if not b > a:
        raise QuadratureError(f"empty interval ({a}, {b})")
    scale = b - a

    def evaluate(parts, live):
        (s, s1), ws = _call_nodes(_ts_nodes, parts)
        return scale * _part_sums(f(a + scale * s, scale * s1), ws, live)

    return _refine(evaluate, f"tanh_sinh on ({a}, {b})", rel_tol, abs_tol)


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

    def evaluate(parts, live):
        (x,), ws = _call_nodes(_es_nodes, parts)
        return _part_sums(f(a + x), ws, live)

    return _refine(evaluate, f"exp_sinh on ({a}, inf)", rel_tol, abs_tol)


__all__ = ["tanh_sinh", "exp_sinh"]
