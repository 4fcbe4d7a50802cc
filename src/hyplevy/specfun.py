"""Gamma/Beta special functions and executable inequality bounds.

Scalar, pure-Python evaluation kernels without mutable state. Everything
that can overflow is computed in log space, and Gamma ratios at large
arguments go through a Stirling difference (log_gamma_ratio) instead of
two cancelling log-Gamma values. The incomplete Beta uses a modified Lentz
continued fraction with the standard symmetry switch at x = (p+1)/(p+q+2),
and the upper incomplete Gamma the same kind of fraction above x = a + 1
and its power series below. A fraction or series stops once a step
changes it by less than 1e-12 relative, and raises ConvergenceError after
500 steps; neither is a parameter.
Alongside the evaluators, the module exposes the classical bracketing
bounds (Wendel, Stirling, Gamma-ratio sandwich, Chebyshev tails of the Beta
law, the exponential's Taylor remainder) as plain functions so tests can
sweep them; the Stirling and Gamma-ratio brackets are given in log space
only. Arguments must be finite, and a value that overflows a double is a
DomainError.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError, _integer, _real

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)  # exp overflows above this
_TINY = math.ulp(0.0)  # the least subnormal
_FPMIN = 1e-300
# the continued fraction's stopping step and iteration budget
_CF_REL_TOL = 1e-12
_CF_MAX_ITER = 500


def _log_gamma_ladder(top: int) -> tuple[float, ...]:
    """log Gamma(n/2) for n = 1 .. 2 top, from Gamma(1/2) = sqrt(pi) and
    Gamma(1) = 1 by compensated (Kahan) sums of log(x) along x -> x + 1."""
    ladders = []
    for acc, offset in ((_LOG_SQRT_PI, 0.5), (0.0, 1.0)):
        vals, comp = [], 0.0
        for i in range(top):
            vals.append(acc)
            y = math.log(offset + i) - comp
            t = acc + y
            comp, acc = (t - acc) - y, t
        ladders.append(vals)
    return tuple(v for pair in zip(*ladders) for v in pair)


# log Gamma(x) = _LADDER[2x - 1] at the integers and half integers up to 200
_LADDER = _log_gamma_ladder(200)

# c_n = B_2n / (2n (2n - 1)) of the Stirling series sum_n c_n x^(1-2n); the
# first omitted term bounds the truncation error by 2e-18 for x >= 10
_STIRLING_MIN = 10.0
_STIRLING_COEF = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)


def _stirling_tail(x: float) -> float:
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2 for x >= 10."""
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING_COEF
    r = 1.0 / (x * x)
    return (c1 + r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * (c6 + r * (c7 + r * c8))))))) / x


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Integer and half-integer arguments up to 200 come from a table built at
    import, so log_gamma(1/2) is exactly log(pi)/2 and log_gamma(1) and
    log_gamma(2) are exactly 0. Other arguments of at least 10 take the
    Stirling series; smaller ones are shifted there through
    Gamma(x) = Gamma(x + n) / (x (x+1) ... (x+n-1)). Above about 2.5e305
    log Gamma(x) overflows a double, and DomainError is raised.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    two_x = 2.0 * x
    if two_x <= len(_LADDER) and two_x == math.floor(two_x):
        return _LADDER[int(two_x) - 1]
    if x < _STIRLING_MIN:
        n = math.ceil(_STIRLING_MIN - x)
        return log_gamma(x + n) - math.log(math.prod([x + i for i in range(n)]))
    value = (x - 0.5) * math.log(x) - x + 0.5 * _LOG_TWO_PI + _stirling_tail(x)
    if value == math.inf:
        raise DomainError(f"log_gamma({x!r}) overflows a double")
    return value


def log_gamma_ratio(z: float, a: float) -> float:
    """log Gamma(z + a) - log Gamma(z) for z > 0 and z + a > 0 (a of either sign).

    When z and z + a are both at least 10 this is the difference of two
    Stirling series (DLMF 5.11.1) with the large terms cancelled through
    a log z + (z + a - 1/2) log1p(a/z) - a, so the cost is O(1) and the
    error a few ulp of a log z rather than of log Gamma(z). Below that it is
    the plain difference of log_gamma values.
    """
    w = z + a
    if not (math.isfinite(z) and math.isfinite(a) and z > 0.0 and w > 0.0):
        raise DomainError(f"log_gamma_ratio requires finite z > 0 and z + a > 0, got {(z, a)!r}")
    if min(z, w) < _STIRLING_MIN:
        return log_gamma(w) - log_gamma(z)
    tail = _stirling_tail(w) - _stirling_tail(z)
    return a * math.log(z) + ((w - 0.5) * math.log1p(a / z) - a) + tail


def _log_gamma_size(x: float) -> float:
    """The sum of the magnitudes of the terms log_gamma(x) adds up, plus
    one for the Stirling tail and the compensated table: each is rounded
    to a few ulp of itself, so a few ulp of this size bound the error."""
    two_x = 2.0 * x
    if two_x <= len(_LADDER) and two_x == math.floor(two_x):
        return abs(_LADDER[int(two_x) - 1]) + 1.0
    if x < _STIRLING_MIN:
        n = math.ceil(_STIRLING_MIN - x)
        return _log_gamma_size(x + n) + abs(math.log(math.prod([x + i for i in range(n)]))) + n
    return (x - 0.5) * abs(math.log(x)) + x + 2.0


def _log_gamma_ratio_size(z: float, a: float) -> float:
    """The size, in the sense of _log_gamma_size, of log_gamma_ratio(z, a)."""
    w = z + a
    if min(z, w) < _STIRLING_MIN:
        return _log_gamma_size(w) + _log_gamma_size(z)
    return abs(a * math.log(z)) + abs((w - 0.5) * math.log1p(a / z)) + abs(a) + 1.0


def log_beta(p: float, q: float) -> float:
    """log B(p, q) for p, q > 0."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"log_beta requires p, q > 0, got {(p, q)!r}")
    small, large = sorted((p, q))
    return log_gamma(small) - log_gamma_ratio(large, small)


def beta(p: float, q: float) -> float:
    """Euler Beta function B(p, q) = Gamma(p) Gamma(q) / Gamma(p + q)."""
    try:
        return math.exp(log_beta(p, q))
    except OverflowError:
        raise DomainError(f"B({p!r}, {q!r}) overflows a double") from None


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even step, then the odd step, of the m-th pair of partial numerators
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete Beta continued fraction did not converge in "
        f"{_CF_MAX_ITER} iterations (a={a}, b={b}, x={x})"
    )


def reg_inc_beta(p: float, q: float, x: float) -> float:
    """Regularized incomplete Beta function I_x(p, q).

    Uses the modified Lentz continued fraction, switching to the
    complementary expansion when x exceeds (p+1)/(p+q+2) so that the
    fraction always converges quickly. The domain is extended off [0, 1]
    by the conventions I_x = 0 for x < 0 and I_x = 1 for x > 1, which is
    what keeps tail functionals well defined when a rescaled cutoff
    exceeds the support.

    Parameters
    ----------
    p, q : float
        Positive shape parameters.
    x : float
        Evaluation point, any real number (see the extension above).

    Returns
    -------
    float
        I_x(p, q) in [0, 1].
    """
    if not (p > 0.0 and q > 0.0) or not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"reg_inc_beta requires finite p, q > 0, got {(p, q)!r}")
    if not math.isfinite(x):
        raise DomainError(f"reg_inc_beta requires finite x, got {x!r}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = p * math.log(x) + q * math.log1p(-x) - log_beta(p, q)
    try:  # front is at most about sqrt(p + q): this is the logs' cancellation
        front = math.exp(log_front)
    except OverflowError:
        raise DomainError(f"reg_inc_beta loses its prefactor at {(p, q, x)!r}") from None
    if x < (p + 1.0) / (p + q + 2.0):
        value = front * _beta_cont_frac(p, q, x) / p
    else:
        value = 1.0 - front * _beta_cont_frac(q, p, 1.0 - x) / q
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete Gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    Below x = a + 1 it is 1 - P, P summed by its power series
    x^a e^-x / Gamma(a + 1) (1 + x / (a + 1) + ...); above, Q itself by
    the modified Lentz continued fraction, as for the incomplete Beta.
    Both multiply the front factor x^a e^-x / Gamma(a), taken as one exp
    of its logs, so it carries their rounding (a few ulp of
    a log x + log Gamma(a)). Below a = 1 a Q far under 1 can sit below
    x = a + 1, where 1 - P keeps only P's absolute accuracy. Near x = a
    both need about sqrt(a) steps and run out of them from a ~ 5000 on.
    a must be positive and x nonnegative, both finite.
    """
    if not (0.0 < a < math.inf) or not (0.0 <= x < math.inf):
        raise DomainError(f"reg_upper_gamma requires finite a > 0 and x >= 0, got {(a, x)!r}")
    if x == 0.0:
        return 1.0
    try:  # the front is at most about sqrt(a): an overflow is the logs' rounding
        front = math.exp(a * math.log(x) - x - log_gamma(a))
    except OverflowError:
        raise DomainError(f"reg_upper_gamma loses its prefactor at {(a, x)!r}") from None
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(_CF_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _CF_REL_TOL:
                return max(0.0, 1.0 - front * total)
    else:
        b = x + 1.0 - a
        c = 1.0 / _FPMIN
        d = 1.0 / (b if abs(b) >= _FPMIN else _FPMIN)
        h = d
        for i in range(1, _CF_MAX_ITER + 1):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = b + an / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _CF_REL_TOL:
                return min(1.0, front * h)
    raise ConvergenceError(
        f"incomplete Gamma did not converge in {_CF_MAX_ITER} iterations (a={a}, x={x})"
    )


def inc_beta(p: float, q: float, x: float) -> float:
    """Unregularized incomplete Beta B_x(p, q) = B(p, q) I_x(p, q), x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"inc_beta requires x in [0, 1], got {x!r}")
    return beta(p, q) * reg_inc_beta(p, q, x)


def beta_dist_stats(p: float, q: float) -> tuple[float, float]:
    """Mean and variance of the Beta(p, q) distribution, the variance as
    mean (q / s) / (s + 1), s = p + q, so no product of p and q overflows."""
    s = p + q
    if not (p > 0.0 and q > 0.0 and s < math.inf):
        raise DomainError(f"beta_dist_stats requires p, q > 0 with a finite sum, got {(p, q)!r}")
    mean = p / s
    return mean, mean * (q / s) / (s + 1.0)


def chebyshev_tail_bound(p: float, q: float, x: float) -> tuple[str, float]:
    """One-sided Chebyshev bound on I_x(p, q) around the Beta mean.

    For x below the mean mu = p/(p+q) the value bounds I_x from above by
    1/(p (x/mu - 1)^2); for x above the mean it bounds I_x from below by
    1 - 1/(p (x/mu - 1)^2), clamped at 0 where the raw expression goes
    negative (a vacuous but valid lower bound). Returns (kind, bound) with
    kind in {"below", "above"}.
    """
    if not (p > 0.0 and q > 0.0 and p + q < math.inf and math.isfinite(x)):
        raise DomainError(
            f"chebyshev_tail_bound requires p, q > 0 with a finite sum and a finite x, "
            f"got {(p, q, x)!r}"
        )
    mu = p / (p + q)
    if x == mu:
        raise DomainError("chebyshev_tail_bound is undefined at the Beta mean")
    # a subnormal p can take mu and p t^2 to 0; the floors leave the
    # quotients finite or inf, and change nothing elsewhere
    t = x / max(mu, _TINY) - 1.0
    raw = 1.0 / max(p * t * t, _TINY)
    if x < mu:
        return "below", raw
    return "above", max(0.0, 1.0 - raw)


def gamma_ratio_log_bounds(p: float, q: float) -> tuple[float, float]:
    """Logs of the sandwich Gamma(p) (p-1)^q <= Gamma(p+q) <= Gamma(p) (p+q)^q.

    Requires finite p >= 1 and q >= 0. The lower log is -inf at p = 1
    with q > 0.
    """
    if not (1.0 <= p < math.inf and 0.0 <= q < math.inf):
        raise DomainError(f"gamma_ratio bounds require p >= 1, q >= 0, got {(p, q)!r}")
    lg = log_gamma(p)
    if q == 0.0:
        return lg, lg
    lower = -math.inf if p == 1.0 else lg + q * math.log(p - 1.0)
    upper = lg + q * math.log(p + q)
    return lower, upper


def stirling_log_bounds(z: float) -> tuple[float, float]:
    """Logs of sqrt(2 pi / z) (z/e)^z <= Gamma(z) <= same * e^(1/(12 z)),
    finite z >= 1."""
    if not 1.0 <= z < math.inf:
        raise DomainError(f"stirling bounds require finite z >= 1, got {z!r}")
    lower = 0.5 * (_LOG_TWO_PI - math.log(z)) + z * (math.log(z) - 1.0)
    return lower, lower + 1.0 / (12.0 * z)


def wendel_lower(z: float, t: float) -> float:
    """Lower bound z^(1-t) <= Gamma(z+1)/Gamma(z+t) for z >= 0, t in [0, 1].

    The conventions 0^0 = 1 and 1/Gamma(0) = 0 make the bound hold with
    equality at the corners; plain float exponentiation already realizes
    the 0^0 case.
    """
    if not (0.0 <= z < math.inf and 0.0 <= t <= 1.0):
        raise DomainError(f"wendel_lower requires finite z >= 0 and t in [0, 1], got {(z, t)!r}")
    return z ** (1.0 - t)


def taylor_remainder_bound(n: int, x: float) -> float:
    """min(2 |x|^n / n!, |x|^(n+1) / (n+1)!), the two-regime remainder
    bound for the exponential truncated after n terms, for finite x.

    Where both terms and both factorials are finite doubles (n < 170 and
    |x|^(n+1) below the largest double) it is formed as written, elsewhere
    in logs through log_gamma, so no large factorial is ever built."""
    order, point = _integer(n), _real(x)
    if order is None or order < 1 or point is None or not math.isfinite(point):
        raise DomainError(
            f"taylor_remainder_bound requires integer n >= 1 and finite x, got {(n, x)!r}"
        )
    n, a = order, abs(point)
    if n < 170 and (a <= 1.0 or (n + 1) * math.log(a) < _LOG_MAX):
        return min(2.0 * a**n / math.factorial(n), a ** (n + 1) / math.factorial(n + 1))
    log_a = math.log(a) if a else -math.inf
    log_bound = min(
        math.log(2.0) + n * log_a - log_gamma(n + 1.0), (n + 1) * log_a - log_gamma(n + 2.0)
    )
    if log_bound > _LOG_MAX:
        raise DomainError(f"taylor_remainder_bound({n!r}, {x!r}) overflows a double")
    return math.exp(log_bound)


__all__ = [
    "log_gamma",
    "log_gamma_ratio",
    "log_beta",
    "beta",
    "reg_inc_beta",
    "reg_upper_gamma",
    "inc_beta",
    "beta_dist_stats",
    "chebyshev_tail_bound",
    "gamma_ratio_log_bounds",
    "stirling_log_bounds",
    "wendel_lower",
    "taylor_remainder_bound",
]
