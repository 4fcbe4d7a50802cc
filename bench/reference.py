"""Reference values computed apart from hyplevy, with mpmath and scipy.

Nothing here imports hyplevy or reuses its special functions. Each law's
Levy density is written out from its formula and integrated by mpmath's
tanh-sinh quadrature at 30 digits; log-Gamma and Beta values come from
mpmath, the regularized incomplete Beta from scipy (Boost's ibeta), which
stays accurate at the million-sized shapes of the high-dimension probes
where mpmath's hypergeometric series does not converge.

The three families, for a dimension pair (d, k) with codimension b = d - k
and small-jump index alpha = (d - 1)/(k - 1):

    hyperbolic  nu(dx) = omega_b/(k-1) x^(-1-alpha) (1 - x^(2/(k-1)))^(b/2-1) dx
    rescaled    the same divided by its second moment sigma^2
    limit       nu(dx) = x^(-2) (-log x)^((b-2)/2) / Gamma(b/2) dx

on (0, 1), with omega_b = 2 pi^(b/2) / Gamma(b/2) and
sigma^2 = pi^(b/2) Gamma((2k-d-1)/2) / Gamma((k-1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from scipy import special

mp.mp.dps = 30

EPS = 2.0**-52


@dataclass(frozen=True)
class Law:
    """One law of the three families; (d, k) for pairs, b for the limit."""

    family: str
    d: int = 0
    k: int = 0
    b: int = 0

    @property
    def codim(self) -> int:
        return self.b if self.family == "limit" else self.d - self.k

    @property
    def label(self) -> str:
        if self.family == "limit":
            return f"limit(b={self.b})"
        return f"{self.family}({self.d},{self.k})"

    def cli_args(self) -> list[str]:
        if self.family == "limit":
            return ["--family", "limit", "--b", str(self.b)]
        return ["--family", self.family, "--d", str(self.d), "--k", str(self.k)]


def admissible_pairs(d_max: int) -> list[tuple[int, int]]:
    """Every (d, k) with 1 <= k <= d - 1 and 2k > d + 1, d <= d_max."""
    return [(d, k) for d in range(4, d_max + 1) for k in range((d + 1) // 2 + 1, d)]


def log_variance(d: int, k: int) -> mp.mpf:
    """log sigma^2 = (b/2) log pi + log Gamma((2k-d-1)/2) - log Gamma((k-1)/2)."""
    return (
        mp.mpf(d - k) / 2 * mp.log(mp.pi)
        + mp.loggamma(mp.mpf(2 * k - d - 1) / 2)
        - mp.loggamma(mp.mpf(k - 1) / 2)
    )


def second_moment(law: Law) -> float:
    """Total second moment of the law's measure (1 unless raw hyperbolic)."""
    if law.family == "hyperbolic":
        return float(mp.exp(log_variance(law.d, law.k)))
    return 1.0


def log_omega(b) -> mp.mpf:
    b = mp.mpf(b)
    return mp.log(2) + b / 2 * mp.log(mp.pi) - mp.loggamma(b / 2)


def cumulant(law: Law, m: int) -> float:
    """m-th cumulant (= m-th moment of the measure) in closed form:
    (omega_b/2) B(((k-1)m - (d-1))/2, b/2) for pairs, over sigma^2 when
    rescaled; (m-1)^(-b/2) for the limit law."""
    if law.family == "limit":
        return float(mp.mpf(m - 1) ** (-mp.mpf(law.b) / 2))
    return float(mp.exp(log_cumulant(law, m)))


def log_cumulant(law: Law, m: int) -> mp.mpf:
    d, k = law.d, law.k
    p = mp.mpf((k - 1) * m - (d - 1)) / 2
    q = mp.mpf(d - k) / 2
    out = log_omega(d - k) - mp.log(2) + mp.loggamma(p) + mp.loggamma(q) - mp.loggamma(p + q)
    if law.family == "rescaled":
        out -= log_variance(d, k)
    return out


def density(law: Law):
    """The Levy density as an mpmath function of x in (0, 1)."""
    if law.family == "limit":
        e = (mp.mpf(law.b) - 2) / 2
        c = 1 / mp.gamma(mp.mpf(law.b) / 2)
        return lambda x: c * x**-2 * (-mp.log(x)) ** e
    d, k = law.d, law.k
    alpha = mp.mpf(d - 1) / (k - 1)
    up = mp.mpf(2) / (k - 1)
    e = mp.mpf(d - k) / 2 - 1
    log_c = log_omega(d - k) - mp.log(k - 1)
    if law.family == "rescaled":
        log_c -= log_variance(d, k)
    c = mp.exp(log_c)
    return lambda x: c * x ** (-1 - alpha) * (-mp.expm1(up * mp.log(x))) ** e


_HEAD = mp.mpf("1e-30")


def _panels(lo, hi) -> list:
    """Breakpoints a decade apart, so no panel spans more than one decade
    of the x^(-1-alpha) singularity."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    pts = [lo]
    edge = mp.mpf(10) ** (mp.floor(mp.log10(lo)) + 1)
    while edge < hi:
        pts.append(edge)
        edge *= 10
    pts.append(hi)
    return pts


def _pair_head(law: Law, m: int) -> mp.mpf:
    """integral of x^m nu(dx) over (0, 1e-30) for a pair law, from the
    binomial series of the endpoint factor: below 1e-30 the x^(m-1-alpha)
    singularity still carries mass when alpha is near 2, which quadrature
    nodes do not reach."""
    d, k = law.d, law.k
    alpha = mp.mpf(d - 1) / (k - 1)
    up = mp.mpf(2) / (k - 1)
    e = mp.mpf(d - k) / 2 - 1
    log_c = log_omega(d - k) - mp.log(k - 1)
    if law.family == "rescaled":
        log_c -= log_variance(d, k)
    total = mp.mpf(0)
    for j in range(200):
        s = m - alpha + j * up
        term = mp.binomial(e, j) * (-1) ** j * _HEAD**s / s
        total += term
        if abs(term) < mp.mpf("1e-40") * abs(total):
            break
    return mp.exp(log_c) * total


def moment(law: Law, m: int, lo: float, hi: float = 1.0) -> float:
    """integral of x^m nu(dx) over (lo, hi), by quadrature of the density
    (plus the series head below 1e-30 when lo = 0)."""
    f = density(law)
    head = mp.mpf(0)
    if lo == 0:
        lo = _HEAD
        if law.family != "limit":
            head = _pair_head(law, m)
    return float(head + mp.quad(lambda x: x**m * f(x), _panels(lo, hi)))


def _kernel(y):
    """e^{iy} - 1 - iy; the imaginary part by its series below |y| = 1e-3,
    where sin y - y would cancel."""
    re = -2 * mp.sin(y / 2) ** 2
    if abs(y) < mp.mpf("1e-3"):
        y2 = y * y
        im = -y * y2 / 6 * (1 - y2 / 20 * (1 - y2 / 42 * (1 - y2 / 72 * (1 - y2 / 110))))
    else:
        im = mp.sin(y) - y
    return mp.mpc(re, im)


def psi(law: Law, t: float) -> complex:
    """Characteristic exponent: integral of (e^{itx} - 1 - itx) nu(dx), by
    quadrature above 1e-30 and the kernel's series -(tx)^2/2 - i(tx)^3/6
    against the series head below."""
    f = density(law)
    t = mp.mpf(t)
    body = mp.quad(lambda x: _kernel(t * x) * f(x), _panels(_HEAD, 1))
    if law.family == "limit":
        return complex(body)
    head = -(t**2) / 2 * _pair_head(law, 2) - 1j * t**3 / 6 * _pair_head(law, 3)
    return complex(body + head)


def psi_series(law: Law, t: float, terms: int = 120) -> complex:
    """The same exponent from its cumulant series sum (it)^m kappa_m / m!,
    m >= 2, with closed-form cumulants; converges for every t because the
    jumps lie in (0, 1)."""
    t = mp.mpf(t)
    total = mp.mpc(0)
    for m in range(2, terms):
        if law.family == "limit":
            kap = mp.mpf(m - 1) ** (-mp.mpf(law.b) / 2)
        else:
            kap = mp.exp(log_cumulant(law, m))
        total += (1j * t) ** m * kap / mp.factorial(m)
    return complex(total)


def reg_inc_beta(p: float, q: float, x: float) -> float:
    """I_x(p, q); 0 below and 1 above (0, 1)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return float(special.betainc(p, q, x))


def reg_inc_beta_upper(p: float, q: float, x: float) -> float:
    """1 - I_x(p, q), evaluated directly so small tails keep their digits."""
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    return float(special.betaincc(p, q, x))


def beta_pdf(p: float, q: float, x: float) -> float:
    """Density of the Beta(p, q) law at x in (0, 1)."""
    p, q, x = mp.mpf(p), mp.mpf(q), mp.mpf(x)
    return float(
        mp.exp((p - 1) * mp.log(x) + (q - 1) * mp.log1p(-x) - mp.log(mp.beta(p, q)))
    )


def log_gamma_size(x: float) -> float:
    """Sum of the magnitudes of the terms a double-precision log Gamma(x)
    adds up: the Lanczos form 0.5 log 2 pi + (x - 1/2) log(x + 6.5)
    - (x + 6.5) + log(series), with the series below e^12, and the
    reflection term below x = 1/2. This also bounds the sum of logs the
    recursion adds at integers and half-integers."""
    x = float(x)
    size = 0.0
    if x < 0.5:
        size = abs(math.log(math.pi / math.sin(math.pi * x)))
        x = 1.0 - x
    return size + 1.0 + abs((x - 0.5) * math.log(x + 6.5)) + x + 6.5 + 12.0


def log_variance_sizes(d: int, k: int) -> list[float]:
    """Magnitudes of the terms of log sigma^2 as a double computes them."""
    return [(d - k) / 2 * math.log(math.pi), log_gamma_size((2 * k - d - 1) / 2),
            log_gamma_size((k - 1) / 2)]


def log_omega_sizes(b: float) -> list[float]:
    return [math.log(2.0), b / 2 * math.log(math.pi), log_gamma_size(b / 2)]


def log_gamma_tol(*sizes) -> float:
    """Relative error bound of exp(sum of terms) evaluated in double
    precision, given the magnitudes of the terms: each term of magnitude T
    carries a rounding of a few ulp of T, so the bound is 8 eps times the
    sum of magnitudes, plus 8 eps for the final exponential and products.
    The Lanczos approximation itself is stated to a few ulp, inside the
    constant term."""
    return 8.0 * EPS * (1.0 + sum(abs(float(t)) for t in sizes))
