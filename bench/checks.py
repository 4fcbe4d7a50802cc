"""Correctness checks on hyplevy's outputs.

Every check returns a list of failure messages (empty when it passes) and
takes plain numbers or arrays, so the benchmark's tests can feed it
deliberately wrong outputs. Tolerances come from one of three sources and
never from an observed error:

- Monte Carlo: z standard errors of the k-statistics, with the standard
  errors computed from the law's cumulants and z fixed by a Bonferroni
  split of a 1e-6 false-alarm probability over all checks of a run;
- log-Gamma differences: the rounding of the largest terms
  (`reference.log_gamma_tol`);
- the program's stated accuracy: quadrature rel_tol = 1e-11 (1e-12 in the
  sampler's moment quadratures and the incomplete Beta's continued
  fraction) and the cf decay threshold 1e-12 of the density inversion.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import reference as ref
from reference import EPS, Law

FALSE_ALARM = 1e-6
CF_REL_TOL = 1e-11
QUAD_REL_TOL = 1e-12
BETA_REL_TOL = 1e-12
DECAY_THRESHOLD = 1e-12
# scipy's betainc/betaincc (Boost ibeta): relative accuracy of the
# reference incomplete Beta, within a few hundred ulp at large shapes
REF_BETA_REL = 1e-13
E_TIMES_PI = math.e * math.pi


def close(name: str, got: float, want: float, tol: float) -> list[str]:
    """|got - want| <= tol, with tol absolute."""
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{name}: got {got!r}, want {want!r} within {tol:.3g}"]
    return []


def z_value(n_checks: int) -> float:
    """Two-sided z so that n_checks normal checks together raise a false
    alarm with probability below FALSE_ALARM."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * n_checks))


# ----------------------------------------------------------------- draws


def k_statistics(values: np.ndarray) -> tuple[float, float, float, float]:
    """Unbiased estimators (k1, k2, k3, k4) of the first four cumulants."""
    x = np.asarray(values, dtype=float)
    n = float(x.size)
    mean = float(np.mean(x))
    c = x - mean
    c2 = c * c
    m2 = float(np.mean(c2))
    m3 = float(np.mean(c2 * c))
    m4 = float(np.mean(c2 * c2))
    k2 = n / (n - 1.0) * m2
    k3 = n * n / ((n - 1.0) * (n - 2.0)) * m3
    k4 = n * n * ((n + 1.0) * m4 - 3.0 * (n - 1.0) * m2 * m2) / (
        (n - 1.0) * (n - 2.0) * (n - 3.0)
    )
    return mean, k2, k3, k4


def k_statistic_se(n: int, kap: dict[int, float]) -> tuple[float, float, float, float]:
    """Exact standard errors of (k1, k2, k3, k4) for a sample of n draws of
    a law with cumulants kap[2..8] (Kendall & Stuart, Vol. 1, 12.x)."""
    n = float(n)
    k2, k3, k4, k5, k6, k8 = kap[2], kap[3], kap[4], kap[5], kap[6], kap[8]
    v1 = k2 / n
    v2 = k4 / n + 2.0 * k2 * k2 / (n - 1.0)
    v3 = (
        k6 / n
        + 9.0 * k2 * k4 / (n - 1.0)
        + 9.0 * k3 * k3 / (n - 1.0)
        + 6.0 * n * k2**3 / ((n - 1.0) * (n - 2.0))
    )
    v4 = (
        k8 / n
        + 16.0 * k2 * k6 / (n - 1.0)
        + 48.0 * k3 * k5 / (n - 1.0)
        + 34.0 * k4 * k4 / (n - 1.0)
        + 72.0 * n * k2 * k2 * k4 / ((n - 1.0) * (n - 2.0))
        + 144.0 * n * k2 * k3 * k3 / ((n - 1.0) * (n - 2.0))
        + 24.0 * n * (n + 1.0) * k2**4 / ((n - 1.0) * (n - 2.0) * (n - 3.0))
    )
    return math.sqrt(v1), math.sqrt(v2), math.sqrt(v3), math.sqrt(v4)


def check_draws(label: str, values: np.ndarray, kap: dict[int, float], z: float) -> list[str]:
    """Mean, k2, k3 and k4 of the draws within z standard errors of 0 and
    the truncated law's cumulants kap[2..4] (the Gaussian proxy for the
    small jumps carries no cumulant above the second)."""
    stats = k_statistics(values)
    ses = k_statistic_se(len(values), kap)
    want = (0.0, kap[2], kap[3], kap[4])
    out = []
    for name, got, exp, se in zip(("mean", "k2", "k3", "k4"), stats, want, ses):
        out += close(f"{label} {name} (n={len(values)}, z={z:.2f})", got, exp, z * se)
    return out


def coef_log_sizes(law: Law) -> list[float]:
    """Magnitudes of the log terms that build the law's density
    coefficient; they size the rounding of anything scaled by it."""
    if law.family == "limit":
        return [ref.log_gamma_size(0.5 * law.b)]
    sizes = ref.log_omega_sizes(law.codim) + [math.log(law.k - 1)]
    if law.family == "rescaled":
        sizes += ref.log_variance_sizes(law.d, law.k)
    return sizes


def truncated_cumulants(law: Law, delta: float) -> dict[int, float]:
    """Cumulants of the law the sampler draws: jumps above delta plus a
    Gaussian with the variance of the jumps below it."""
    kap = {m: ref.moment(law, m, delta) for m in range(3, 9)}
    kap[2] = ref.second_moment(law)
    return kap


def check_sampler_diagnostics(label: str, law: Law, diag: dict, delta: float) -> list[str]:
    """jump_rate, compensator and small_jump_variance against quadrature of
    the written-out density; the program's integrals carry rel_tol 1e-12
    and the rounding of the law's coefficient."""
    rel = QUAD_REL_TOL + ref.log_gamma_tol(*coef_log_sizes(law))
    out = []
    for key, m, lo, hi in (
        ("jump_rate", 0, delta, 1.0),
        ("compensator", 1, delta, 1.0),
        ("small_jump_variance", 2, 0, delta),
    ):
        want = ref.moment(law, m, lo, hi)
        tol = rel * abs(want)
        if key == "small_jump_variance" and law.family != "limit":
            # computed as the total times I_a(p, b/2), a = delta^(2/(k-1))
            total = ref.second_moment(law)
            p = 0.5 * ((law.k - 1) * 2 - (law.d - 1))
            a = delta ** (2.0 / (law.k - 1))
            tol += total * tail_tolerance(p, 0.5 * law.codim, a, 1.0 - want / total, 0.0, 0.0)
        out += close(f"{label} {key}", float(diag[key]), want, tol)
    return out


# --------------------------------------------------------------- density


def grid_moments(x0: float, step: float, values: np.ndarray) -> dict[str, float]:
    """Trapezoid mass, mean, variance and third central moment of a grid."""
    v = np.asarray(values, dtype=float)
    w = np.full(v.size, step)
    w[0] = w[-1] = 0.5 * step
    xs = x0 + step * np.arange(v.size)
    mass = float(np.sum(w * v))
    mean = float(np.sum(w * v * xs)) / mass
    c = xs - mean
    return {
        "mass": mass,
        "mean": mean,
        "variance": float(np.sum(w * v * c * c)) / mass,
        "third_central": float(np.sum(w * v * c * c * c)) / mass,
    }


def _tail_moment_bound(s2: float, w: float, p: int) -> float:
    """Bound on E[|X|^p; |X| > w] for a zero-mean law with second moment
    s2 and jumps in (0, 1): Bennett's inequality on the right,
    P(X > x) <= exp(-s2 h(x/s2)) with h(u) = (1+u) log(1+u) - u, and the
    sub-Gaussian bound exp(-x^2 / (2 s2)) on the left (no negative jumps),
    integrated as w^p P(.> w) + int_w^inf p x^(p-1) P(. > x) dx."""
    xs = w + np.arange(0, 20_000) * 1e-2 * max(1.0, math.sqrt(s2))
    dx = xs[1] - xs[0]
    u = xs / s2
    right = np.exp(-s2 * ((1.0 + u) * np.log1p(u) - u))
    left = np.exp(-xs * xs / (2.0 * s2))
    tail = right + left
    out = w**p * tail[0]
    if p > 0:
        out += float(np.sum(p * xs ** (p - 1) * tail) * dx)
    return out


def density_tolerances(
    s2: float, kappa3: float, t_cut: float, half_width: float, n_points: int
) -> dict[str, float]:
    """Absolute tolerances on the inverted density's mass, variance and
    third central moment.

    The inversion keeps cf samples up to t_cut, each with an absolute
    error of at most rel_tol |psi| e^{Re psi} <= rel_tol (1 + t_cut)
    (|Im psi / Re psi| <= t on the grid), and drops the spectrum beyond
    t_cut, where |cf| < decay_threshold and decays at least exponentially,
    so its integral is below decay_threshold * t_cut. The density error is
    then at most df = (t_cut / pi) (threshold + (1 + t_cut) rel_tol) plus
    the FFT's rounding; clipping negative ripple at most doubles it. The
    periodic window [-W, W], W = half_width * sigma, folds the tails back
    in, which moves the p-th moment by at most 3 E[|X|^p; |X| > W].
    """
    w = half_width * math.sqrt(s2)
    df = (t_cut / math.pi) * (DECAY_THRESHOLD + (1.0 + t_cut) * CF_REL_TOL)
    df += EPS * math.log2(n_points) * t_cut / math.pi
    e = [
        2.0 * df * 2.0 * w ** (p + 1) / (p + 1) + 3.0 * _tail_moment_bound(s2, w, p)
        for p in range(4)
    ]
    e[0] += n_points * EPS
    norm = 1.0 - e[0]
    mean_err = e[1] / norm
    var_err = (e[2] + s2 * e[0]) / norm + mean_err**2
    third_err = (
        (e[3] + abs(kappa3) * e[0]) / norm
        + 3.0 * mean_err * (s2 + var_err)
        + 2.0 * mean_err**3
    )
    return {"mass": e[0], "mean": mean_err, "variance": var_err, "third_central": third_err}


def check_density(
    label: str,
    meta: dict,
    x0: float,
    step: float,
    values: np.ndarray,
    s2: float,
    kappa3: float,
) -> list[str]:
    """Raw mass, variance and third central moment of an inverted density
    against 1, sigma^2 and kappa_3, and the grid's own moments against its
    reported meta."""
    tol = density_tolerances(s2, kappa3, meta["cf_cutoff"], meta["half_width"], len(values))
    out = close(f"{label} mass", meta["mass"], 1.0, tol["mass"])
    out += close(f"{label} variance", meta["variance"], s2, tol["variance"])
    out += close(f"{label} third_central", meta["third_central"], kappa3, tol["third_central"])
    if not np.all(values >= 0.0):
        out.append(f"{label}: negative density values")
    own = grid_moments(x0, step, values)
    # the grid is renormalized after clipping, so its own moments agree
    # with meta up to the rounding of sums over n_points terms
    round_tol = 4.0 * len(values) * EPS
    out += close(f"{label} grid mass", own["mass"], 1.0, round_tol)
    for key in ("variance", "third_central"):
        scale = (meta["half_width"] * math.sqrt(s2)) ** (2 if key == "variance" else 3)
        out += close(f"{label} grid {key}", own[key], meta[key], round_tol * scale)
    return out


def check_cf(label: str, t: float, psi_got: complex, psi_want: complex, lg_rel: float) -> list[str]:
    """The program's characteristic exponent at t against the reference:
    the quadrature's stated rel_tol plus the rounding of the law's
    log-Gamma coefficient."""
    tol = (CF_REL_TOL + lg_rel) * abs(psi_want) + 4.0 * EPS
    if not abs(psi_got - psi_want) <= tol:
        return [f"{label} psi({t:.6g}): got {psi_got!r}, want {psi_want!r} within {tol:.3g}"]
    return []


# ---------------------------------------------------------------- regime


def dichotomy(gamma: float, beta: float) -> tuple[str, float]:
    """Verdict and threshold limit of a power-law family k = d/2 + gamma d^beta:
    the statistic behaves like 4 gamma^2 d^(2 beta - 1), compared with e*pi."""
    if beta < 0.5:
        return "gaussian", 0.0
    if beta > 0.5:
        return "degenerate", math.inf
    limit = 4.0 * gamma * gamma
    if abs(limit - E_TIMES_PI) <= 1e-12 * E_TIMES_PI:
        return "indeterminate", limit
    return ("gaussian" if limit < E_TIMES_PI else "degenerate"), limit


def tail_tolerance(p: float, q: float, y: float, upper: float, y_rel: float, density: float) -> float:
    """Absolute error bound of a tail fraction 1 - I_y(p, q) computed by
    the continued fraction (rel_tol 1e-12) on the side the method's switch
    at y = (p+1)/(p+q+2) selects, with a front factor whose log sums terms
    of size p|log y| + q|log(1-y)| + |log B(p, q)|, and a cutoff y known to
    relative accuracy y_rel (density = Beta(p, q) pdf at y)."""
    lower = 1.0 - upper
    side = lower if y < (p + 1.0) / (p + q + 2.0) else upper
    front_terms = abs(p * math.log(y)) + abs(q * math.log1p(-y)) + abs(_log_beta_size(p, q))
    rel = BETA_REL_TOL + 8.0 * EPS * (1.0 + front_terms)
    return rel * side + density * y * y_rel + 4.0 * EPS


def _log_beta_size(p: float, q: float) -> float:
    """Sum of magnitudes of the terms of log B(p, q) as a double computes it."""
    return ref.log_gamma_size(p) + ref.log_gamma_size(q) + ref.log_gamma_size(p + q)
