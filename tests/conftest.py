"""Shared oracles and fixtures for the test suite.

The moment oracles here integrate in the raw x variable on purpose: the
library's closed forms come from a Beta-kernel reduction, so the checks
must not reuse it. Mass below 1e-60 (present for pairs with small-jump
index near 2) is handled by a truncated binomial series of the endpoint
factor; everything above goes through narrow geometric quadrature panels
so the integrand never spans more than two decades per panel.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import binom

import hyplevy
from hyplevy.measures import DimensionPair, make_measure
from hyplevy.spectral import invert_to_density

_SERIES_CUT = 1e-60
_SERIES_TERMS = 12


def admissible_pairs(d_max: int) -> list[tuple[int, int]]:
    """Every admissible (d, k) with d <= d_max, lexicographic order."""
    out = []
    for d in range(4, d_max + 1):
        for k in range((d + 1) // 2 + 1, d):
            out.append((d, k))
    return out


def _stable_kernel(d: int, k: int, m: float):
    """x^(m-1-alpha) (1 - x^(2/(k-1)))^((d-k)/2-1) via log/expm1."""
    alpha = (d - 1) / (k - 1)
    up = 2.0 / (k - 1)
    e1 = 0.5 * (d - k) - 1.0

    def f(x: float) -> float:
        lx = math.log(x)
        t = -math.expm1(up * lx)
        if t <= 0.0:  # a node rounded onto the right endpoint
            return 0.0
        return math.exp((m - 1.0 - alpha) * lx + e1 * math.log(t))

    return f


def _log_coef(d: int, k: int) -> float:
    return (
        math.log(2.0)
        + 0.5 * (d - k) * math.log(math.pi)
        - math.lgamma(0.5 * (d - k))
        - math.log(k - 1.0)
    )


def _series_below_cut(d: int, k: int, m: int, lo: float) -> float:
    """The m-th moment kernel integrated over (lo, _SERIES_CUT) by the
    truncated binomial series of its endpoint factor, without the
    measure's constant."""
    alpha = (d - 1) / (k - 1)
    up = 2.0 / (k - 1)
    e1 = 0.5 * (d - k) - 1.0
    total = 0.0
    for j in range(_SERIES_TERMS):
        e = m - alpha + j * up
        total += binom(e1, j) * (-1.0) ** j * (_SERIES_CUT**e - lo**e) / e
    return total


def _panel_quad(f, start: float) -> float:
    """f integrated over (start, 1) on geometric panels of at most two
    decades each."""
    pts = [p for p in np.logspace(-60, -2, 30) if p > start]
    pts = [start] + pts + [p for p in (0.1, 0.5, 1.0) if p > start]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(pts[:-1], pts[1:]):
            total += integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=100)[0]
    return total


def pair_moment_oracle(d: int, k: int, m: int, lo: float = 0.0) -> float:
    """Quadrature of the m-th moment of the (d, k) measure over (lo, 1)."""
    coef = math.exp(_log_coef(d, k))
    if lo >= 1.0:
        return 0.0
    total = 0.0
    start = lo
    if lo < _SERIES_CUT:
        total += _series_below_cut(d, k, m, lo)
        start = _SERIES_CUT
    return coef * (total + _panel_quad(_stable_kernel(d, k, m), start))


def psi_oracle(d: int, k: int, t: float) -> complex:
    """psi(t) of the (d, k) measure, the integral of e^{itx} - 1 - itx
    against its density, by quadrature in raw x: -2 sin^2(tx/2) and
    sin(tx) - tx on the moment oracle's panels, the latter by its series
    where |tx| < 1e-2; below 1e-60 the leading terms -t^2/2 x^2 and
    -i t^3/6 x^3 by the moment series."""
    f = _stable_kernel(d, k, 0)

    def re(x: float) -> float:
        return -2.0 * math.sin(0.5 * t * x) ** 2 * f(x)

    def im(x: float) -> float:
        y = t * x
        if abs(y) < 1e-2:
            return -y**3 / 6.0 * (1.0 - y * y / 20.0 * (1.0 - y * y / 42.0)) * f(x)
        return (math.sin(y) - y) * f(x)

    below = complex(-0.5 * t**2 * _series_below_cut(d, k, 2, 0.0),
                    -t**3 / 6.0 * _series_below_cut(d, k, 3, 0.0))
    total = below + complex(_panel_quad(re, _SERIES_CUT), _panel_quad(im, _SERIES_CUT))
    return math.exp(_log_coef(d, k)) * total


def limit_moment_oracle(b: int, m: int) -> float:
    """Quadrature of the m-th moment of the codimension-limit measure,
    integral of x^(m-2) (-log x)^((b-2)/2) / Gamma(b/2) over (0, 1)."""
    e = 0.5 * (b - 2.0)
    coef = math.exp(-math.lgamma(0.5 * b))

    def f(x: float) -> float:
        lx = math.log(x)
        if lx == 0.0:  # node rounded onto 1, where the kernel is singular
            return 0.0
        return math.exp((m - 2.0) * lx + e * math.log(-lx))

    total = 0.0
    pts = [0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, bb in zip(pts[:-1], pts[1:]):
            total += integrate.quad(f, a, bb, epsabs=1e-300, epsrel=1e-12, limit=200)[0]
    return coef * total


_density_cache: dict[tuple, object] = {}


def cached_density(kind: str, param, **kwargs):
    """invert_to_density memoized across the whole test session."""
    key = (kind, param, tuple(sorted(kwargs.items())))
    if key not in _density_cache:
        if kind == "limit":
            measure = make_measure("limit", param)
        else:
            measure = make_measure(kind, DimensionPair(*param))
        _density_cache[key] = invert_to_density(measure, **kwargs)
    return _density_cache[key]


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion, emitted in
# the terminal summary so it survives output capture

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPT-{number:02d} {'pass' if ok else 'FAIL'}: {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pairs_d60() -> list[tuple[int, int]]:
    return admissible_pairs(60)


def hyplevy_env(**extra: str) -> dict:
    """os.environ for a child interpreter that imports this same hyplevy."""
    src = str(Path(hyplevy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


_PEAK_RSS_PRELUDE = """
def peak_rss_mb():
    # VmHWM belongs to this process image; ru_maxrss would carry the
    # parent's peak across fork and exec
    with open("/proc/self/status") as status:
        line = next(ln for ln in status if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0
"""


def peak_rss_rise_mb(setup: str, measured: str) -> float:
    """Run the code setup, then measured, in a fresh interpreter that
    imports this same hyplevy; the rise of its peak RSS (VmHWM, so Linux
    only) over measured, in MB."""
    script = "\n".join(
        [
            _PEAK_RSS_PRELUDE,
            textwrap.dedent(setup),
            "_before = peak_rss_mb()",
            textwrap.dedent(measured),
            "print(peak_rss_mb() - _before)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=hyplevy_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.splitlines()[-1])
