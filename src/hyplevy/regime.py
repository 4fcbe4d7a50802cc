"""Regime classification along dimension sequences.

The dichotomy: along a sequence of admissible pairs (d_n, k_n) with
k_n/d_n -> 1/2, the normalized law converges to a standard Gaussian when
limsup d^(-1) r^(d/k) stays below e*pi (r = 2k - d - 1), and collapses to
the point mass at 0 when liminf of that statistic exceeds e*pi or when
liminf k_n/d_n > 1/2. The threshold statistic, the tail functional that
witnesses the dichotomy, and classifiers for three sequence families live
here.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import DomainError, InadmissiblePairError
from .measures import DimensionPair, _check_codim, log_variance
from .specfun import reg_inc_beta

E_TIMES_PI = math.e * math.pi

__all__ = [
    "E_TIMES_PI",
    "threshold_stat",
    "tail_second_moment",
    "SequenceFamily",
    "FixedCodimensionFamily",
    "PowerLawFamily",
    "ExplicitFamily",
    "RegimeVerdict",
    "ProbeRow",
    "ProbeTable",
    "classify_sequence",
    "probe_regime",
]


def threshold_stat(pair: DimensionPair) -> float:
    """d^(-1) r^(d/k), evaluated as exp((d/k) log r - log d)."""
    return math.exp(pair.d / pair.k * math.log(pair.r) - math.log(pair.d))


def tail_second_moment(pair: DimensionPair, eps: float) -> float:
    """Second moment carried by jumps above eps after variance rescaling.

    Equals 1 - I((2k-d-1)/2, (d-k)/2; (sigma eps)^(2/(k-1))) with the
    regularized incomplete Beta extended by I = 1 past the right endpoint,
    so the value is exactly 0 once sigma*eps >= 1. The cutoff power is
    evaluated as exp((2/(k-1)) (log sigma + log eps)) to keep precision
    when sigma*eps is tiny.
    """
    if not eps > 0.0:
        raise DomainError(f"tail_second_moment requires eps > 0, got {eps!r}")
    log_cut = 0.5 * log_variance(pair) + math.log(eps)
    if log_cut >= 0.0:
        return 0.0
    y = math.exp(pair.u_power * log_cut)
    return 1.0 - reg_inc_beta(0.5 * pair.r, 0.5 * pair.codim, y)


class SequenceFamily(ABC):
    """A rule n -> (d_n, k_n) over admissible pairs."""

    @abstractmethod
    def realize(self, n: int) -> DimensionPair:
        """The n-th pair (n >= 1); raises InadmissiblePairError when the
        rule leaves the admissible range at this index."""


@dataclass(frozen=True)
class FixedCodimensionFamily(SequenceFamily):
    """d_n = n + d_offset with constant codimension b (k_n = d_n - b)."""

    b: int
    d_offset: int = 2

    def __post_init__(self) -> None:
        _check_codim(self.b)

    def realize(self, n: int) -> DimensionPair:
        d = n + self.d_offset
        try:
            return DimensionPair(d, d - self.b)
        except InadmissiblePairError as exc:
            raise InadmissiblePairError(f"index n={n}: {exc}") from exc


@dataclass(frozen=True)
class PowerLawFamily(SequenceFamily):
    """k_n near d_n/2 + gamma d_n^beta on the grid d_n = d_step * n.

    rounding "ceil" takes the smallest integer at or above the raw value,
    "floor" the integer part; either way the result is clamped into the
    admissible window [(d+1)//2 + 1, d - 1], so every realized pair is
    admissible whenever that window is nonempty (it is for all d >= 4).
    The analytic classification depends only on (gamma, beta); rounding
    and clamping only affect realized pairs.
    """

    gamma: float
    beta: float
    d_step: int = 4
    rounding: str = "ceil"

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma!r}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (isinstance(self.d_step, int) and self.d_step >= 1):
            raise DomainError(f"d_step must be a positive integer, got {self.d_step!r}")
        if self.rounding not in ("ceil", "floor"):
            raise DomainError(f"rounding must be 'ceil' or 'floor', got {self.rounding!r}")

    def realize(self, n: int) -> DimensionPair:
        d = self.d_step * n
        k_lo = (d + 1) // 2 + 1  # smallest k with 2k > d + 1
        if k_lo > d - 1:
            raise InadmissiblePairError(
                f"index n={n}: no admissible k exists for d_n = {d}"
            )
        # any raw >= d clamps to d - 1; capping it first keeps an infinite
        # raw (gamma = inf, or gamma d^beta overflowing) out of the rounding
        raw = min(0.5 * d + self.gamma * d**self.beta, d)
        k = math.ceil(raw) if self.rounding == "ceil" else math.floor(raw)
        return DimensionPair(d, min(max(k, k_lo), d - 1))


@dataclass(frozen=True)
class ExplicitFamily(SequenceFamily):
    """A finite user-supplied list of pairs, indexed from 1."""

    pairs: tuple[DimensionPair, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) == 0:
            raise DomainError("explicit family needs at least one pair")

    def realize(self, n: int) -> DimensionPair:
        if not 1 <= n <= len(self.pairs):
            raise DomainError(f"index n={n} outside 1..{len(self.pairs)}")
        return self.pairs[n - 1]


@dataclass(frozen=True)
class RegimeVerdict:
    """label in {gaussian, degenerate, indeterminate}, the limit (or last
    finite proxy) of the threshold statistic, and a one-line rationale."""

    label: str
    threshold_limit: float
    rationale: str


@dataclass(frozen=True)
class ProbeRow:
    n: int
    d: int
    k: int
    r: int
    sigma: float
    threshold_stat: float
    epsilon: float
    tail_second_moment: float
    log_sigma: float  # finite where sigma underflows to 0


@dataclass(frozen=True)
class ProbeTable:
    rows: tuple[ProbeRow, ...]
    verdict: RegimeVerdict


def classify_sequence(family: SequenceFamily, margin: float = 0.1) -> RegimeVerdict:
    """Apply the dichotomy to a sequence family.

    Power-law families are classified analytically: the threshold statistic
    behaves like 4 gamma^2 d^(2 beta - 1), so beta < 1/2 gives the Gaussian
    limit, beta > 1/2 the degenerate one, and at beta = 1/2 the limit
    4 gamma^2 is compared against e*pi (the critical equality case is
    indeterminate, it is not settled by the dichotomy). An infinite gamma
    realizes k = d - 1 at every d: degenerate, with an infinite limit, for
    every beta. Fixed-codimension families have k/d -> 1 > 1/2 and are
    degenerate. Explicit finite lists are judged from their tail and must
    clear the given relative margin, otherwise the verdict is indeterminate.
    """
    if not 0.0 < margin < 1.0:
        raise DomainError(f"margin must lie in (0, 1), got {margin!r}")
    if isinstance(family, PowerLawFamily):
        if math.isinf(family.gamma):
            return RegimeVerdict("degenerate", math.inf, "gamma = inf realizes k = d - 1: k/d -> 1 > 1/2")
        if family.beta < 0.5:
            return RegimeVerdict(
                "gaussian",
                0.0,
                "threshold statistic ~ 4 gamma^2 d^(2 beta - 1) -> 0 < e*pi "
                "with k/d -> 1/2",
            )
        if family.beta > 0.5:
            return RegimeVerdict(
                "degenerate",
                math.inf,
                "threshold statistic ~ 4 gamma^2 d^(2 beta - 1) -> inf > e*pi",
            )
        try:
            limit = 4.0 * family.gamma**2
        except OverflowError:  # a finite gamma past 1.3e154
            limit = math.inf
        if abs(limit - E_TIMES_PI) <= 1e-12 * E_TIMES_PI:
            return RegimeVerdict(
                "indeterminate",
                limit,
                "critical case: threshold statistic -> e*pi exactly, not "
                "settled by the dichotomy",
            )
        if limit < E_TIMES_PI:
            return RegimeVerdict(
                "gaussian", limit, f"threshold statistic -> 4 gamma^2 = {limit:.6g} < e*pi"
            )
        return RegimeVerdict(
            "degenerate", limit, f"threshold statistic -> 4 gamma^2 = {limit:.6g} > e*pi"
        )
    if isinstance(family, FixedCodimensionFamily):
        return RegimeVerdict(
            "degenerate",
            1.0,
            "k/d -> 1 > 1/2, the variance of the rescaled law escapes below "
            "every fixed jump size",
        )
    if isinstance(family, ExplicitFamily):
        pairs = family.pairs
        tail = pairs[-max(3, len(pairs) // 4):]
        ratios = [p.k / p.d for p in tail]
        stats = [threshold_stat(p) for p in tail]
        proxy = stats[-1]
        if min(ratios) >= 0.5 * (1.0 + margin):
            return RegimeVerdict(
                "degenerate", proxy, "tail of k/d stays above (1 + margin)/2"
            )
        if max(abs(rho - 0.5) for rho in ratios) <= 0.5 * margin:
            if max(stats) <= (1.0 - margin) * E_TIMES_PI:
                return RegimeVerdict(
                    "gaussian", proxy,
                    "tail threshold statistic stays below (1 - margin) e*pi "
                    "with k/d near 1/2",
                )
            if min(stats) >= (1.0 + margin) * E_TIMES_PI:
                return RegimeVerdict(
                    "degenerate", proxy,
                    "tail threshold statistic stays above (1 + margin) e*pi",
                )
        return RegimeVerdict(
            "indeterminate", proxy,
            "finite list does not certify either clause at the given margin",
        )
    raise DomainError(f"unknown sequence family {type(family).__name__}")


def probe_regime(family: SequenceFamily, n_values, eps_values) -> ProbeTable:
    """Tabulate (n, d, k, r, sigma, threshold_stat, epsilon, tail,
    log_sigma) rows.

    Admissibility failures propagate, tagged with the offending index.
    """
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise DomainError("probe_regime needs at least one epsilon")
    rows = []
    for n in n_values:
        pair = family.realize(n)
        log_sigma = 0.5 * log_variance(pair)
        sigma = math.exp(log_sigma)
        stat = threshold_stat(pair)
        for eps in eps_list:
            rows.append(
                ProbeRow(
                    n=n,
                    d=pair.d,
                    k=pair.k,
                    r=pair.r,
                    sigma=sigma,
                    threshold_stat=stat,
                    epsilon=eps,
                    tail_second_moment=tail_second_moment(pair, eps),
                    log_sigma=log_sigma,
                )
            )
    return ProbeTable(rows=tuple(rows), verdict=classify_sequence(family))
