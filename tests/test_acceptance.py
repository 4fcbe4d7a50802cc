"""End-to-end scorecard: one test per headline guarantee of the library.

Every test funnels its verdict through record_criterion, which prints a
single ACCEPT-NN pass/FAIL line and re-emits all lines in the terminal
summary.  A FAIL line carries the measured numbers and the reason, so a red
entry documents a real shortfall instead of hiding it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    admissible_pairs,
    cached_density,
    pair_moment_oracle,
    record_criterion,
)
from hyplevy.cli import main
from hyplevy.measures import (
    DimensionPair,
    codim_limit_density,
    cumulant,
    make_measure,
    normalized_density,
    variance,
)
from hyplevy.regime import (
    E_TIMES_PI,
    FixedCodimensionFamily,
    PowerLawFamily,
    classify_sequence,
    tail_second_moment,
    threshold_stat,
)
from hyplevy.sampler import SamplerConfig, empirical_cumulants, sample
from hyplevy.spectral import ks_distance, ks_distance_sample
from hyplevy.specfun import (
    chebyshev_tail_bound,
    gamma_ratio_log_bounds,
    reg_inc_beta,
    stirling_log_bounds,
    wendel_lower,
)


def test_closed_form_moments_match_direct_quadrature():
    base = [(4, 3), (6, 4), (7, 5), (59, 31), (60, 31)]
    pool = admissible_pairs(60)
    pairs = sorted(set(base) | set(pool[::17]))[:50]
    worst = 0.0
    count = 0
    for d, k in pairs:
        pair = DimensionPair(d, k)
        for m in range(2, 7):
            ref = pair_moment_oracle(d, k, m)
            worst = max(worst, abs(cumulant(pair, m) - ref) / abs(ref))
            count += 1
    exact = max(
        abs(variance(DimensionPair(4, 3)) / math.pi - 1.0),
        abs(variance(DimensionPair(6, 4)) / (2.0 * math.pi) - 1.0),
        abs(variance(DimensionPair(7, 5)) / math.pi - 1.0),
        abs(cumulant(DimensionPair(4, 3), 3) / (math.pi / 2.0) - 1.0),
    )
    ok = worst <= 1e-9 and exact <= 1e-12
    record_criterion(
        1,
        ok,
        f"{count} moment orders over {len(pairs)} pairs vs quadrature, worst rel "
        f"err {worst:.2e}; four closed-form values match to {exact:.2e}",
    )


def test_analytic_bounds_hold_on_dense_sweeps():
    tol = 1e-12
    counts = {}
    bad = 0

    n = 0
    for z in np.geomspace(0.05, 80.0, 101):
        for t in np.linspace(0.0, 1.0, 101):
            rhs = math.lgamma(z + 1.0) - math.lgamma(z + t)
            if math.log(wendel_lower(z, t)) > rhs + tol * max(1.0, abs(rhs)):
                bad += 1
            n += 1
    counts["wendel"] = n

    n = 0
    for p in np.linspace(1.0, 50.0, 101):
        for q in np.linspace(0.0, 20.0, 101):
            ref = math.lgamma(p + q)
            lo, hi = gamma_ratio_log_bounds(p, q)
            slack = tol * max(1.0, abs(ref))
            if not (lo <= ref + slack and ref <= hi + slack):
                bad += 1
            n += 1
    counts["gamma-ratio"] = n

    n = 0
    for z in np.linspace(1.0, 500.0, 10001):
        ref = math.lgamma(z)
        lo, hi = stirling_log_bounds(z)
        slack = tol * max(1.0, abs(ref))
        if not (lo <= ref + slack and ref <= hi + slack):
            bad += 1
        n += 1
    counts["stirling"] = n

    n = 0
    for p, q in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.0), (3.0, 7.0)):
        mean = p / (p + q)
        for x in np.linspace(1e-3, 1.0 - 1e-3, 2525):
            if abs(x - mean) < 1e-9:
                continue
            side, bound = chebyshev_tail_bound(p, q, x)
            prob = reg_inc_beta(p, q, x)
            violated = prob > bound + tol if side == "below" else prob < bound - tol
            if violated:
                bad += 1
            n += 1
    counts["chebyshev"] = n

    n = 0
    for p in np.geomspace(0.2, 30.0, 17):
        for q in np.geomspace(0.2, 30.0, 17):
            for x in np.linspace(0.005, 0.995, 37):
                if abs(reg_inc_beta(p, q, x) + reg_inc_beta(q, p, 1.0 - x) - 1.0) > tol:
                    bad += 1
                n += 1
    counts["reflection"] = n

    total = sum(counts.values())
    ok = bad == 0 and all(v >= 10_000 for v in counts.values())
    record_criterion(
        2,
        ok,
        f"5 inequality sweeps, {total} points "
        f"({', '.join(f'{k} {v}' for k, v in counts.items())}), {bad} violations",
    )


def test_variance_tail_fraction_agrees_across_three_routes():
    rng = np.random.default_rng(20260821)
    pool = admissible_pairs(40)
    worst_refl = 0.0
    worst_quad = 0.0
    misses = 0
    for _ in range(200):
        d, k = pool[int(rng.integers(len(pool)))]
        eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
        pair = DimensionPair(d, k)
        j = tail_second_moment(pair, eps)
        assert 0.0 <= j <= 1.0
        cut = math.sqrt(variance(pair)) * eps
        y = cut ** pair.u_power if cut < 1.0 else 1.0
        refl = reg_inc_beta(pair.codim / 2.0, pair.r / 2.0, 1.0 - y)
        worst_refl = max(worst_refl, abs(j - refl))
        ref = pair_moment_oracle(d, k, 2, lo=cut) / variance(pair) if cut < 1.0 else 0.0
        if abs(j - ref) > 1e-9 * max(abs(j), abs(ref)) + 1e-12:
            misses += 1
        if ref > 1e-6:
            worst_quad = max(worst_quad, abs(j - ref) / ref)
    spot = abs(tail_second_moment(DimensionPair(4, 3), 0.1) - 0.7233548139716148)
    ok = worst_refl <= 1e-12 and misses == 0 and spot <= 1e-12
    record_criterion(
        3,
        ok,
        f"200 seeded (pair, eps) draws: closed form vs reflected incomplete-beta "
        f"worst gap {worst_refl:.2e}, vs quadrature {misses} misses "
        f"(worst rel {worst_quad:.2e}); spot value off by {spot:.2e}",
    )


def _interior_extrema(vals, rel=1e-9):
    """Local maxima and minima of a sequence, ignoring sub-rel wobble and the
    two boundary points (which sit mid-slope, not at turning points)."""
    peaks, troughs = [], []
    direction = 0
    last = vals[0]
    for v in vals[1:]:
        if abs(v - last) <= rel * max(abs(v), abs(last)):
            last = v
            continue
        step = 1 if v > last else -1
        if direction != 0 and direction != step:
            (peaks if step == -1 else troughs).append(last)
        direction = step
        last = v
    return peaks, troughs


def test_growth_exponent_separates_small_jump_dominance():
    # integer rounding of k_n makes the columns sawtooth, so "settles toward
    # its limit" is checked on the envelope of turning points past a burn-in
    fam_lo = PowerLawFamily(gamma=1.0, beta=0.3)
    fam_hi = PowerLawFamily(gamma=1.0, beta=0.7)
    ok = True
    finals = []
    for eps in (0.1, 0.5):
        lo = [tail_second_moment(fam_lo.realize(n), eps) for n in range(1, 201)]
        hi = [tail_second_moment(fam_hi.realize(n), eps) for n in range(1, 201)]
        peaks, _ = _interior_extrema(lo[50:])
        _, troughs = _interior_extrema(hi[50:])
        ok = ok and all(b < a for a, b in zip(peaks, peaks[1:]))
        ok = ok and all(b > a for a, b in zip(troughs, troughs[1:]))
        ok = ok and max(lo[150:]) < 1e-9 and min(hi[150:]) > 0.99
        ok = ok and lo[-1] < 0.1 and hi[-1] > 0.9
        finals.append(f"eps={eps}: {lo[-1]:.2e} vs {hi[-1]:.6f}")
    v_lo = classify_sequence(fam_lo)
    v_hi = classify_sequence(fam_hi)
    ok = (
        ok
        and (v_lo.label, v_lo.threshold_limit) == ("gaussian", 0.0)
        and v_hi.label == "degenerate"
        and math.isinf(v_hi.threshold_limit)
    )
    record_criterion(
        4,
        ok,
        "tail fractions at n=200 (slow vs fast growth) "
        + "; ".join(finals)
        + f"; envelopes monotone past n=50, verdicts {v_lo.label}/{v_hi.label}",
    )


def test_pair_densities_approach_the_limit_profile():
    xs = np.linspace(0.1, 0.9, 9)
    ok = True
    parts = []
    for b in (1, 2, 3):
        target = codim_limit_density(b, xs)
        errs = []
        for k in (10, 20, 40, 80, 160):
            pair = DimensionPair(k + b, k)
            errs.append(float(np.max(np.abs(normalized_density(pair, xs) - target))))
        ok = ok and errs[-1] < 0.2 * errs[0] and all(
            later < earlier for earlier, later in zip(errs, errs[1:])
        )
        parts.append(f"b={b}: sup err {errs[0]:.3g} -> {errs[-1]:.3g}")
    record_criterion(5, ok, "codimension held fixed while k grew 10 -> 160; " + "; ".join(parts))


def test_inverted_limit_densities_carry_the_right_moments():
    ok = True
    parts = []
    for b in (1, 2, 3):
        grid = cached_density("limit", b, half_width=12.0, n_points=4096)
        var_err = abs(grid.meta["variance"] - 1.0)
        skew_err = abs(grid.meta["third_central"] - 2.0 ** (-b / 2.0))
        ok = ok and var_err <= 1e-3 and skew_err <= 1e-2
        parts.append(f"b={b}: |var-1|={var_err:.1e}, |skew gap|={skew_err:.1e}")
    record_criterion(6, ok, "; ".join(parts))


def test_unit_variance_laws_drift_toward_the_normal():
    chain = [(6, 4), (24, 16), (96, 64)]
    dists = [
        ks_distance(
            cached_density("rescaled", pr, half_width=12.0, n_points=4096),
            "standard_normal",
        )
        for pr in chain
    ]
    # the rate: Berry-Esseen, KS <= 0.4748 kappa3 for a unit-variance law
    # with jumps in (0, 1) (Shevtsova 2011, arXiv:1111.6554), checked on
    # 16384 points; the 4096-point grid's interpolation floor (1.7e-6 at
    # (96,64)) lies above the bound 3.6e-7 there
    fine = [
        ks_distance(
            cached_density("rescaled", pr, half_width=12.0, n_points=16384),
            "standard_normal",
        )
        for pr in chain
    ]
    bounds = [0.4748 * cumulant(DimensionPair(*pr), 3) / variance(DimensionPair(*pr))
              for pr in chain]
    ok = (
        dists[0] > dists[1] > dists[2]
        and dists[2] < 0.05
        and all(ks <= bound for ks, bound in zip(fine, bounds))
    )
    record_criterion(
        7,
        ok,
        "KS to the standard normal along (6,4) -> (24,16) -> (96,64): "
        + " > ".join(f"{v:.2e}" for v in dists)
        + "; at 16384 points vs 0.4748 kappa3: "
        + ", ".join(f"{ks:.3e} <= {bound:.3e}" for ks, bound in zip(fine, bounds)),
    )


@pytest.mark.slow
def test_large_monte_carlo_matches_density_and_cumulants():
    pair_batch = sample(
        make_measure("rescaled", DimensionPair(4, 3)),
        1_000_000,
        SamplerConfig(cutoff_delta=1e-3, seed=20260821),
    )
    k_pair = empirical_cumulants(pair_batch.values, 4)
    ks = ks_distance_sample(
        pair_batch.values,
        cached_density("rescaled", (4, 3), half_width=12.0, n_points=16384).cdf(),
    )
    limit_batch = sample(
        make_measure("limit", 2),
        1_000_000,
        SamplerConfig(cutoff_delta=0.01, seed=7),
    )
    k_limit = empirical_cumulants(limit_batch.values, 4)
    ok = (
        0.99 <= k_pair[1] <= 1.01
        and ks <= 0.005
        and 0.475 <= k_limit[2] <= 0.525
    )
    record_criterion(
        8,
        ok,
        f"1e6 unit-variance (4,3) draws: k2={k_pair[1]:.5f}, KS vs inverted "
        f"density {ks:.5f}; 1e6 limit b=2 draws: k3={k_limit[2]:.5f}",
    )


def test_fixed_codimension_sequence_reaches_the_stated_extremes():
    # Along b = 2 the measure is 2 pi/(k-1) x^(-1-(d-1)/(k-1)) dx on (0, 1),
    # so sigma^2 = 2 pi/(d-5) exactly and sigma < 1e-2 first holds at
    # d = 62837 (n = 62835). The bar is checked at that crossing, from both
    # sides, so a rate off by one in d moves it and fails the test.
    family = FixedCodimensionFamily(b=2)
    ns = (10, 50, 100, 200, 500)
    n_cross = 62835
    pairs = {n: family.realize(n) for n in ns + (n_cross - 1, n_cross)}
    lib = {n: variance(p) for n, p in pairs.items()}
    quad = {n: pair_moment_oracle(p.d, p.k, 2) for n, p in pairs.items()}
    exact = {n: 2.0 * math.pi / (p.d - 5) for n, p in pairs.items()}
    sigmas = [math.sqrt(lib[n]) for n in ns]
    decreasing = all(b < a for a, b in zip(sigmas, sigmas[1:]))
    rate_gap = max(
        abs(route[n] / exact[n] - 1.0) for route in (lib, quad) for n in ns
    )
    crossing = all(
        math.sqrt(route[n_cross]) < 1e-2 and not math.sqrt(route[n_cross - 1]) < 1e-2
        for route in (lib, quad)
    )

    verdict = classify_sequence(family)
    walk = ns + (n_cross,)
    stats = [threshold_stat(pairs[n]) for n in walk]
    stats_ok = (
        (verdict.label, verdict.threshold_limit) == ("degenerate", 1.0)
        and all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(stats, stats[1:]))
        and max(stats) < E_TIMES_PI
    )

    tails_ok = True
    tail_parts = []
    for eps in (0.1, 0.5):
        tails = [tail_second_moment(pairs[n], eps) for n in walk]
        closed = [
            1.0 - (math.sqrt(exact[n]) * eps) ** ((pairs[n].k - 3) / (pairs[n].k - 1))
            for n in walk
        ]
        tails_ok = (
            tails_ok
            and all(a < b < 1.0 for a, b in zip(tails, tails[1:]))
            and max(abs(t - c) for t, c in zip(tails, closed)) <= 1e-12
        )
        tail_parts.append(f"eps={eps}: {tails[0]:.6g} -> {tails[-2]:.6g} -> {tails[-1]:.6g}")

    ok = decreasing and rate_gap <= 1e-9 and crossing and stats_ok and tails_ok
    record_criterion(
        9,
        ok,
        f"b=2: sigma strictly decreasing={decreasing}, sigma(n=500)={sigmas[-1]:.5f}; "
        f"sigma^2 vs 2*pi/(d-5) worst rel gap {rate_gap:.1e} (variance and "
        f"quadrature); sigma^2 at n={n_cross - 1}/{n_cross} = "
        f"{lib[n_cross - 1]:.7e}/{lib[n_cross]:.7e} (quadrature "
        f"{quad[n_cross - 1]:.7e}/{quad[n_cross]:.7e}), sigma < 1e-2 first at "
        f"n={n_cross}: {crossing}; verdict {verdict.label} (limit "
        f"{verdict.threshold_limit}), threshold stat {stats[-2]:.5f} -> "
        f"{stats[-1]:.6f} < e*pi={E_TIMES_PI:.5f}: {stats_ok}; tail fractions "
        f"over n=10 -> 500 -> {n_cross} " + "; ".join(tail_parts) + f": {tails_ok}",
    )


def test_command_line_runs_reproduce_from_recorded_arguments(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPLEVY_OUTDIR", str(tmp_path))
    file_specs = [
        ["density", "--family", "rescaled", "--d", "4", "--k", "3",
         "--half-width", "8", "--n-points", "512", "--out", "a/d.csv"],
        ["sample", "--family", "limit", "--b", "2", "--n", "64", "--seed", "5",
         "--delta", "0.01", "--out", "a/s.csv"],
        ["probe", "--sequence", "power-law", "--gamma", "1", "--beta", "0.7",
         "--n", "1,2,3", "--eps", "0.1,0.5", "--out", "a/p.csv"],
    ]
    ok = True
    parts = []
    for argv in file_specs:
        assert main(list(argv)) == 0
        first = (tmp_path / argv[-1]).read_text().splitlines()
        prov = json.loads(first[0][len("# provenance: "):])
        replay = list(prov["argv"])
        replay[replay.index("--out") + 1] = "b/" + Path(argv[-1]).name
        assert main(replay) == 0
        second = (tmp_path / replay[replay.index("--out") + 1]).read_text().splitlines()
        same = first[1:] == second[1:]
        ok = ok and same
        parts.append(f"{argv[0]} {'reproduced' if same else 'DIVERGED'} ({len(first) - 2} rows)")
    stdout_specs = [
        ["variance", "4", "3"],
        ["cumulants", "--family", "limit", "--b", "2", "--max-order", "6"],
        ["classify", "--sequence", "power-law", "--gamma", "1", "--beta", "0.3"],
        ["specfun", "--op", "reg-inc-beta", "2.5", "3.5", "0.3"],
    ]
    for argv in stdout_specs:
        capsys.readouterr()
        assert main(list(argv)) == 0
        out_a = capsys.readouterr().out
        assert main(list(argv)) == 0
        out_b = capsys.readouterr().out
        same = out_a == out_b
        ok = ok and same
        parts.append(f"{argv[0]} stdout {'reproduced' if same else 'DIVERGED'}")
    record_criterion(10, ok, "replayed recorded argv into fresh paths: " + "; ".join(parts))
