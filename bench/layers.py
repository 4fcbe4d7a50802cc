"""Per-layer metrics: the same fixed inputs on every workload's traced run.

Each metric is one layer's cost or work count, measured around public
hyplevy calls (or in a fresh process where the cost is a first call).
README.md lists the end-to-end metric each should move. Timings are the
median of a few repetitions; counts are exact.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time

import numpy as np

import child
import manifest as mf
from workloads import OUT, child_probe, measure_of
from reference import Law

SLOPE_LAW = Law("rescaled", 4, 3)
SLOPE_DELTAS = (1e-3, 4e-3)  # 6721 and about 1.1e3 jumps per draw
SLOPE_DRAWS = 1000
CHUNK = 1 << 20
CF_LAWS = (Law("rescaled", 4, 3), Law("rescaled", 40, 21), Law("limit", b=2))
REPS = 3


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sampler_metrics() -> dict:
    from hyplevy import SamplerConfig, inverse_jump_cdf, partial_moment, sample, tail_mass

    m = measure_of(SLOPE_LAW)
    delta = SLOPE_DELTAS[0]
    jumps, secs = [], []
    for d in SLOPE_DELTAS:
        cfg = SamplerConfig(cutoff_delta=d, seed=1, batch_size=SLOPE_DRAWS)
        rate = sample(m, 1, cfg).diagnostics["jump_rate"]  # builds the table
        jumps.append(rate * SLOPE_DRAWS)
        secs.append(_median_time(lambda: sample(m, SLOPE_DRAWS, cfg)))
    slope = (secs[0] - secs[1]) / (jumps[0] - jumps[1])
    intercept = (secs[0] - slope * jumps[0]) / SLOPE_DRAWS

    gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((1, 0))))
    buf = np.empty(CHUNK)
    rng_s = _median_time(lambda: gen.random(out=buf), 5)
    p = np.random.default_rng(2).random(CHUNK)
    quant_s = _median_time(lambda: inverse_jump_cdf(m, p, delta), 5)
    moments_s = _median_time(lambda: (
        tail_mass(m, delta),
        partial_moment(m, delta, 2, "below"),
        partial_moment(m, delta, 1, "above"),
    ), 5)
    built = child_probe("table-build")
    return {
        "sampler.ns_per_jump": (slope * 1e9, "ns"),
        "sampler.us_per_draw_fixed": (intercept * 1e6, "us"),
        "sampler.jumps_per_draw": (jumps[0] / SLOPE_DRAWS, "count"),
        "sampler.rng_ns_per_uniform": (rng_s / CHUNK * 1e9, "ns"),
        "sampler.quantile_ns_per_point": (quant_s / CHUNK * 1e9, "ns"),
        "sampler.table_build_s": (built["seconds"], "s"),
        "sampler.table_cells": (built["cells"], "count"),
        "sampler.moments_ms": (moments_s * 1e3, "ms"),
    }


def spectral_metrics() -> dict:
    from hyplevy import char_function, invert_to_density

    evals, cf_us, rest_ms = [], [], []
    for law in CF_LAWS:
        m = measure_of(law)
        grid = invert_to_density(m)
        dt = math.pi / (grid.meta["half_width"] * math.sqrt(m.total_second_moment))
        t_cut = grid.meta["cf_cutoff"]
        n_grid = int(math.floor(t_cut / dt + 1e-9))
        n_probe = int(round(math.log2(t_cut / (4.0 * dt)))) + 1  # doubling search from 4 dt
        ts = dt * np.arange(1, n_grid + 1)
        per_eval = _median_time(lambda: [char_function(m, t) for t in ts]) / n_grid
        dens = _median_time(lambda: invert_to_density(m))
        evals.append(n_grid + n_probe)
        cf_us.append(per_eval * 1e6)
        rest_ms.append((dens - (n_grid + n_probe) * per_eval) * 1e3)
    return {
        "spectral.cf_us_per_eval": (statistics.mean(cf_us), "us"),
        "spectral.cf_evals_per_density": (statistics.mean(evals), "count"),
        "spectral.rest_ms_per_density": (statistics.mean(rest_ms), "ms"),
    }


def _kernels():
    """Benchmark-side copies of the family integrands hyplevy hands to its
    quadratures: the Beta kernel u^-(d+1)/2 (1-u)^(b/2-1) of the pair
    tail mass, the pair cf integrand in u, and the limit family's
    e^{-(m-1)v} v^((b-2)/2) moments and cf integrand in v = -log x."""
    def pair_tail(d, k, delta):
        e_top, e_side = 0.5 * (d + 1.0), 0.5 * (d - k) - 1.0

        def f(u, um1):
            out = np.exp(-e_top * np.log(u))
            return out * np.exp(e_side * np.log(um1)) if e_side else out
        return f, {"a": delta ** (2.0 / (k - 1)), "b": 1.0, "rel_tol": 1e-12, "abs_tol": 1e-300}

    def pair_cf(d, k, t):
        c, e_top, e_side = 0.5 * (k - 1.0), 0.5 * (d + 1.0), 0.5 * (d - k) - 1.0
        e_ser = 0.5 * (2 * k - d - 1) - 1.0  # y^2 u^-(d+1)/2 = t^2 u^(r/2 - 1)

        def f(u, um1):
            lu = np.log(u)
            x = np.exp(c * lu)
            y = t * x
            w2 = np.exp(e_ser * lu)
            ser = -0.5 * t * t * w2 - 1j * t**3 / 6.0 * w2 * x
            with np.errstate(over="ignore", invalid="ignore"):
                direct = (-2.0 * np.sin(0.5 * y) ** 2 + 1j * (np.sin(y) - y)) * np.exp(-e_top * lu)
            val = np.where(np.abs(y) < 1e-4, ser, direct)
            return val * (np.exp(e_side * np.log(um1)) if e_side else 1.0)
        return f, {"rel_tol": 1e-11, "abs_tol": 1e-300}

    def limit_moment(b, m, delta):
        e = 0.5 * (b - 2.0)

        def f(v):
            out = np.exp(-(m - 1.0) * v)
            return out * np.power(v, e) if e else out
        return f, {"a": -math.log(delta), "rel_tol": 1e-12, "abs_tol": 1e-300}

    def limit_cf(b, t):
        e = 0.5 * (b - 2.0)

        def f(v):
            ev = np.exp(-v)
            y = t * ev
            with np.errstate(over="ignore", invalid="ignore"):
                val = (-2.0 * np.sin(0.5 * y) ** 2 + 1j * (np.sin(y) - y)) * np.exp(np.minimum(v, 700.0))
            val = np.where((np.abs(y) < 1e-4) | (v > 700.0), -0.5 * t * t * ev, val)
            return val * (np.power(v, e) if e else 1.0)
        return f, {"rel_tol": 1e-11, "abs_tol": 1e-300}

    ts = [pair_tail(4, 3, 1e-3), pair_tail(10, 7, 1e-3), pair_cf(4, 3, 2.0), pair_cf(40, 21, 8.0)]
    es = [limit_moment(1, 2, 1e-3), limit_moment(3, 2, 1e-3), limit_cf(2, 2.0), limit_cf(3, 8.0)]
    return ts, es


def quadrature_metrics() -> dict:
    from hyplevy.quadrature import exp_sinh, tanh_sinh

    out = {}
    for name, rule, kernels in zip(("tanh_sinh", "exp_sinh"), (tanh_sinh, exp_sinh), _kernels()):
        points, secs = 0, []
        for f, kw in kernels:
            count = [0]

            def counted(x, *rest, f=f, count=count):
                count[0] += np.size(x)
                return f(x, *rest)

            rule(counted, **kw)
            points += count[0]
            secs.append(_median_time(lambda: rule(f, **kw), 20))
        out[f"quadrature.{name}_evals"] = (points / len(kernels), "count")
        out[f"quadrature.{name}_us"] = (statistics.mean(secs) * 1e6, "us")
    return out


def specfun_regime_metrics() -> dict:
    sf = child_probe("specfun")
    rg = child_probe("regime")
    return {
        "specfun.log_gamma_cold_s": (sf["cold_s"], "s"),
        "specfun.log_gamma_rss_mb": (sf["rss_mb"], "MB"),
        "specfun.log_gamma_ns": (sf["warm_ns"], "ns"),
        "specfun.reg_inc_beta_us": (sf["reg_inc_beta_us"], "us"),
        "regime.probe_cold_s": (rg["probe_cold_s"], "s"),
        "regime.probe_us_per_row": (rg["probe_us_per_row"], "us"),
        "measures.variance_us": (rg["variance_us"], "us"),
        "measures.cumulant_us": (rg["cumulant_us"], "us"),
    }


def cli_metrics() -> dict:
    from hyplevy import DimensionPair, invert_to_density, variance
    from hyplevy.cli import main

    law = Law("rescaled", 4, 3)
    m = measure_of(law)
    out_csv = str(OUT / "layers" / "density.csv")

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError(f"hyplevy {' '.join(argv)} failed")

    density_argv = ["density", *law.cli_args(), "--out", out_csv]
    quiet(density_argv)
    cli_s = _median_time(lambda: quiet(density_argv))
    lib = invert_to_density(m)
    lib_s = _median_time(lambda: invert_to_density(m))
    rows = len(lib.values)
    pair = DimensionPair(4, 3)
    run_s = _median_time(lambda: quiet(["variance", "4", "3"]), 21)
    var_s = _median_time(lambda: variance(pair), 21)
    imports = [child_probe("cli-import")["seconds"] for _ in range(REPS)]
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.csv_us_per_row": ((cli_s - lib_s) / rows * 1e6, "us"),
        "cli.run_overhead_ms": ((run_s - var_s) * 1e3, "ms"),
    }, {"cli_density_s": cli_s, "library_density_s": lib_s}


def all_metrics() -> tuple[dict, dict]:
    """Every per-layer metric, plus raw figures kept in the trace file."""
    metrics = {}
    metrics.update(sampler_metrics())
    metrics.update(spectral_metrics())
    metrics.update(quadrature_metrics())
    metrics.update(specfun_regime_metrics())
    cli, raw = cli_metrics()
    metrics.update(cli)
    raw["chain_top"] = mf.CHAIN_TOP
    raw["slope_deltas"] = SLOPE_DELTAS
    raw["mc_delta"] = child.MC_DELTA
    return metrics, raw
