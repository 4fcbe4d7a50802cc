"""Measurements that need a fresh process: first-call and cold costs.

Run as `python3 bench/child.py <probe>`; prints one JSON object
(`python3 bench/child.py sweep <manifest>` runs `hyplevy sweep` and adds
its peak RSS to stderr). The benchmark starts these one at a time with
PYTHONPATH pointing at the checkout's src/. Only the standard library and
the manifest's constants are imported before hyplevy.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from manifest import CHAIN_TOP

MC_LAWS = (("rescaled", 4, 3, 0), ("limit", 0, 0, 3))  # (family, d, k, b)
MC_DELTA = 1e-3
DENSITY_FIRST_LAW = ("rescaled", 4, 3, 0)
PROBE_COLD = (1.0, 0.7, 1_000_000)  # power-law (gamma, beta) probed cold at n


def make(spec):
    from hyplevy import DimensionPair, make_measure

    family, d, k, b = spec
    if family == "limit":
        return make_measure("limit", b)
    return make_measure(family, DimensionPair(d, k))


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark (VmHWM). ru_maxrss
    is not used: after exec it keeps the parent's peak from before."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_mc() -> dict:
    """First-call costs before the draw loop: moments and jump tables."""
    from hyplevy import inverse_jump_cdf, partial_moment, tail_mass

    measures = [make(s) for s in MC_LAWS]
    t0 = time.perf_counter()
    for m in measures:
        tail_mass(m, MC_DELTA)
        partial_moment(m, MC_DELTA, 2, "below")
        partial_moment(m, MC_DELTA, 1, "above")
        inverse_jump_cdf(m, 0.5, MC_DELTA)
    return {"seconds": time.perf_counter() - t0}


def setup_density() -> dict:
    """Import plus the first density, which fills the node tables."""
    t0 = time.perf_counter()
    from hyplevy import invert_to_density

    invert_to_density(make(DENSITY_FIRST_LAW))
    return {"seconds": time.perf_counter() - t0}


def cli_import() -> dict:
    t0 = time.perf_counter()
    import hyplevy.cli  # noqa: F401

    return {"seconds": time.perf_counter() - t0}


def table_build() -> dict:
    """First inverse_jump_cdf of rescaled (4,3) at delta = 1e-3."""
    from hyplevy import SamplerConfig, inverse_jump_cdf, sample

    m = make(MC_LAWS[0])
    t0 = time.perf_counter()
    inverse_jump_cdf(m, 0.5, MC_DELTA)
    seconds = time.perf_counter() - t0
    cells = sample(m, 1, SamplerConfig(cutoff_delta=MC_DELTA)).diagnostics["table_cells"]
    return {"seconds": seconds, "cells": cells}


def _probe_families():
    from hyplevy import FixedCodimensionFamily, PowerLawFamily

    fams = [(FixedCodimensionFamily(b), [2 * b + 10 * 3**j for j in range(9)]) for b in (1, 2, 3)]
    for gamma, beta in ((1.5, 0.3), (1.0, 0.65), (1.2, 0.5), (1.8, 0.5)):
        fams.append((PowerLawFamily(gamma, beta), [1 + 4**j for j in range(10)]))
    return fams


def specfun() -> dict:
    """log_gamma cold at the sweep's largest half-integer, then warm, and
    reg_inc_beta on the argument sets of probe rows."""
    import math

    from hyplevy.measures import log_variance
    from hyplevy.specfun import log_gamma, reg_inc_beta

    x = CHAIN_TOP + 0.5
    rss0 = peak_rss_mb()
    t0 = time.perf_counter()
    log_gamma(x)
    cold = time.perf_counter() - t0
    rss1 = peak_rss_mb()
    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        log_gamma(x)
    warm_ns = (time.perf_counter() - t0) / reps * 1e9

    args = []
    for fam, ns in _probe_families():
        for n in ns:
            pair = fam.realize(n)
            for eps in (0.1, 0.5, 2.0):
                log_cut = 0.5 * log_variance(pair) + math.log(eps)
                if log_cut < 0.0:
                    args.append((0.5 * pair.r, 0.5 * pair.codim, math.exp(pair.u_power * log_cut)))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for p, q, y in args:
            reg_inc_beta(p, q, y)
        times.append((time.perf_counter() - t0) / len(args) * 1e6)
    return {
        "cold_s": cold,
        "rss_mb": rss1 - rss0,
        "warm_ns": warm_ns,
        "reg_inc_beta_us": statistics.median(times),
        "reg_inc_beta_calls": len(args),
    }


def regime() -> dict:
    """A cold probe to d = 4e6, then warm probe rows, variances, cumulants."""
    from hyplevy import DimensionPair, PowerLawFamily, cumulant, probe_regime, variance

    gamma, beta, n = PROBE_COLD
    fam = PowerLawFamily(gamma, beta)
    t0 = time.perf_counter()
    probe_regime(fam, [n], [0.1, 0.5])
    cold = time.perf_counter() - t0

    ns = [1 + (n - 1) * j // 19 for j in range(20)]
    eps = [0.05, 0.2, 1.0]
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rows = probe_regime(fam, ns, eps).rows
        times.append((time.perf_counter() - t0) / len(rows) * 1e6)
    small = [DimensionPair(d, k) for d in range(4, 41, 3) for k in ((d + 1) // 2 + 1, d - 1)]
    pairs = [fam.realize(m) for m in ns] + small
    var_us, cum_us = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        for p in pairs:
            variance(p)
        var_us.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        # cumulants at d = 4e6 would reach log_gamma(2e6); small pairs only
        t0 = time.perf_counter()
        for p in small:
            cumulant(p, 3)
        cum_us.append((time.perf_counter() - t0) / len(small) * 1e6)
    return {
        "probe_cold_s": cold,
        "probe_us_per_row": statistics.median(times),
        "variance_us": statistics.median(var_us),
        "cumulant_us": statistics.median(cum_us),
    }


def sweep(manifest_path: str) -> int:
    """`hyplevy sweep` in this process, reporting its peak RSS on stderr."""
    from hyplevy.cli import main

    code = main(["sweep", manifest_path])
    sys.stdout.flush()
    print(f"{PEAK_TAG}{peak_rss_mb()}", file=sys.stderr)
    return code


PEAK_TAG = "bench peak rss mb: "
PROBES = {
    "setup-mc": setup_mc,
    "setup-density": setup_density,
    "cli-import": cli_import,
    "table-build": table_build,
    "specfun": specfun,
    "regime": regime,
}

if __name__ == "__main__":
    if sys.argv[1] == "sweep":
        sys.exit(sweep(sys.argv[2]))
    print(json.dumps(PROBES[sys.argv[1]]()))
