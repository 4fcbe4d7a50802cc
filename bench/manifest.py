"""The cli_sweep manifest, written from the benchmark seed.

The seed picks the sequence indices, the epsilons, the power-law (gamma,
beta), the small pairs and the special-function arguments. What sets the
sweep's cost does not depend on it: every family reaches the same largest
index, and two `specfun log-gamma` runs take both of log_gamma's
recursion chains (integer and half-integer arguments) to the same length
CHAIN_TOP, above every other log-Gamma argument of the sweep, so the
process-global chain cache always grows by the same amount.

Regenerate a manifest with
    python3 bench/manifest.py --seed 7 > manifest.json
"""

from __future__ import annotations

import argparse
import json
import math
import random

FC_N_MAX = 62835  # ACCEPT-09's crossing: sigma < 1e-2 first at d = 62837 on b = 2
PL_N_MAX = 1_000_000  # d = 4 * 10^6 on the power-law grid d = 4n
CHAIN_TOP = 1_100_000
EPS_CHOICES = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
GAMMA_CRIT = 0.5 * math.sqrt(math.e * math.pi)  # 4 gamma^2 = e pi
N_INDICES = 18
SAMPLE_DRAWS = 100_000

# (name, beta range, gamma range) of the power-law families
POWER_LAWS = (
    ("beta_below_half", (0.2, 0.45), (0.5, 2.0)),
    ("beta_above_half", (0.55, 0.7), (0.5, 1.5)),
    ("critical_below_e_pi", (0.5, 0.5), (0.4, 0.9 * GAMMA_CRIT)),
    ("critical_above_e_pi", (0.5, 0.5), (1.1 * GAMMA_CRIT, 2.0)),
)


def _indices(rng: random.Random, lo: int, hi: int) -> list[int]:
    picked = set(rng.sample(range(lo + 1, hi - 1), N_INDICES)) | {lo, hi - 1, hi}
    return sorted(picked)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def build(seed: int) -> dict:
    """The manifest {"runs": [{"argv": [...]}, ...]} plus, per run, what the
    benchmark needs to check it ("expect")."""
    rng = random.Random(seed)
    runs = []

    def add(argv, **expect):
        runs.append({"argv": [str(a) for a in argv], "expect": expect})

    for b in (1, 2, 3):
        ns = _indices(rng, 2 * b, FC_N_MAX)  # d = n + 2 > 2b + 1 from n = 2b on
        eps = sorted(rng.sample(EPS_CHOICES, 3))
        seq = ["--sequence", "fixed-codim", "--b", b]
        add(["probe", *seq, "--n", _csv(ns), "--eps", _csv(eps), "--out", f"probe_fc_b{b}.csv"],
            kind="probe", sequence="fixed-codim", b=b, n=ns, eps=eps)
        add(["classify", *seq], kind="classify", label="degenerate", limit=1.0)

    for name, (b_lo, b_hi), (g_lo, g_hi) in POWER_LAWS:
        beta = round(rng.uniform(b_lo, b_hi), 6)
        gamma = round(rng.uniform(g_lo, g_hi), 6)
        ns = _indices(rng, 1, PL_N_MAX)
        eps = sorted(rng.sample(EPS_CHOICES, 3))
        seq = ["--sequence", "power-law", "--gamma", gamma, "--beta", beta]
        add(["probe", *seq, "--n", _csv(ns), "--eps", _csv(eps), "--out", f"probe_{name}.csv"],
            kind="probe", sequence="power-law", gamma=gamma, beta=beta, n=ns, eps=eps)
        add(["classify", *seq], kind="classify", gamma=gamma, beta=beta)

    d = rng.randint(5, 40)
    k = rng.randint((d + 1) // 2 + 1, d - 1)
    add(["variance", d, k], kind="variance", d=d, k=k)
    d_top = 4 * PL_N_MAX
    k = d_top // 2 + rng.randint(2, 400)
    add(["variance", d_top, k], kind="variance", d=d_top, k=k)
    add(["cumulants", "--family", "rescaled", "--d", d, "--k", (d + 1) // 2 + 1, "--max-order", 6],
        kind="cumulants", family="rescaled", d=d, k=(d + 1) // 2 + 1, max_order=6)
    b = rng.randint(1, 6)
    add(["cumulants", "--family", "limit", "--b", b, "--max-order", 6],
        kind="cumulants", family="limit", b=b, max_order=6)
    # near-fixed codimension keeps sigma^2 ~ (2 pi/d)^(b/2) representable;
    # near k = d/2 it underflows and the CLI divides by zero (see CHANGES.md)
    d_cum = 7 * PL_N_MAX // 10  # cumulants reach log_gamma(1.5 d_cum) < CHAIN_TOP
    k = d_cum - rng.randint(1, 4)
    add(["cumulants", "--family", "rescaled", "--d", d_cum, "--k", k, "--max-order", 4],
        kind="cumulants", family="rescaled", d=d_cum, k=k, max_order=4)

    x = round(rng.uniform(0.1, 60.0), 6)
    add(["specfun", "--op", "log-gamma", x], kind="specfun", op="log-gamma", args=[x])
    p, q, y = round(rng.uniform(0.5, 40.0), 6), round(rng.uniform(0.5, 40.0), 6), round(rng.uniform(0.02, 0.98), 6)
    add(["specfun", "--op", "reg-inc-beta", p, q, y], kind="specfun", op="reg-inc-beta", args=[p, q, y])
    add(["specfun", "--op", "inc-beta", p, q, y], kind="specfun", op="inc-beta", args=[p, q, y])
    add(["specfun", "--op", "stirling-bounds", x + 1.0], kind="specfun", op="stirling-bounds", args=[x + 1.0])
    for top in (CHAIN_TOP + 1, CHAIN_TOP + 0.5):
        add(["specfun", "--op", "log-gamma", top], kind="specfun", op="log-gamma", args=[top])

    add(["sample", "--family", "limit", "--b", 2, "--n", SAMPLE_DRAWS, "--seed", seed,
         "--delta", 0.01, "--out", "sample.csv"], kind="sample", b=2, delta=0.01, n=SAMPLE_DRAWS)
    law = rng.choice(
        [["--family", "rescaled", "--d", d2, "--k", k2] for d2 in range(4, 13)
         for k2 in range((d2 + 1) // 2 + 1, d2)]
        + [["--family", "limit", "--b", b2] for b2 in range(1, 5)]
    )
    add(["density", *law, "--out", "density.csv"], kind="density")
    return {"runs": runs}


def sweep_manifest(full: dict) -> dict:
    """The part hyplevy reads: argv only."""
    return {"runs": [{"argv": r["argv"]} for r in full["runs"]]}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(sweep_manifest(build(args.seed)), indent=2))
