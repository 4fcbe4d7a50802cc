"""Checks of one cli_sweep run: its report, stdout and the files it wrote.

Every number is compared with a value computed here from mpmath or scipy,
with the tolerances described in checks.py; b = 2 probe rows are checked
against the closed forms sigma^2 = 2 pi/(d - 5) and
tail = 1 - (sigma eps)^((k-3)/(k-1)).
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

import checks
import reference as ref
from checks import close
from reference import EPS, Law, log_variance

TINY = 1e-320  # below this a double is subnormal and keeps no relative digits


def read_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    prov = json.loads(lines[0][len("# provenance: "):])
    return prov, lines[1].split(","), [line.split(",") for line in lines[2:]]


def _law_from_argv(argv: list[str]) -> Law:
    opts = dict(zip(argv[1::2], argv[2::2]))
    family = opts["--family"]
    if family == "limit":
        return Law("limit", b=int(opts["--b"]))
    return Law(family, int(opts["--d"]), int(opts["--k"]))


def _expected_pair(e: dict, n: int) -> tuple[int, int]:
    if e["sequence"] == "fixed-codim":
        d = n + 2
        return d, d - e["b"]
    d = 4 * n
    k = math.ceil(0.5 * d + e["gamma"] * d ** e["beta"])
    return d, min(max(k, (d + 1) // 2 + 1), d - 1)


def check_probe(e: dict, header: list[str], rows: list[list[str]], sidecar: dict) -> list[str]:
    out = []
    col = {h: i for i, h in enumerate(header)}
    if len(rows) != len(e["n"]) * len(e["eps"]):
        return [f"probe {e['sequence']}: {len(rows)} rows for {len(e['n'])} n x {len(e['eps'])} eps"]
    closed_b2 = e["sequence"] == "fixed-codim" and e["b"] == 2
    by_n: dict[int, list] = {}
    sigma_at: dict[int, float] = {}
    for row in rows:
        n, d, k, r = (int(row[col[c]]) for c in ("n", "d", "k", "r"))
        sigma, stat, eps, tail = (
            float(row[col[c]]) for c in ("sigma", "threshold_stat", "epsilon", "tail_second_moment")
        )
        tag = f"probe {e['sequence']} n={n} eps={eps:g}"
        d_want, k_want = _expected_pair(e, n)
        if (d, k, r) != (d_want, k_want, 2 * k_want - d_want - 1):
            out.append(f"{tag}: (d, k, r) = {(d, k, r)}, want {(d_want, k_want, 2 * k_want - d_want - 1)}")
            continue
        lv = mp.log(2 * mp.pi / (d - 5)) if closed_b2 else log_variance(d, k)
        lv_err = ref.log_gamma_tol(*ref.log_variance_sizes(d, k))  # abs. error of the program's log sigma^2
        sigma_want = float(mp.exp(lv / 2))
        out += close(f"{tag} sigma", sigma, sigma_want, 0.5 * lv_err * sigma_want + TINY)
        log_stat = mp.mpf(d) / k * mp.log(r) - mp.log(d)
        stat_rel = 8.0 * EPS * (1.0 + abs(float(mp.mpf(d) / k * mp.log(r))) + math.log(d))
        out += close(f"{tag} threshold_stat", stat, float(mp.exp(log_stat)), stat_rel * float(mp.exp(log_stat)))

        log_cut = lv / 2 + mp.log(eps)
        if log_cut >= 0:
            if tail != 0.0:
                out.append(f"{tag}: sigma*eps >= 1 but tail = {tail!r}, want 0")
        else:
            up = mp.mpf(2) / (k - 1)
            p, q = 0.5 * r, 0.5 * (d - k)
            y = float(mp.exp(up * log_cut))
            if closed_b2:
                want = float(-mp.expm1(mp.mpf(k - 3) / (k - 1) * log_cut))
            else:
                want = ref.reg_inc_beta_upper(p, q, y)
            y_rel = float(up) * (0.5 * lv_err + EPS * abs(math.log(eps))) + 4.0 * EPS
            tol = checks.tail_tolerance(p, q, y, want, y_rel, ref.beta_pdf(p, q, y))
            tol += checks.REF_BETA_REL * min(want, 1.0 - want)
            out += close(f"{tag} tail", tail, want, tol)
        if not 0.0 <= tail <= 1.0:
            out.append(f"{tag}: tail {tail!r} outside [0, 1]")
        by_n.setdefault(n, []).append((eps, tail))
        sigma_at[n] = sigma
    for n, pts in by_n.items():
        tails = [t for _, t in sorted(pts)]
        if any(b > a for a, b in zip(tails, tails[1:])):
            out.append(f"probe {e['sequence']} n={n}: tail fractions increase in eps: {tails}")
    if closed_b2 and 62834 in sigma_at and 62835 in sigma_at:
        if not (sigma_at[62835] < 1e-2 <= sigma_at[62834]):
            out.append("probe b=2: sigma < 1e-2 must hold first at n = 62835 (d = 62837)")
    want_label = "degenerate" if e["sequence"] == "fixed-codim" else checks.dichotomy(e["gamma"], e["beta"])[0]
    if sidecar.get("label") != want_label:
        out.append(f"probe {e['sequence']}: sidecar verdict {sidecar.get('label')!r}, want {want_label!r}")
    return out


def check_classify(e: dict, payload: dict) -> list[str]:
    if "gamma" in e:
        label, limit = checks.dichotomy(e["gamma"], e["beta"])
    else:
        label, limit = e["label"], e["limit"]
    got = (payload.get("label"), payload.get("threshold_limit"))
    if got[0] != label or not (got[1] == limit or abs(got[1] - limit) <= 8.0 * EPS * limit):
        return [f"classify {e}: got {got}, want {(label, limit)}"]
    return []


def check_variance(e: dict, payload: dict) -> list[str]:
    d, k = e["d"], e["k"]
    lv = log_variance(d, k)
    err = ref.log_gamma_tol(*ref.log_variance_sizes(d, k))
    want = float(mp.exp(lv))
    out = close(f"variance({d},{k}) log_variance", payload["log_variance"], float(lv), err)
    out += close(f"variance({d},{k})", payload["variance"], want, err * want + TINY)
    exact = {"d": d, "k": k, "r": 2 * k - d - 1, "codim": d - k, "alpha": (d - 1) / (k - 1)}
    for key, val in exact.items():
        if payload.get(key) != val:
            out.append(f"variance({d},{k}) {key}: got {payload.get(key)!r}, want {val!r}")
    return out


def check_cumulants(e: dict, payload: dict) -> list[str]:
    law = Law("limit", b=e["b"]) if e["family"] == "limit" else Law(e["family"], e["d"], e["k"])
    out = []
    for m in range(2, e["max_order"] + 1):
        want = ref.cumulant(law, m)
        if law.family == "limit":
            rel = 8.0 * EPS
        else:
            p = ((law.k - 1) * m - (law.d - 1)) / 2
            sizes = checks.coef_log_sizes(law) + [ref.log_gamma_size(x) for x in (p, law.codim / 2, p + law.codim / 2)]
            rel = ref.log_gamma_tol(*sizes)
        got = payload["cumulants"].get(str(m))
        out += close(f"cumulant {law.label} m={m}", got, want, rel * abs(want) + TINY)
    return out


def check_specfun(e: dict, payload: dict) -> list[str]:
    op, args = e["op"], e["args"]
    if payload.get("op") != op or payload.get("args") != args:
        return [f"specfun {op}: echoed {payload.get('op')!r} {payload.get('args')!r}"]
    if op == "log-gamma":
        want = float(mp.loggamma(args[0]))
        return close(f"log_gamma({args[0]})", payload["value"], want,
                     ref.log_gamma_tol(ref.log_gamma_size(args[0])))
    if op in ("reg-inc-beta", "inc-beta"):
        p, q, x = args
        lower = ref.reg_inc_beta(p, q, x)
        tol = checks.tail_tolerance(p, q, x, 1.0 - lower, 0.0, 0.0)
        tol += checks.REF_BETA_REL * min(lower, 1.0 - lower)
        if op == "reg-inc-beta":
            return close(f"reg_inc_beta{tuple(args)}", payload["value"], lower, tol)
        b = float(mp.beta(p, q))
        lb_rel = ref.log_gamma_tol(*(ref.log_gamma_size(v) for v in (p, q, p + q)))
        return close(f"inc_beta{tuple(args)}", payload["value"], b * lower, b * (tol + lb_rel * lower))
    if op == "stirling-bounds":
        z = mp.mpf(args[0])
        lower = (mp.log(2 * mp.pi) - mp.log(z)) / 2 + z * (mp.log(z) - 1)
        upper = lower + 1 / (12 * z)
        tol = 8.0 * EPS * (1.0 + abs(float(z * mp.log(z))) + float(z))
        out = close(f"stirling_lower({args[0]})", payload["log_lower"], float(lower), tol)
        out += close(f"stirling_upper({args[0]})", payload["log_upper"], float(upper), tol)
        lg = float(mp.loggamma(z))
        if not payload["log_lower"] - tol <= lg <= payload["log_upper"] + tol:
            out.append(f"stirling bounds {payload} do not bracket log Gamma({args[0]}) = {lg}")
        return out
    return [f"specfun op {op!r} has no check"]


def check_sample_output(e: dict, argv: list[str], prov: dict, rows, sidecar: dict) -> list[str]:
    law = Law("limit", b=e["b"])
    values = np.array([float(r[0]) for r in rows])
    out = []
    if len(values) != e["n"] or sidecar.get("n") != e["n"]:
        out.append(f"sample: {len(values)} rows, sidecar n = {sidecar.get('n')}, want {e['n']}")
    seed = int(argv[argv.index("--seed") + 1])
    if prov.get("seed") != seed or sidecar.get("seed") != seed:
        out.append(f"sample: seed {prov.get('seed')}/{sidecar.get('seed')}, want {seed}")
    out += checks.check_sampler_diagnostics("cli sample", law, sidecar, e["delta"])
    kap = checks.truncated_cumulants(law, e["delta"])
    out += checks.check_draws("cli sample", values, kap, checks.z_value(4))
    return out


def check_density_output(argv: list[str], rows, sidecar: dict) -> list[str]:
    law = _law_from_argv(argv)
    xs = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    step = (xs[-1] - xs[0]) / (len(xs) - 1)
    return checks.check_density(
        f"cli density {law.label}", sidecar, xs[0], step, values,
        ref.second_moment(law), ref.cumulant(law, 3),
    )


def check_sweep(full: dict, items: list, files: dict[str, str]) -> list[str]:
    """All checks of one sweep: the report, each run's stdout and files."""
    runs = full["runs"]
    if not items or not isinstance(items[-1], dict) or "runs" not in items[-1]:
        return ["sweep printed no report"]
    report, outputs = items[-1], items[:-1]
    out = []
    if [r.get("argv") for r in report["runs"]] != [r["argv"] for r in runs]:
        out.append("sweep report argv lists differ from the manifest")
    if len(outputs) != len(runs):
        return out + [f"sweep printed {len(outputs)} outputs for {len(runs)} runs"]
    for run, item in zip(runs, outputs):
        e, argv = run["expect"], run["argv"]
        kind = e["kind"]
        try:
            if kind in ("probe", "sample", "density"):
                name = argv[argv.index("--out") + 1]
                if not isinstance(item, str) or not item.startswith("wrote "):
                    out.append(f"{' '.join(argv[:3])}: printed {item!r}")
                prov, header, rows = read_csv(files[name])
                if prov.get("argv") != argv:
                    out.append(f"{name}: provenance argv {prov.get('argv')} != manifest argv")
                sidecar = json.loads(files[name + ".meta.json"])
                if kind == "probe":
                    out += check_probe(e, header, rows, sidecar)
                elif kind == "sample":
                    out += check_sample_output(e, argv, prov, rows, sidecar)
                else:
                    out += check_density_output(argv, rows, sidecar)
            elif not isinstance(item, dict):
                out.append(f"{' '.join(argv[:3])}: printed {item!r}, want JSON")
            elif kind == "classify":
                out += check_classify(e, item)
            elif kind == "variance":
                out += check_variance(e, item)
            elif kind == "cumulants":
                out += check_cumulants(e, item)
            elif kind == "specfun":
                out += check_specfun(e, item)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            out.append(f"{' '.join(argv[:3])}: malformed output ({exc!r})")
    return out
