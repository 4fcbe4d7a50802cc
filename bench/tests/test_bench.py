"""The benchmark's own tests: each workload runs end to end at tiny size,
the references agree with themselves by two routes, and every check
rejects a deliberately wrong output.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

import checks
import manifest
import reference as ref
import sweep_checks
import workloads
from reference import Law
from tracer import Tracer


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MC_DRAWS", 200)
    monkeypatch.setattr(workloads, "MC_PREFIX", 77)
    monkeypatch.setattr(workloads, "DG_LAWS", workloads.DG_LAWS[:4] + workloads.DG_LAWS[-2:])
    monkeypatch.setattr(manifest, "FC_N_MAX", 300)
    monkeypatch.setattr(manifest, "PL_N_MAX", 2000)
    monkeypatch.setattr(manifest, "CHAIN_TOP", 5000)
    monkeypatch.setattr(manifest, "SAMPLE_DRAWS", 4000)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_end_to_end(tiny, name, traced):
    run = workloads.WORKLOADS[name](3, 0.1, Tracer() if traced else None)
    assert run.failures == []
    assert run.attempted >= 1 and run.failed == 0
    assert set(run.metrics) == {"ops_per_s", "setup_s", "peak_rss_mb"}
    assert all(v > 0 for v, _ in run.metrics.values())
    if traced:
        assert any(t[1] for t in run.timings) and math.isfinite(run.trace_overhead_pct())


# ----------------------------------------------------- references agree


@pytest.mark.parametrize("law", [Law("rescaled", 4, 3), Law("rescaled", 40, 21), Law("limit", b=3),
                                 Law("hyperbolic", 7, 5)])
def test_psi_quadrature_matches_cumulant_series(law):
    for t in (0.7, 3.0):
        a, b = ref.psi(law, t), ref.psi_series(law, t)
        assert abs(a - b) <= 1e-14 * abs(b)


@pytest.mark.parametrize("law", [Law("rescaled", 4, 3), Law("rescaled", 39, 21), Law("limit", b=1)])
def test_moment_quadrature_matches_closed_form(law):
    for m in (2, 3, 5):
        assert math.isclose(ref.moment(law, m, 0.0), ref.cumulant(law, m), rel_tol=1e-14)


def test_b2_closed_form_variance():
    for d in (7, 502, 62837):
        assert mp.almosteq(mp.exp(ref.log_variance(d, d - 2)), 2 * mp.pi / (d - 5), 1e-25)


# ------------------------------------------- checks reject wrong outputs


def _b2_probe():
    from hyplevy import FixedCodimensionFamily, probe_regime

    expect = {"kind": "probe", "sequence": "fixed-codim", "b": 2,
              "n": [4, 10, 500, 62834, 62835], "eps": [0.1, 0.5]}
    table = probe_regime(FixedCodimensionFamily(2), expect["n"], expect["eps"])
    header = ["n", "d", "k", "r", "sigma", "threshold_stat", "epsilon", "tail_second_moment"]
    rows = [[str(r.n), str(r.d), str(r.k), str(r.r), "%.17g" % r.sigma, "%.17g" % r.threshold_stat,
             "%.17g" % r.epsilon, "%.17g" % r.tail_second_moment] for r in table.rows]
    return expect, header, rows, {"label": table.verdict.label}


def test_probe_check_rejects_sigma_squared_2pi_over_d_minus_4():
    expect, header, rows, sidecar = _b2_probe()
    assert sweep_checks.check_probe(expect, header, rows, sidecar) == []
    wrong = []
    for row in rows:
        d, k, eps = int(row[1]), int(row[2]), float(row[6])
        sigma = math.sqrt(2 * math.pi / (d - 4))
        tail = max(0.0, 1.0 - (sigma * eps) ** ((k - 3) / (k - 1)))
        wrong.append(row[:4] + ["%.17g" % sigma, row[5], row[6], "%.17g" % tail])
    failures = sweep_checks.check_probe(expect, header, wrong, sidecar)
    assert any("sigma" in f for f in failures) and any("tail" in f for f in failures)


def test_draw_check_rejects_draws_scaled_by_1_05():
    from hyplevy import SamplerConfig, make_measure, sample

    law, delta = Law("limit", b=2), 1e-2
    values = sample(make_measure("limit", 2), 40_000, SamplerConfig(cutoff_delta=delta, seed=5)).values
    kap = checks.truncated_cumulants(law, delta)
    z = checks.z_value(4)
    assert checks.check_draws("ok", values, kap, z) == []
    assert any("k2" in f for f in checks.check_draws("scaled", 1.05 * values, kap, z))


def test_density_check_rejects_a_shifted_variance():
    from hyplevy import DimensionPair, invert_to_density, make_measure

    law = Law("rescaled", 6, 5)
    grid = invert_to_density(make_measure("rescaled", DimensionPair(6, 5)))
    s2, k3 = ref.second_moment(law), ref.cumulant(law, 3)
    assert checks.check_density("ok", grid.meta, grid.x0, grid.step, grid.values, s2, k3) == []
    meta = dict(grid.meta, variance=grid.meta["variance"] + 1e-3)
    assert checks.check_density("meta", meta, grid.x0, grid.step, grid.values, s2, k3)
    # a grid stretched by 0.05 %: values and the meta recomputed from them
    step = grid.step * 1.0005
    values = grid.values / 1.0005
    stretched = dict(grid.meta, **checks.grid_moments(grid.x0 * 1.0005, step, values))
    failures = checks.check_density("stretched", stretched, grid.x0 * 1.0005, step, values, s2, k3)
    assert any("variance" in f for f in failures)


def test_classify_check_rejects_a_flipped_label():
    below = {"kind": "classify", "gamma": 1.0, "beta": 0.5}  # 4 gamma^2 = 4 < e pi
    assert sweep_checks.check_classify(below, {"label": "gaussian", "threshold_limit": 4.0}) == []
    assert sweep_checks.check_classify(below, {"label": "degenerate", "threshold_limit": 4.0})
    fixed = {"kind": "classify", "label": "degenerate", "limit": 1.0}
    assert sweep_checks.check_classify(fixed, {"label": "gaussian", "threshold_limit": 1.0})


def test_z_keeps_the_joint_false_alarm_below_1e_6():
    z = checks.z_value(8)
    assert 8 * math.erfc(z / math.sqrt(2)) <= 1e-6 * (1 + 1e-9)


def test_manifest_cost_does_not_depend_on_the_seed():
    """Every seed reaches the same largest indices and chain lengths."""
    for seed in (0, 1, 99):
        runs = manifest.build(seed)["runs"]
        tops = [r["expect"]["args"][0] for r in runs if r["expect"].get("op") == "log-gamma"]
        assert tops[-2:] == [manifest.CHAIN_TOP + 1, manifest.CHAIN_TOP + 0.5]
        for r in runs:
            if r["expect"]["kind"] == "probe":
                top = manifest.FC_N_MAX if r["expect"]["sequence"] == "fixed-codim" else manifest.PL_N_MAX
                assert max(r["expect"]["n"]) == top
