"""Command-line interface: outputs, exit codes, provenance, the sweep runner."""

import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import hyplevy.cli
from conftest import hyplevy_env, peak_rss_rise_mb
from hyplevy.cli import _write_csv, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_objects(text):
    """All JSON documents concatenated in a text stream, in order."""
    decoder = json.JSONDecoder()
    out, idx = [], 0
    while idx < len(text):
        if text[idx].isspace():
            idx += 1
            continue
        obj, end = decoder.raw_decode(text, idx)
        out.append(obj)
        idx = end
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# provenance: ")
    prov = json.loads(lines[0][len("# provenance: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return prov, header, rows


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPLEVY_OUTDIR", str(tmp_path))
    return tmp_path


class TestVariance:
    def test_reports_the_exact_value(self, capsys):
        code, out, _ = run(capsys, "variance", "4", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 4 and payload["k"] == 3
        assert payload["r"] == 1 and payload["codim"] == 1
        assert payload["alpha"] == 1.5
        assert math.isclose(payload["variance"], math.pi, rel_tol=1e-12)
        assert math.isclose(payload["log_variance"], math.log(math.pi), rel_tol=1e-12)

    def test_inadmissible_pair_exits_2(self, capsys):
        code, _, err = run(capsys, "variance", "4", "2")
        assert code == 2
        assert err.startswith("hyplevy: error:")


class TestCumulants:
    def test_limit_family(self, capsys):
        code, out, _ = run(capsys, "cumulants", "--family", "limit", "--b", "2",
                           "--max-order", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "limit" and payload["b"] == 2
        vals = payload["cumulants"]
        assert vals["2"] == 1.0
        assert vals["3"] == 0.5
        assert math.isclose(vals["4"], 1.0 / 3.0, rel_tol=1e-15)

    def test_rescaled_family_divides_by_the_variance(self, capsys):
        code, out, _ = run(capsys, "cumulants", "--family", "rescaled", "--d", "4",
                           "--k", "3", "--max-order", "3")
        assert code == 0
        vals = json.loads(out)["cumulants"]
        assert math.isclose(vals["2"], 1.0, rel_tol=1e-12)
        assert math.isclose(vals["3"], 0.5, rel_tol=1e-12)

    def test_rescaled_family_survives_an_underflowing_variance(self, capsys):
        # sigma^2 = exp(log sigma^2) is 0.0 in double precision here
        code, out, _ = run(capsys, "cumulants", "--family", "rescaled", "--d", "1000000",
                           "--k", "500355", "--max-order", "4")
        assert code == 0
        assert json.loads(out)["cumulants"] == {"2": 1.0, "3": 0.0, "4": 0.0}

    def test_order_validation(self, capsys):
        code, _, err = run(capsys, "cumulants", "--family", "limit", "--b", "2",
                           "--max-order", "1")
        assert code == 2 and "max-order" in err

    def test_missing_pair_arguments(self, capsys):
        code, _, err = run(capsys, "cumulants", "--family", "rescaled")
        assert code == 2 and "requires --d and --k" in err


class TestDensity:
    def test_writes_grid_and_sidecar(self, capsys, outdir):
        code, out, _ = run(capsys, "density", "--family", "rescaled", "--d", "4",
                           "--k", "3", "--half-width", "8", "--n-points", "512",
                           "--out", "d.csv")
        assert code == 0
        assert "wrote" in out and "512 rows" in out
        prov, header, rows = read_csv(outdir / "d.csv")
        assert header == ["x", "value"]
        assert len(rows) == 512
        assert prov["argv"][0] == "density"
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(xs) > 0.0)
        assert np.all(vals >= 0.0)
        assert abs(float(np.sum(vals)) * (xs[1] - xs[0]) - 1.0) < 1e-3
        meta = json.loads((outdir / "d.csv.meta.json").read_text())
        assert meta["family"] == "rescaled" and meta["d"] == 4 and meta["k"] == 3
        assert abs(meta["variance"] - 1.0) < 1e-3

    def test_floats_round_trip_through_the_file(self, capsys, outdir):
        run(capsys, "density", "--family", "limit", "--b", "2", "--half-width", "8",
            "--n-points", "512", "--out", "lim.csv")
        _, _, rows = read_csv(outdir / "lim.csv")
        for _, text in rows[::37]:
            assert "%.17g" % float(text) == text

    def test_undetectable_decay_exits_3(self, capsys):
        code, _, err = run(capsys, "density", "--family", "limit", "--b", "2",
                           "--half-width", "1e6", "--n-points", "256",
                           "--out", "never.csv")
        assert code == 3
        assert "hyplevy: error:" in err

    @pytest.mark.parametrize("half_width", ["1e5", "1e6"])
    def test_undetectable_decay_prints_the_library_message(self, capsys, half_width):
        # the advice to narrow the window, as invert_to_density words it
        from hyplevy import DecayDetectionError, DimensionPair, invert_to_density, make_measure

        measure = make_measure("rescaled", DimensionPair(4, 3))
        with pytest.raises(DecayDetectionError) as info:
            invert_to_density(measure, half_width=float(half_width))
        code, out, err = run(capsys, "density", "--family", "rescaled", "--d", "4",
                             "--k", "3", "--half-width", half_width, "--out", "never.csv")
        assert code == 3 and out == ""
        assert err == f"hyplevy: error: {info.value}\n"
        assert "enlarge n_points or narrow half_width" in err

    @pytest.mark.parametrize(
        "family, d, k, message",
        [
            # the variance underflows to 0, so the frequency step has no value
            ("hyperbolic", "2000", "1500", "half_width * sigma underflows to 0.0"),
            # the measure's constant overflows
            ("rescaled", "4000", "3000", "= exp(956.554) overflows a double"),
        ],
        ids=["hyp2000_1500", "resc4000_3000"],
    )
    def test_a_law_past_the_double_range_exits_2(self, capsys, outdir, family, d, k, message):
        code, out, err = run(capsys, "density", "--family", family, "--d", d, "--k", k,
                             "--out", "far.csv")
        assert code == 2 and out == ""
        assert err.startswith("hyplevy: error:") and message in err
        assert not (outdir / "far.csv").exists()

    def test_infinite_half_width_exits_2(self, capsys):
        code, _, err = run(capsys, "density", "--family", "rescaled", "--d", "4",
                           "--k", "3", "--half-width", "inf", "--n-points", "256",
                           "--out", "d.csv")
        assert code == 2
        assert "half_width must be positive and finite" in err


class TestProbeAndClassify:
    def test_probe_table(self, capsys, outdir):
        code, out, _ = run(capsys, "probe", "--sequence", "power-law", "--gamma", "1",
                           "--beta", "0.7", "--n", "1,2,3", "--eps", "0.1,0.5",
                           "--out", "probe.csv")
        assert code == 0
        assert "verdict degenerate" in out
        _, header, rows = read_csv(outdir / "probe.csv")
        assert header == ["n", "d", "k", "r", "sigma", "threshold_stat", "epsilon",
                          "tail_second_moment", "log_sigma"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["1", "1", "2", "2", "3", "3"]
        meta = json.loads((outdir / "probe.csv.meta.json").read_text())
        assert meta["label"] == "degenerate"
        assert set(meta) == {"label", "threshold_limit", "rationale"}

    def test_probe_log_sigma_is_finite_where_sigma_underflows(self, capsys, outdir):
        # power-law gamma = 1, beta = 0.3: d = 4n, k = ceil(d/2 + d^0.3)
        ns = [100, 1000, 10000, 250000, 1000000]
        code, _, _ = run(capsys, "probe", "--sequence", "power-law", "--gamma", "1",
                         "--beta", "0.3", "--n", ",".join(map(str, ns)), "--eps", "0.1",
                         "--out", "probe.csv")
        assert code == 0
        _, header, rows = read_csv(outdir / "probe.csv")
        col = {h: i for i, h in enumerate(header)}
        assert [int(r[col["d"]]) for r in rows] == [4 * n for n in ns]
        for row in rows:
            d, k = int(row[col["d"]]), int(row[col["k"]])
            with mpmath.workprec(120):
                want = 0.5 * (
                    mpmath.mpf(d - k) / 2 * mpmath.log(mpmath.pi)
                    + mpmath.loggamma(mpmath.mpf(2 * k - d - 1) / 2)
                    - mpmath.loggamma(mpmath.mpf(k - 1) / 2)
                )
                sigma_want = float(mpmath.exp(want))
            got = float(row[col["log_sigma"]])
            assert abs(got - float(want)) <= 1e-12 * abs(float(want)), (d, got, want)
            assert float(row[col["sigma"]]) == pytest.approx(sigma_want, rel=1e-12, abs=0.0)
        # sigma underflows from d = 4000 on while log sigma stays finite
        assert [float(r[col["sigma"]]) == 0.0 for r in rows] == [False] + [True] * 4

    @pytest.mark.parametrize("gamma", ["inf", "1e308"])
    def test_probe_with_an_overflowing_gamma(self, capsys, outdir, gamma):
        code, out, _ = run(capsys, "probe", "--sequence", "power-law", "--gamma", gamma,
                           "--beta", "0.5", "--n", "1,2", "--eps", "0.1", "--out", "p.csv")
        assert code == 0
        assert "verdict degenerate" in out
        _, _, rows = read_csv(outdir / "p.csv")
        assert [r[1:3] for r in rows] == [["4", "3"], ["8", "7"]]

    def test_probe_inadmissible_index_exits_2(self, capsys):
        code, _, err = run(capsys, "probe", "--sequence", "fixed-codim", "--b", "2",
                           "--n", "1", "--eps", "0.1", "--out", "x.csv")
        assert code == 2 and "n=1" in err

    def test_classify_power_law(self, capsys):
        code, out, _ = run(capsys, "classify", "--sequence", "power-law",
                           "--gamma", "1", "--beta", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "gaussian"
        assert payload["threshold_limit"] == 0.0

    def test_classify_power_law_with_an_infinite_gamma(self, capsys):
        # gamma = inf realizes k = d - 1: degenerate at beta < 1/2 too
        code, out, _ = run(capsys, "classify", "--sequence", "power-law",
                           "--gamma", "inf", "--beta", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "degenerate"
        assert payload["threshold_limit"] == math.inf

    def test_classify_explicit_list(self, capsys):
        code, out, _ = run(capsys, "classify", "--sequence", "explicit",
                           "--pairs", "12:10,14:12,16:14")
        assert code == 0
        assert json.loads(out)["label"] == "degenerate"

    def test_bad_pair_text_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--sequence", "explicit",
                           "--pairs", "12:x")
        assert code == 2 and "bad pair" in err


class TestSample:
    def test_writes_values_and_diagnostics(self, capsys, outdir):
        code, out, _ = run(capsys, "sample", "--family", "limit", "--b", "2",
                           "--n", "64", "--seed", "3", "--delta", "0.01",
                           "--out", "s.csv")
        assert code == 0 and "64 rows" in out
        prov, header, rows = read_csv(outdir / "s.csv")
        assert header == ["value"]
        assert len(rows) == 64
        assert prov["seed"] == 3
        meta = json.loads((outdir / "s.csv.meta.json").read_text())
        assert meta["family"] == "limit" and meta["b"] == 2
        assert meta["n"] == 64 and meta["seed"] == 3 and meta["cutoff_delta"] == 0.01
        assert meta["table_cert_error"] <= 1e-10
        assert set(meta["empirical_cumulants"]) == {"1", "2", "3", "4"}
        assert math.isclose(meta["jump_rate"], 99.0, rel_tol=1e-10)

    @pytest.mark.parametrize("d, k", [(200, 101), (880, 448)])
    def test_a_table_that_cannot_be_built_exits_3(self, outdir, d, k):
        # (880, 448): w_max underflows to 0; (200, 101): the knots or
        # slopes are not all finite. One error line, no traceback and no
        # RuntimeWarning, in a fresh interpreter that turns warnings to errors
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hyplevy.cli", "sample",
             "--family", "rescaled", "--d", str(d), "--k", str(k), "--n", "4",
             "--out", "s.csv"],
            capture_output=True, text=True, env=hyplevy_env(HYPLEVY_OUTDIR=str(outdir)),
            timeout=120,
        )
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"hyplevy: error: jump table for PairShape(pair=DimensionPair(d={d}")
        assert proc.stdout == ""

    def test_tiny_run_skips_empirical_cumulants(self, capsys, outdir):
        run(capsys, "sample", "--family", "limit", "--b", "2", "--n", "6",
            "--seed", "0", "--delta", "0.01", "--out", "tiny.csv")
        meta = json.loads((outdir / "tiny.csv.meta.json").read_text())
        assert meta["empirical_cumulants"] == {}

    def test_rerun_is_identical_apart_from_the_timestamp(self, capsys, outdir):
        args = ("sample", "--family", "limit", "--b", "2", "--n", "64", "--seed", "3",
                "--delta", "0.01")
        run(capsys, *args, "--out", "a.csv")
        run(capsys, *args, "--out", "b.csv")
        a = (outdir / "a.csv").read_text().splitlines()
        b = (outdir / "b.csv").read_text().splitlines()
        assert a[1:] == b[1:]
        prov_a = json.loads(a[0][len("# provenance: "):])
        prov_b = json.loads(b[0][len("# provenance: "):])
        prov_a.pop("timestamp"), prov_b.pop("timestamp")
        prov_a["argv"][-1] = prov_b["argv"][-1] = "out"
        assert prov_a == prov_b

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_a_large_run_keeps_its_output_memory_bounded(self, outdir):
        """5e5 draws (4 MB of values) at limit b = 2, delta = 0.01. One
        Python float and one row string per value, plus the sampler's
        full-batch temporaries, raised the peak RSS of a fresh interpreter
        by 78.4 MB; CSV rows in fixed chunks and batches assembled in place
        measured 19.8 MB. The rise must stay at most half of 78.4 MB."""
        path = outdir / "big.csv"
        argv = ["sample", "--family", "limit", "--b", "2", "--n", "500000",
                "--delta", "0.01", "--out", str(path)]
        rise = peak_rss_rise_mb(
            setup="from hyplevy.cli import main",
            measured=f"assert main({argv!r}) == 0",
        )
        assert path.stat().st_size > 500_000 * 18
        assert rise <= 0.5 * 78.4


def per_cell_csv(prov, header, columns):
    """The CSV text cell by cell: str() of each integer, %.17g of the rest."""
    want = "# provenance: " + json.dumps(prov, sort_keys=True) + "\n" + ",".join(header) + "\n"
    for row in zip(*columns):
        want += ",".join(
            str(v) if isinstance(v, (int, np.integer)) else "%.17g" % float(v) for v in row
        ) + "\n"
    return want


class TestCsvWriter:
    def test_bytes_follow_the_per_cell_rule(self, outdir):
        columns = [
            [0, 7, -3, 2**40],
            np.array([1, -2, 3, 4], dtype=np.int32),
            np.array([-12.0, 0.1, 1e-300, -0.0]),
            [1.0 / 3.0, 2.5e17, math.inf, math.nan],
        ]
        prov = {"argv": ["x"], "version": "0"}
        path = outdir / "mixed.csv"
        _write_csv(path, ["a", "b", "c", "d"], columns, prov)
        want = per_cell_csv(prov, ["a", "b", "c", "d"], columns)
        assert path.read_bytes() == want.encode()
        assert want.splitlines()[2].split(",")[2] == "-12"

    @pytest.mark.parametrize(
        "chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"],
    )
    def test_rows_across_chunk_edges(self, outdir, chunks, extra):
        n = chunks * hyplevy.cli._CSV_CHUNK + extra
        rng = np.random.default_rng(n)
        specials = np.array([-0.0, 1e-300, math.inf, math.nan, -math.inf, 5e-324])
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[rng.integers(0, n, 64)] = rng.choice(specials, 64)
        floats[[0, n // 2, n - 1]] = [-0.0, math.nan, math.inf]
        columns = [
            np.arange(n, dtype=np.int64) - n // 2,
            floats,
            rng.integers(-(2**62), 2**62, n, dtype=np.int64),
            rng.random(n),
        ]
        prov = {"argv": ["x"], "version": "0"}
        path = outdir / "edges.csv"
        _write_csv(path, ["i", "x", "j", "u"], columns, prov)
        assert path.read_bytes() == per_cell_csv(prov, ["i", "x", "j", "u"], columns).encode()

    def test_no_rows_writes_the_header_only(self, outdir):
        prov = {"argv": ["x"], "version": "0"}
        path = outdir / "empty.csv"
        _write_csv(path, ["a", "b"], [np.array([], dtype=np.int64), []], prov)
        assert path.read_bytes() == per_cell_csv(prov, ["a", "b"], [[], []]).encode()


class TestSweep:
    def write_manifest(self, outdir, runs, name="m.json"):
        path = outdir / name
        path.write_text(json.dumps({"runs": [{"argv": r} for r in runs]}))
        return path

    def test_partial_failure_exits_1(self, capsys, outdir):
        path = self.write_manifest(outdir, [["variance", "4", "3"], ["variance", "4", "2"]])
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 1
        report = json_objects(out)[-1]
        assert [r["status"] for r in report["runs"]] == ["ok", "error"]
        assert report["runs"][1]["exit_code"] == 2
        assert "error" in report["runs"][1]

    def test_a_table_that_cannot_be_built_fails_only_its_run(self, capsys, outdir):
        # w_max underflows at (880, 448): exit 3 for that run, and the
        # sweep goes on to the next
        sample = ["sample", "--family", "rescaled", "--d", "880", "--k", "448", "--n", "4",
                  "--out", "s.csv"]
        path = self.write_manifest(outdir, [sample, ["variance", "4", "3"]])
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 1
        report = json_objects(out)[-1]["runs"]
        assert [r["exit_code"] for r in report] == [3, 0]
        assert report[0]["error"].startswith("jump table for PairShape(pair=DimensionPair(d=880")

    def test_all_green_exits_0(self, capsys, outdir):
        path = self.write_manifest(outdir, [["variance", "4", "3"], ["variance", "7", "5"]])
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        report = json_objects(out)[-1]
        assert all(r["status"] == "ok" for r in report["runs"])

    def test_empty_manifest_exits_0(self, capsys, outdir):
        path = self.write_manifest(outdir, [])
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        assert json_objects(out)[-1] == {"runs": []}

    def test_nested_sweep_is_flagged(self, capsys, outdir):
        inner = self.write_manifest(outdir, [], name="inner.json")
        path = self.write_manifest(outdir, [["sweep", str(inner)]])
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 1
        report = json_objects(out)[-1]
        assert report["runs"][0]["error"] == "nested sweep is not allowed"
        assert report["runs"][0]["exit_code"] == 2

    def test_parser_is_built_once_per_sweep(self, capsys, outdir, monkeypatch):
        calls = []
        build = hyplevy.cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(hyplevy.cli, "build_parser", counting)
        inner = self.write_manifest(outdir, [], name="inner.json")
        runs = [["variance", "4", "3"]] * 3 + [
            ["variance", "4", "2"],
            ["sweep", str(inner)],
            ["variance", "--no-such-flag"],
            ["variance", "7", "5"],
        ]
        path = self.write_manifest(outdir, runs)
        code, out, _ = run(capsys, "sweep", str(path))
        assert len(calls) == 1  # main's parser also parses every manifest entry
        assert code == 1
        report = json_objects(out)[-1]["runs"]
        assert [r["exit_code"] for r in report] == [0, 0, 0, 2, 2, 2, 0]
        assert report[4]["error"] == "nested sweep is not allowed"
        assert report[5]["error"] == "argument parsing failed"

    def test_parallel_option_is_gone(self, capsys, outdir):
        path = self.write_manifest(outdir, [["variance", "4", "3"]])
        assert run(capsys, "sweep", str(path), "--parallel", "2")[0] == 2

    def test_malformed_manifest_exits_2(self, capsys, outdir):
        path = outdir / "bad.json"
        path.write_text('{"runs": "nope"}')
        code, _, err = run(capsys, "sweep", str(path))
        assert code == 2 and "manifest" in err

    def test_missing_manifest_exits_2(self, capsys, outdir):
        code, _, err = run(capsys, "sweep", str(outdir / "absent.json"))
        assert code == 2 and "cannot read" in err


class TestSpecfun:
    def test_log_gamma(self, capsys):
        code, out, _ = run(capsys, "specfun", "--op", "log-gamma", "6")
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["value"], math.log(120.0), rel_tol=1e-14)
        assert payload["op"] == "log-gamma" and payload["args"] == [6.0]

    def test_beta_stats(self, capsys):
        code, out, _ = run(capsys, "specfun", "--op", "beta-stats", "2", "3")
        payload = json.loads(out)
        assert code == 0 and payload["mean"] == 0.4

    def test_reg_inc_beta_midpoint(self, capsys):
        code, out, _ = run(capsys, "specfun", "--op", "reg-inc-beta", "0.5", "0.5", "0.5")
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.5) <= 1e-12

    def test_chebyshev_reports_the_side(self, capsys):
        code, out, _ = run(capsys, "specfun", "--op", "chebyshev-tail", "2", "3", "0.8")
        payload = json.loads(out)
        assert code == 0 and payload["side"] == "above" and payload["bound"] == 0.5

    def test_wrong_arity_exits_2(self, capsys):
        code, _, err = run(capsys, "specfun", "--op", "log-gamma", "1", "2")
        assert code == 2 and "takes 1" in err

    def test_non_integer_taylor_order_exits_2(self, capsys):
        for order in ("2.5", "inf", "nan"):
            code, _, err = run(capsys, "specfun", "--op", "taylor-bound", order, "1.0")
            assert code == 2 and "integer" in err, order

    def test_nan_taylor_point_exits_2(self, capsys):
        # a nan bound would print "value": NaN, which is not JSON
        code, out, err = run(capsys, "specfun", "--op", "taylor-bound", "2", "nan")
        assert code == 2 and out == "" and "nan" in err

    @pytest.mark.parametrize(
        "op_args",
        [
            # OverflowError (exit 1) and inf
            ("log-gamma", "1e308"),
            ("log-gamma", "3e305"),
            # OverflowError in B(p, q)
            ("inc-beta", "1e-320", "1e-320", "0.5"),
            # OverflowError in the prefactor
            ("reg-inc-beta", "1e200", "1e200", "0.5"),
            # Infinity in "args", and a NaN variance
            ("beta-stats", "inf", "1"),
            ("beta-stats", "1e308", "1e308"),
            ("chebyshev-tail", "2", "3", "inf"),
            # the documented -inf lower log
            ("gamma-ratio-bounds", "1", "2"),
            # Infinity for both logs
            ("stirling-bounds", "3e305"),
            ("wendel-lower", "inf", "0.5"),
            # OverflowError
            ("taylor-bound", "2", "1e200"),
        ],
        ids=lambda a: " ".join(a),
    )
    def test_a_value_json_cannot_carry_exits_2(self, capsys, op_args):
        code, out, err = run(capsys, "specfun", "--op", *op_args)
        assert code == 2 and out == "" and err.startswith("hyplevy: error:")

    @pytest.mark.parametrize(
        "op_args, field, want",
        [
            # a NaN variance
            (("beta-stats", "2", "1e308"), "mean", 2e-308),
            # ZeroDivisionError
            (("chebyshev-tail", "5e-324", "2", "5e-324"), "bound", 0.0),
            # OverflowError from float(1000!)
            (("taylor-bound", "1000", "0.5"), "value", 0.0),
        ],
        ids=lambda a: " ".join(a) if isinstance(a, tuple) else None,
    )
    def test_extreme_arguments_print_strict_json(self, capsys, op_args, field, want):
        def reject(constant):
            raise ValueError(constant)

        code, out, _ = run(capsys, "specfun", "--op", *op_args)
        assert code == 0
        assert json.loads(out, parse_constant=reject)[field] == want


class TestTopLevel:
    def test_import_leaves_out_concurrent_futures(self):
        # nothing in the CLI uses it, and importing it costs each process ms
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyplevy.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=hyplevy_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.startswith("hyplevy ")

    def test_no_command_exits_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2 and "hyplevy: error:" in err

    def test_relative_outputs_resolve_against_the_outdir(self, capsys, outdir):
        run(capsys, "probe", "--sequence", "fixed-codim", "--b", "2", "--n", "4",
            "--eps", "0.1", "--out", "nested/dir/p.csv")
        assert (outdir / "nested" / "dir" / "p.csv").exists()
