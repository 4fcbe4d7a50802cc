"""The three workloads. Each returns a WorkloadRun: the operations it
attempted and failed, the correctness failures it found, and its
end-to-end metrics. Timed regions hold only calls into hyplevy (or, for
cli_sweep, one hyplevy process from spawn to exit); reference values and
checks are computed outside them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import child
import manifest as mf
import reference as ref
from reference import Law

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MC_LAWS = tuple(Law(*spec) for spec in child.MC_LAWS)
MC_DRAWS = 500  # draws per sample() call, the mc_sample operation
MC_BATCH = 500
MC_PREFIX = 377  # a partial batch, for the stream-prefix check
DG_LAWS = (
    [Law("rescaled", d, k) for d, k in ref.admissible_pairs(24)]
    + [Law("limit", b=b) for b in range(1, 7)]
    + [Law("hyperbolic", 4, 3)]
)
SETUP_REPS = 7
DG_CALIBRATE_EVERY = 4  # densities between calibration ticks
CHILD_TIMEOUT_S = 170

MC_TARGETS = (
    ("hyplevy.sampler", "tail_mass", "sampler.tail_mass"),
    ("hyplevy.sampler", "partial_moment", "sampler.partial_moment"),
    ("hyplevy.sampler", "reg_inc_beta", "specfun.reg_inc_beta"),
    ("hyplevy.sampler", "tanh_sinh", "quadrature.tanh_sinh"),
    ("hyplevy.sampler", "exp_sinh", "quadrature.exp_sinh"),
)
DG_TARGETS = (
    ("hyplevy.spectral", "char_function", "spectral.char_function"),
    ("hyplevy.spectral", "tanh_sinh", "quadrature.tanh_sinh"),
    ("hyplevy.spectral", "exp_sinh", "quadrature.exp_sinh"),
)


class Calibration:
    """A fixed kernel timed between a run's operations: numpy arithmetic
    and a gather on cache-sized arrays interleaved with a pure-Python loop,
    the mix of hyplevy's small-array work.

    The reference machine's speed drifts by 15-50 % within and between
    runs of a few tens of seconds (other tenants share its cores), and an
    operation's fastest repetition in a run moves with it. The ratio of an
    operation's time to the kernel's times just before and after it moves
    far less, so every time is reported in reference seconds: multiplied
    by REF_S over the mean of the two adjacent kernel times. REF_S is the
    kernel's time on the reference machine (2 cores, Python 3.11.7,
    numpy 2.4.6).
    """

    REF_S = 0.0215

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x = rng.random(1 << 16) + 0.5
        self.idx = ((self.x - 0.5) * 4095).astype(np.int64)
        self.table = rng.random(4096)
        self.ticks: list[float] = []  # fastest kernel time of each tick

    def tick(self, reps: int = 1) -> int:
        """Time the kernel reps times; returns the tick's index."""
        fresh = []
        for _ in range(reps):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(20):
                y = np.exp(-2.5 * np.log(self.x)) * np.sin(self.x)
                acc += float(np.sum(y * np.take(self.table, self.idx)))
                for i in range(300):
                    acc += math.log(i + 1.5)
            fresh.append(time.perf_counter() - t0)
        self.ticks.append(min(fresh))
        return len(self.ticks) - 1

    def scale(self, i: int) -> float:
        """Reference seconds per machine second between ticks i and i + 1."""
        after = self.ticks[i + 1] if i + 1 < len(self.ticks) else self.ticks[i]
        return 2.0 * self.REF_S / (self.ticks[i] + after)


@dataclass
class WorkloadRun:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)
    # (unit, traced, operations in the unit, machine seconds, tick before it)
    timings: list[tuple[str, bool, int, float, int]] = field(default_factory=list)

    def record(self, unit: str, seconds: float, traced: bool, ops: int = 1) -> None:
        """One repetition of a unit, timed after the latest calibration tick."""
        self.timings.append((unit, traced, ops, seconds, len(self.calibration.ticks) - 1))

    def ops_per_s(self, traced: bool = False) -> float:
        """Operations per reference second of one pass over every unit, each
        unit timed by the median of its repetitions."""
        units: dict[str, tuple[int, list[float]]] = {}
        for unit, tr, ops, secs, tick in self.timings:
            if tr == traced:
                units.setdefault(unit, (ops, []))[1].append(secs * self.calibration.scale(tick))
        return sum(ops for ops, _ in units.values()) / sum(
            statistics.median(t) for _, t in units.values())

    def trace_overhead_pct(self) -> float:
        return 100.0 * (self.ops_per_s(False) / self.ops_per_s(True) - 1.0)

    def setup(self, measure) -> list[float]:
        """Reference seconds of SETUP_REPS set-ups, each between two ticks."""
        out = []
        tick = self.calibration.tick(3)
        for _ in range(SETUP_REPS):
            secs = measure()
            out.append((secs, tick))
            tick = self.calibration.tick(3)
        return [secs * self.calibration.scale(t) for secs, t in out]

    def finish(self, setup_s: list[float], peak_mb: float) -> float:
        """Set the end-to-end metrics; returns ops_per_s."""
        self.calibration.tick(3)  # closes the bracket of the last operation
        rate = self.ops_per_s()
        self.metrics = {
            "ops_per_s": (rate, "ops/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        machine = sum(t[3] for t in self.timings)
        ref_s = sum(t[3] * self.calibration.scale(t[4]) for t in self.timings)
        ticks = self.calibration.ticks
        self.notes.append(
            f"machine seconds per reference second {machine / ref_s:.4f} "
            f"(calibration kernel {1e3 * min(ticks):.2f}-{1e3 * max(ticks):.2f} ms, "
            f"{self.calibration.REF_S * 1e3:.2f} ms on the reference)"
        )
        return rate


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["HYPLEVY_OUTDIR"] = str(OUT / "cli")
    return env


def run_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; (wall seconds from spawn to exit, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - t0, proc


def child_probe(name: str) -> dict:
    _, proc = run_process([sys.executable, str(BENCH / "child.py"), name])
    if proc.returncode != 0:
        raise RuntimeError(f"child probe {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def min_rounds(tracer) -> int:
    """Whole rounds a run makes at least: one, or a traced and an untraced
    one when tracing, so the overhead has both sides."""
    return 1 if tracer is None else 2


def measure_of(law: Law):
    return child.make((law.family, law.d, law.k, law.b))


# ------------------------------------------------------------- mc_sample


def mc_sample(seed: int, seconds: float, tracer) -> WorkloadRun:
    from hyplevy import SamplerConfig, sample

    run = WorkloadRun()
    setup = run.setup(lambda: child_probe("setup-mc")["seconds"])
    measures = [measure_of(law) for law in MC_LAWS]
    for m in measures:  # builds the jump tables outside the timed loop
        sample(m, 1, SamplerConfig(cutoff_delta=child.MC_DELTA, batch_size=MC_BATCH))

    pools: list[list[np.ndarray]] = [[] for _ in MC_LAWS]
    firsts: list = [None] * len(MC_LAWS)
    op = 0
    start = time.perf_counter()
    rnd = 0
    while rnd < min_rounds(tracer) or time.perf_counter() - start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        with tracer.instrument(MC_TARGETS) if traced else contextlib.nullcontext():
            for i, (law, m) in enumerate(zip(MC_LAWS, measures)):
                cfg = SamplerConfig(
                    cutoff_delta=child.MC_DELTA, seed=seed * 100_000 + op, batch_size=MC_BATCH
                )
                run.attempted += 1
                op += 1
                run.calibration.tick()
                try:
                    with tracer.span("sampler.sample") if traced else contextlib.nullcontext():
                        t0 = time.perf_counter()
                        batch = sample(m, MC_DRAWS, cfg)
                        run.record(law.label, time.perf_counter() - t0, traced)
                except Exception as exc:  # a failed operation is counted, not fatal
                    run.failed += 1
                    run.failures.append(f"{law.label} sample(seed={cfg.seed}): {exc!r}")
                    continue
                pools[i].append(batch.values)
                if firsts[i] is None:
                    firsts[i] = (cfg, batch)
        rnd += 1

    z = checks.z_value(4 * len(MC_LAWS))
    for i, (law, m) in enumerate(zip(MC_LAWS, measures)):
        if firsts[i] is None:
            continue
        cfg, batch = firsts[i]
        run.failures += checks.check_sampler_diagnostics(law.label, law, batch.diagnostics, child.MC_DELTA)
        short = sample(m, MC_PREFIX, cfg).values
        if not np.array_equal(short, batch.values[:MC_PREFIX]):
            run.failures.append(f"{law.label}: a {MC_PREFIX}-draw run is not the prefix of a {MC_DRAWS}-draw run")
        kap = checks.truncated_cumulants(law, child.MC_DELTA)
        run.failures += checks.check_draws(law.label, np.concatenate(pools[i]), kap, z)

    rate = run.finish(setup, child.peak_rss_mb())
    run.notes.append(f"draws_per_s = {rate * MC_DRAWS:.6g} draws/s ({MC_DRAWS} draws per operation)")
    return run


# ---------------------------------------------------------- density_grid


def density_grid(seed: int, seconds: float, tracer) -> WorkloadRun:
    from hyplevy import char_exponent, invert_to_density

    run = WorkloadRun()
    setup = run.setup(lambda: child_probe("setup-density")["seconds"])
    rng = random.Random(seed)
    order = list(DG_LAWS)
    rng.shuffle(order)
    measures = {law: measure_of(law) for law in order}
    refs = {law: (ref.second_moment(law), ref.cumulant(law, 3)) for law in order}

    first_meta: dict[Law, dict] = {}
    start = time.perf_counter()
    rnd = 0
    while rnd < min_rounds(tracer) or time.perf_counter() - start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        with tracer.instrument(DG_TARGETS) if traced else contextlib.nullcontext():
            for j, law in enumerate(order):
                if j % DG_CALIBRATE_EVERY == 0:
                    run.calibration.tick()
                run.attempted += 1
                try:
                    with tracer.span("spectral.invert_to_density") if traced else contextlib.nullcontext():
                        t0 = time.perf_counter()
                        grid = invert_to_density(measures[law])
                        run.record(law.label, time.perf_counter() - t0, traced)
                except Exception as exc:
                    run.failed += 1
                    run.failures.append(f"{law.label} invert_to_density: {exc!r}")
                    continue
                if law not in first_meta:
                    first_meta[law] = grid.meta
                    s2, k3 = refs[law]
                    run.failures += checks.check_density(
                        law.label, grid.meta, grid.x0, grid.step, grid.values, s2, k3
                    )
                elif grid.meta != first_meta[law]:
                    run.failures.append(f"{law.label}: a repeated inversion changed its meta")
        rnd += 1

    for law in rng.sample(order, 3):
        sigma = math.sqrt(refs[law][0])
        lg_rel = ref.log_gamma_tol(*checks.coef_log_sizes(law))
        for t in (rng.uniform(0.25, 1.0) / sigma, rng.uniform(1.0, 4.0) / sigma):
            got = complex(char_exponent(measures[law], t))
            run.failures += checks.check_cf(law.label, t, got, ref.psi_series(law, t), lg_rel)

    rate = run.finish(setup, child.peak_rss_mb())
    run.notes.append(f"densities_per_s = {rate:.6g} densities/s ({len(order)} laws per round)")
    return run


# ------------------------------------------------------------- cli_sweep


def _strip_timestamps(text: str) -> str:
    """A CSV with its provenance timestamp removed, for run-to-run equality."""
    head, _, body = text.partition("\n")
    if head.startswith("# provenance: "):
        prov = json.loads(head[len("# provenance: "):])
        prov.pop("timestamp", None)
        head = json.dumps(prov, sort_keys=True)
    return head + "\n" + body


def parse_sweep_stdout(text: str) -> list:
    """The sweep's stdout as a list of JSON objects and 'wrote ...' lines,
    in run order; the last item is the sweep report."""
    decoder = json.JSONDecoder()
    items, idx = [], 0
    while idx < len(text):
        if text[idx].isspace():
            idx += 1
        elif text[idx] == "{":
            obj, idx = decoder.raw_decode(text, idx)
            items.append(obj)
        else:
            end = text.find("\n", idx)
            end = len(text) if end < 0 else end
            items.append(text[idx:end])
            idx = end
    return items


def _sweep_outputs(manifest: dict) -> dict[str, str]:
    out = {}
    for run in manifest["runs"]:
        argv = run["argv"]
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            for path in (OUT / "cli" / name, OUT / "cli" / (name + ".meta.json")):
                out[path.name] = path.read_text() if path.exists() else ""
    return out


def cli_sweep(seed: int, seconds: float, tracer) -> WorkloadRun:
    import sweep_checks

    run = WorkloadRun()
    (OUT / "cli").mkdir(parents=True, exist_ok=True)
    import_cmd = [sys.executable, "-c", "import hyplevy.cli"]
    run_process(import_cmd)  # leaves the bytecode cache warm, as users find it
    setup = run.setup(lambda: run_process(import_cmd)[0])

    full = mf.build(seed)
    path = OUT / "cli" / "manifest.json"
    path.write_text(json.dumps(mf.sweep_manifest(full), indent=2))
    argv = [sys.executable, str(BENCH / "child.py"), "sweep", str(path)]
    peak = 0.0

    first = None
    start = time.perf_counter()
    rnd = 0
    while rnd < min_rounds(tracer) or time.perf_counter() - start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        run.calibration.tick(3)
        with tracer.span("cli.sweep") if traced else contextlib.nullcontext():
            wall, proc = run_process(argv)
        tags = [ln for ln in proc.stderr.splitlines() if ln.startswith(child.PEAK_TAG)]
        peak = max([peak] + [float(ln[len(child.PEAK_TAG):]) for ln in tags])
        items = parse_sweep_stdout(proc.stdout)
        report = items[-1] if items and isinstance(items[-1], dict) else {"runs": []}
        n_runs = len(full["runs"])
        statuses = [r.get("status") for r in report.get("runs", [])]
        run.attempted += n_runs
        failed = n_runs - statuses.count("ok") if len(statuses) == n_runs else n_runs
        run.failed += failed
        if failed:
            run.failures.append(f"sweep exit {proc.returncode}: {failed} runs failed\n{proc.stderr[-2000:]}")
        run.record("sweep", wall, traced, ops=n_runs)
        snapshot = (proc.returncode, items, {k: _strip_timestamps(v) for k, v in _sweep_outputs(full).items()})
        if first is None:
            first = snapshot
            raw_files = _sweep_outputs(full)
        elif snapshot != first:
            run.failures.append("a repeated sweep of the same manifest changed its output")
        rnd += 1

    code, items, _ = first
    if code != 0:
        run.failures.append(f"sweep exited {code}")
    run.failures += sweep_checks.check_sweep(full, items, raw_files)

    rate = run.finish(setup, peak)
    n_runs = len(full["runs"])
    run.notes.append(f"sweep_s = {n_runs / rate:.6g} s ({n_runs} manifest runs per sweep process)")
    return run


WORKLOADS = {"mc_sample": mc_sample, "density_grid": density_grid, "cli_sweep": cli_sweep}
