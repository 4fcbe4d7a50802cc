"""hyplevy's benchmark: one command for three workloads.

    python3 bench/run.py --workload mc_sample --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

A run builds nothing: it imports hyplevy from src/ of the checkout it
sits in and fails (exit 2, no result) when that is missing. It prints one
line per metric and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Outputs go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# one thread per process: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("mc_sample", "density_grid", "cli_sweep")


def _import_program() -> str | None:
    """Put the checkout's src/ first on the path; an error message if
    hyplevy cannot be imported from there."""
    if not (SRC / "hyplevy" / "__init__.py").is_file():
        return f"no hyplevy sources under {SRC}"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import hyplevy

    if Path(hyplevy.__file__).resolve().parent != (SRC / "hyplevy").resolve():
        return f"imported hyplevy from {hyplevy.__file__}, not from {SRC}"
    return None


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from tracer import Tracer
    from workloads import OUT, WORKLOADS

    tracer = Tracer() if trace else None
    run = WORKLOADS[workload](seed, float(seconds), tracer)
    for failure in run.failures:
        print(f"CHECK FAILED [{workload}]: {failure}", file=sys.stderr)
    if trace:
        import layers

        metrics, raw = layers.all_metrics()
        metrics["trace.overhead_pct"] = (run.trace_overhead_pct(), "%")
        path = OUT / f"trace_{workload}_seed{seed}.json"
        tracer.write(path, {"workload": workload, "seed": seed, "raw": raw,
                            "metrics": {k: v for k, (v, _) in metrics.items()}})
        run.notes.append(f"spans written to {path.relative_to(BENCH.parent)}")
    else:
        metrics = run.metrics
    for note in run.notes:
        print(f"{workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(f"{workload}: attempted {run.attempted}, failed {run.failed}, correct {not run.failures}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="hyplevy benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    error = _import_program()
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    # one core for this process and the children it starts, so the
    # calibration kernel and the work it scales share that core's load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload is None:
        results = {}
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workloads": results}))
        return 0
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
