"""The hyplevy command.

Subcommands compute exact moments (variance, cumulants), recover densities
(density), interrogate sequences of dimension pairs (probe, classify), draw
Monte Carlo samples (sample), replay a manifest of runs (sweep), and expose
the special-function layer for spot checks (specfun).

Conventions shared by every subcommand:

- CSV outputs start with a single comment line
  `# provenance: {...json...}` carrying argv, package version, and a UTC
  timestamp (plus the seed where one is in play), followed by a snake_case
  header; floats are printed with %.17g so files round-trip exactly.
  Rows are formatted and written in fixed chunks, so output needs
  O(chunk) memory beyond the values, whatever the row count.
- Structured results also land in a JSON sidecar next to the CSV
  (`<name>.meta.json`), serialized with sorted keys.
- Relative output paths resolve against $HYPLEVY_OUTDIR when that is set.
- Exit codes: 0 success, 1 a sweep finished with failed runs, 2 invalid
  input, 3 a numerical procedure failed to converge.

Only the handlers that need a measure, the sampler or the spectral layer
(cumulants, density and sample) import them, and with them numpy; every
other command runs on math and specfun alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ConvergenceError, DomainError, HyplevyError
from .pairs import DimensionPair, log_variance, variance
from .regime import (
    ExplicitFamily,
    FixedCodimensionFamily,
    PowerLawFamily,
    ProbeRow,
    classify_sequence,
    probe_regime,
)
from .specfun import (
    beta_dist_stats,
    chebyshev_tail_bound,
    gamma_ratio_log_bounds,
    inc_beta,
    log_gamma,
    reg_inc_beta,
    stirling_log_bounds,
    taylor_remainder_bound,
    wendel_lower,
)

__all__ = ["main", "entrypoint", "build_parser"]

_EXIT_OK = 0
_EXIT_PARTIAL = 1
_EXIT_INVALID = 2
_EXIT_NUMERICAL = 3
# rows per formatted CSV write
_CSV_CHUNK = 4096


def _out_path(name: str) -> Path:
    path = Path(name)
    if not path.is_absolute():
        base = os.environ.get("HYPLEVY_OUTDIR")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _provenance(argv: list[str], **extra) -> dict:
    prov = {
        "argv": list(argv),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    prov.update(extra)
    return prov


def _is_int_column(col) -> bool:
    """True for a numpy array of integer dtype, or for a sequence whose
    every value is an integer."""
    dtype = getattr(col, "dtype", None)
    if dtype is not None:
        return dtype.kind in "iu"
    return all(isinstance(v, numbers.Integral) for v in col)


def _write_csv(path: Path, header: list[str], columns, prov: dict) -> None:
    """Write one column per header name: integer columns as %d, the rest
    with %.17g. Columns are numpy arrays or lists. Rows go out _CSV_CHUNK
    at a time, the chunk's values interleaved row-major and formatted by
    one repeated row format, so the Python floats and strings cost
    O(chunk) memory, not O(rows)."""
    row_fmt = ",".join("%d" if _is_int_column(c) else "%.17g" for c in columns) + "\n"
    n_rows = min((len(c) for c in columns), default=0)
    width = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write("# provenance: " + json.dumps(prov, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for c0 in range(0, n_rows, _CSV_CHUNK):
            k = min(_CSV_CHUNK, n_rows - c0)
            cells = [None] * (k * width)
            for j, col in enumerate(columns):
                part = col[c0 : c0 + k]
                cells[j::width] = part.tolist() if hasattr(part, "tolist") else part
            fh.write((row_fmt * k) % tuple(cells))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _add_measure_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        required=True,
        choices=("hyperbolic", "rescaled", "limit"),
        help="which Levy measure: raw pair, unit-variance pair, or codimension limit",
    )
    sub.add_argument("--d", type=int, help="ambient dimension (pair families)")
    sub.add_argument("--k", type=int, help="submanifold dimension (pair families)")
    sub.add_argument("--b", type=int, help="codimension (limit family)")


def _measure_from_args(args: argparse.Namespace):
    """The measure --family names, and the fields that identify it in
    outputs."""
    from .measures import make_measure

    if args.family == "limit":
        if args.b is None:
            raise DomainError("--family limit requires --b")
        return make_measure("limit", args.b), {"family": args.family, "b": args.b}
    if args.d is None or args.k is None:
        raise DomainError(f"--family {args.family} requires --d and --k")
    tag = {"family": args.family, "d": args.d, "k": args.k}
    return make_measure(args.family, DimensionPair(args.d, args.k)), tag


def _add_sequence_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--sequence",
        required=True,
        choices=("fixed-codim", "power-law", "explicit"),
        help="how the dimension pairs grow",
    )
    sub.add_argument("--b", type=int, help="codimension (fixed-codim)")
    sub.add_argument("--offset", type=int, default=2, help="d_n = n + offset (fixed-codim)")
    sub.add_argument("--gamma", type=float, help="power-law coefficient")
    sub.add_argument("--beta", type=float, help="power-law exponent, in (0, 1)")
    sub.add_argument("--step", type=int, default=4, help="d_n = step * n (power-law)")
    sub.add_argument(
        "--rounding", choices=("ceil", "floor"), default="ceil", help="power-law k rounding"
    )
    sub.add_argument("--pairs", help="explicit list, formatted d:k,d:k,...")


def _family_from_args(args: argparse.Namespace):
    if args.sequence == "fixed-codim":
        if args.b is None:
            raise DomainError("--sequence fixed-codim requires --b")
        return FixedCodimensionFamily(b=args.b, d_offset=args.offset)
    if args.sequence == "power-law":
        if args.gamma is None or args.beta is None:
            raise DomainError("--sequence power-law requires --gamma and --beta")
        return PowerLawFamily(
            gamma=args.gamma, beta=args.beta, d_step=args.step, rounding=args.rounding
        )
    if not args.pairs:
        raise DomainError("--sequence explicit requires --pairs d:k,d:k,...")
    pairs = []
    for chunk in args.pairs.split(","):
        d_str, _, k_str = chunk.partition(":")
        try:
            pairs.append(DimensionPair(int(d_str), int(k_str)))
        except ValueError as exc:
            raise DomainError(f"bad pair {chunk!r} in --pairs") from exc
    return ExplicitFamily(pairs=tuple(pairs))


def _number_list(text: str, kind: type) -> list:
    """The comma-separated numbers of text, each parsed by kind (int or float)."""
    try:
        return [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        name = "integer" if kind is int else "float"
        raise DomainError(f"expected a comma-separated {name} list, got {text!r}") from exc


def _cmd_variance(args: argparse.Namespace, argv: list[str]) -> int:
    pair = DimensionPair(args.d, args.k)
    _print_json(
        {
            "d": pair.d,
            "k": pair.k,
            "r": pair.r,
            "codim": pair.codim,
            "alpha": pair.alpha,
            "variance": variance(pair),
            "log_variance": log_variance(pair),
        }
    )
    return _EXIT_OK


def _cmd_cumulants(args: argparse.Namespace, argv: list[str]) -> int:
    if args.max_order < 2:
        raise DomainError("--max-order must be at least 2")
    measure, payload = _measure_from_args(args)
    payload["cumulants"] = {
        str(m): measure.shape.moment(m, measure.log_weight)
        for m in range(2, args.max_order + 1)
    }
    _print_json(payload)
    return _EXIT_OK


def _cmd_density(args: argparse.Namespace, argv: list[str]) -> int:
    from .spectral import invert_to_density

    measure, tag = _measure_from_args(args)
    grid = invert_to_density(
        measure, half_width=args.half_width, n_points=args.n_points
    )
    path = _out_path(args.out)
    prov = _provenance(argv)
    _write_csv(path, ["x", "value"], [grid.xs, grid.values], prov)
    meta = dict(grid.meta)
    meta.update(tag)
    _write_json(path.with_name(path.name + ".meta.json"), meta)
    print(f"wrote {path} ({len(grid.values)} rows)")
    return _EXIT_OK


def _cmd_probe(args: argparse.Namespace, argv: list[str]) -> int:
    family = _family_from_args(args)
    table = probe_regime(family, _number_list(args.n, int), _number_list(args.eps, float))
    path = _out_path(args.out)
    prov = _provenance(argv)
    header = [f.name for f in dataclasses.fields(ProbeRow)]
    columns = [[getattr(row, name) for row in table.rows] for name in header]
    _write_csv(path, header, columns, prov)
    _write_json(path.with_name(path.name + ".meta.json"), _verdict_fields(table.verdict))
    print(f"wrote {path} ({len(table.rows)} rows, verdict {table.verdict.label})")
    return _EXIT_OK


def _verdict_fields(verdict) -> dict:
    return {
        "label": verdict.label,
        "threshold_limit": verdict.threshold_limit,
        "rationale": verdict.rationale,
    }


def _cmd_classify(args: argparse.Namespace, argv: list[str]) -> int:
    _print_json(_verdict_fields(classify_sequence(_family_from_args(args), margin=args.margin)))
    return _EXIT_OK


def _cmd_sample(args: argparse.Namespace, argv: list[str]) -> int:
    from .sampler import SamplerConfig, empirical_cumulants, sample

    measure, tag = _measure_from_args(args)
    config = SamplerConfig(
        cutoff_delta=args.delta, seed=args.seed, batch_size=args.batch_size
    )
    batch = sample(measure, args.n, config)
    path = _out_path(args.out)
    prov = _provenance(argv, seed=args.seed)
    _write_csv(path, ["value"], [batch.values], prov)
    sidecar = dict(batch.diagnostics)
    sidecar.update(tag)
    sidecar["n"] = args.n
    sidecar["seed"] = args.seed
    sidecar["cutoff_delta"] = args.delta
    order = min(4, max(1, args.n - 1))
    sidecar["empirical_cumulants"] = {
        str(m + 1): v for m, v in enumerate(empirical_cumulants(batch.values, order))
    } if args.n >= 8 else {}
    _write_json(path.with_name(path.name + ".meta.json"), sidecar)
    print(f"wrote {path} ({args.n} rows)")
    return _EXIT_OK


def _taylor_bound(order: float, x: float) -> dict:
    if not order.is_integer():  # inf and nan included
        raise DomainError("taylor-bound order must be an integer")
    return {"value": taylor_remainder_bound(int(order), x)}


def _fields(keys: tuple, fn):
    """fn with its tuple result returned as a dict under keys."""
    return lambda *a: dict(zip(keys, fn(*a)))


# op -> (argument count, the op returning its result fields)
_SPECFUN_OPS = {
    "log-gamma": (1, lambda x: {"value": log_gamma(x)}),
    "inc-beta": (3, lambda p, q, x: {"value": inc_beta(p, q, x)}),
    "reg-inc-beta": (3, lambda p, q, x: {"value": reg_inc_beta(p, q, x)}),
    "beta-stats": (2, _fields(("mean", "variance"), beta_dist_stats)),
    "chebyshev-tail": (3, _fields(("side", "bound"), chebyshev_tail_bound)),
    "gamma-ratio-bounds": (2, _fields(("log_lower", "log_upper"), gamma_ratio_log_bounds)),
    "stirling-bounds": (1, _fields(("log_lower", "log_upper"), stirling_log_bounds)),
    "wendel-lower": (2, lambda x, s: {"value": wendel_lower(x, s)}),
    "taylor-bound": (2, _taylor_bound),
}


def _cmd_specfun(args: argparse.Namespace, argv: list[str]) -> int:
    op, vals = args.op, args.args
    n_args, fn = _SPECFUN_OPS[op]
    if len(vals) != n_args:
        raise DomainError(f"op {op!r} takes {n_args} numeric arguments, got {len(vals)}")
    result = fn(*vals)
    # JSON carries no inf, which a bound may be (the Gamma-ratio lower log at p = 1)
    if any(isinstance(v, float) and not math.isfinite(v) for v in result.values()):
        raise DomainError(f"op {op!r} gives {result}, which JSON cannot carry")
    result["op"] = op
    result["args"] = vals
    _print_json(result)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise DomainError(f"cannot read manifest {args.manifest!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"manifest {args.manifest!r} is not valid JSON: {exc}") from exc
    runs = manifest.get("runs")
    if not isinstance(runs, list) or not all(
        isinstance(r, dict) and isinstance(r.get("argv"), list) for r in runs
    ):
        raise DomainError('manifest must look like {"runs": [{"argv": [...]}, ...]}')

    parser = build_parser()

    def one(run_argv: list[str]):
        if run_argv and run_argv[0] == "sweep":
            return _EXIT_INVALID, "nested sweep is not allowed"
        return _execute([str(tok) for tok in run_argv], parser)

    argvs = [r["argv"] for r in runs]
    results = [one(a) for a in argvs]

    report = {
        "runs": [
            {
                "argv": [str(tok) for tok in a],
                "status": "ok" if code == _EXIT_OK else "error",
                "exit_code": code,
                **({"error": msg} if msg else {}),
            }
            for a, (code, msg) in zip(argvs, results)
        ]
    }
    _print_json(report)
    return _EXIT_OK if all(code == _EXIT_OK for code, _ in results) else _EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyplevy",
        description="limit laws of Poisson processes of totally geodesic submanifolds",
    )
    parser.add_argument("--version", action="version", version=f"hyplevy {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("variance", help="exact variance of a dimension pair")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_variance)

    p = subs.add_parser("cumulants", help="exact cumulants of a measure")
    _add_measure_args(p)
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(func=_cmd_cumulants)

    p = subs.add_parser("density", help="recover the density by Fourier inversion")
    _add_measure_args(p)
    p.add_argument("--half-width", type=float, default=12.0)
    p.add_argument("--n-points", type=int, default=16384)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("probe", help="tabulate a sequence of dimension pairs")
    _add_sequence_args(p)
    p.add_argument("--n", required=True, help="comma-separated sequence indices")
    p.add_argument("--eps", required=True, help="comma-separated epsilon values")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_probe)

    p = subs.add_parser("classify", help="Gaussian / degenerate / indeterminate verdict")
    _add_sequence_args(p)
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("sample", help="draw Monte Carlo samples")
    _add_measure_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1e-3, help="jump truncation level")
    p.add_argument("--batch-size", type=int, default=100_000)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("sweep", help="run every entry of a JSON manifest")
    p.add_argument("manifest", help='JSON file {"runs": [{"argv": [...]}, ...]}')
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("specfun", help="spot-check the special-function layer")
    p.add_argument(
        "--op",
        required=True,
        choices=tuple(_SPECFUN_OPS),
    )
    p.add_argument("args", type=float, nargs="*")
    p.set_defaults(func=_cmd_specfun)

    return parser


def _execute(argv: list[str], parser: argparse.ArgumentParser) -> tuple[int, str | None]:
    """Parse and run one command line with parser (from build_parser);
    (exit_code, error message or None)."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else _EXIT_INVALID
        return (code, "argument parsing failed" if code != 0 else None)
    try:
        return args.func(args, argv), None
    except ConvergenceError as exc:
        return _EXIT_NUMERICAL, str(exc)
    except (HyplevyError, ValueError, OSError) as exc:
        return _EXIT_INVALID, str(exc)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, message = _execute(list(argv), build_parser())
    if message:
        print(f"hyplevy: error: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
