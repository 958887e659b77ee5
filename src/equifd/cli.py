"""Command-line experiment runner.

Subcommands: solve, convergence, adapt, table1, table2, error-profile.
A --config file of `key = value` lines pre-populates flags. Each key is
a long flag name spelled in full (`lambda`, `n-ladder` or `n_ladder`;
flags are never abbreviated, on the command line either), and each line
is parsed as `--key=value`, so its value is checked exactly like the
flag's (type and choices). Flags given on the command line always win,
required ones included. Every usage error exits 2 with a message and no
traceback, as does a ParameterError from the run, naming the flags to fix.
The default output directory honors EQUIFD_OUTDIR.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .adapt import AdaptiveConfig, adaptive_solve
from .analysis import max_error
from .experiments import (
    LADDER,
    format_table1,
    format_table2,
    run_error_profile,
    run_table1,
    run_table2,
    solve_single,
)
from .io import default_output_dir
from .problem import LAM_MAX, ParameterError, ProblemSpec, require


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> list[str]:
    """key = value lines as ['--key=value', ...]; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        tokens.append(f"--{key}={val.strip()}")
    return tokens


def _number(kind, name: str, low, strict: bool = False, high: float = math.inf):
    """argparse type: an int or float (kind) that require accepts as the
    library parameter name, so a flag and its parameter share one rule."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        try:
            return require(name, value, low, strict, high)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


_lam = _number(float, "lam", 0.0, strict=True, high=LAM_MAX)
_ell = _number(float, "ell", 0.0, strict=True)
_n_cells = _number(int, "n_cells", 2)
_max_iter = _number(int, "max_iter", 1)
_max_outer = _number(int, "max_outer", 1)
_tol = _number(float, "tol", 0.0, strict=True)
_eps = _number(float, "eps", 0.0, strict=True)
_alpha = _number(float, "alpha", 0.0)
_beta = _number(float, "beta", 0.0)


def _ladder(text: str) -> list[int]:
    """--n-ladder value: comma-separated N values >= 2, each twice the one before."""
    n_values = [_n_cells(s) for s in text.split(",")]
    if any(b != 2 * a for a, b in zip(n_values, n_values[1:])):
        raise argparse.ArgumentTypeError(
            "entries must double (order estimation assumes mesh halving)")
    return n_values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=_lam, default=10.0,
                   help="model parameter lambda (> 0)")
    p.add_argument("--ell", type=_ell, default=1.0, help="domain length (> 0)")
    p.add_argument("--config", default=None, help="key=value file pre-populating flags")
    p.add_argument("--out", default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equifd",
                                     description="boundary-layer BVP on equidistributed grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single solve, CSV columns x,u,u_exact,abs_error")
    _add_common(p)
    p.add_argument("--n", type=_n_cells, default=20, help="number of grid intervals")
    p.add_argument("--grid", choices=["uniform", "analytic", "equidistributed", "adaptive"],
                   default="uniform")
    p.add_argument("--beta", type=_beta, default=0.0, help="monitor exponent")
    p.add_argument("--alpha", type=_alpha, default=0.0, help="adaptive monitor weight")
    p.add_argument("--tol", type=_tol, default=1e-12, help="equidistribution tolerance")
    p.add_argument("--max-iter", type=_max_iter, default=10000, help="equidistribution sweep cap")
    p.add_argument("--eps", type=_eps, default=1e-10, help="adaptive stopping tolerance")
    p.add_argument("--max-outer", type=_max_outer, default=1000, help="adaptive iteration cap")

    p = sub.add_parser("convergence", help="refinement ladder for one grid family")
    _add_common(p)
    p.add_argument("--grid", choices=["uniform", "analytic"], default="uniform")
    p.add_argument("--beta", type=_beta, default=0.0)
    p.add_argument("--n-ladder", type=_ladder, default=",".join(str(n) for n in LADDER),
                   help="comma-separated doubling N values")

    p = sub.add_parser("adapt", help="adaptive solve with optional iteration trace")
    _add_common(p)
    p.add_argument("--n", type=_n_cells, default=20)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--beta", type=_beta, required=True)
    p.add_argument("--eps", type=_eps, default=1e-10)
    p.add_argument("--max-outer", type=_max_outer, default=1000)
    p.add_argument("--tol", type=_tol, default=1e-12)
    p.add_argument("--max-iter", type=_max_iter, default=10000)
    p.add_argument("--trace", default=None, help="per-iteration trace CSV path")

    p = sub.add_parser("table1", help="convergence orders of the analytic grid families")
    _add_common(p)

    p = sub.add_parser("table2", help="adaptive-monitor (alpha, beta) sweep at N=20")
    _add_common(p)
    p.add_argument("--n", type=_n_cells, default=20)
    p.add_argument("--eps", type=_eps, default=1e-10)
    p.add_argument("--max-outer", type=_max_outer, default=5000)

    p = sub.add_parser("error-profile", help="pointwise error of the four grid families")
    _add_common(p)
    p.add_argument("--n", type=_n_cells, default=80)

    for p in sub.choices.values():
        # no prefix matching: a config key `n` must not become `--n-ladder`
        p.allow_abbrev = False
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """One parse; a --config file's lines go in as flags before argv's own,
    so argparse checks them like flags and the command line wins."""
    finder = argparse.ArgumentParser(prog="equifd", add_help=False, allow_abbrev=False)
    finder.add_argument("--config", nargs="?")  # a missing value is build_parser's error
    config = finder.parse_known_args(argv)[0].config
    if config:
        argv = [*argv[:1], *_load_config(config), *argv[1:]]
    return build_parser().parse_args(argv)


# (parameter, attribute of args, flag): the flag that sets each parameter a
# ParameterError may blame, where the command has it; n_cells is --n, or the
# --n-ladder entry that failed
_FLAGS = (("lam", "lam", "--lambda"), ("ell", "ell", "--ell"), ("alpha", "alpha", "--alpha"),
          ("beta", "beta", "--beta"), ("n_cells", "n", "--n"),
          ("n_cells", "n_ladder", "--n-ladder"))


def _typed(value: float) -> str:
    """A flag's value as typed: its :g form where that reads back as value
    and is no longer than repr, else repr (1e-320, not :g's 9.99989e-321;
    1e+15, not repr's 1000000000000000.0)."""
    g, r = format(value, "g"), repr(float(value))
    return g if float(g) == value and len(g) <= len(r) else r


def _out_path(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    return default_output_dir() / default_name


def main(argv=None) -> int:
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exit_:  # argparse usage error (2) or --help (0)
        return exit_.code

    try:
        spec = ProblemSpec(lam=args.lam, ell=args.ell)
        if args.command == "solve":
            sol, converged, sweeps = solve_single(
                spec, args.n, args.grid, beta=args.beta, alpha=args.alpha,
                tol=args.tol, max_iter=args.max_iter, eps=args.eps,
                max_outer=args.max_outer,
            )
            path = _out_path(args, "solution.csv")
            sol.write_csv(path)
            swept = "" if sweeps is None else f" after {sweeps} sweeps"
            print(f"max error {max_error(sol):.6e}{swept}  ({path})")
            return 0 if converged else 1

        if args.command == "convergence":
            beta = 0.0 if args.grid == "uniform" else args.beta
            report = run_table1(spec, n_values=args.n_ladder, betas=(beta,))[0]
            path = _out_path(args, "convergence.csv")
            report.write_csv(path)
            print(report.format_table())
            print(f"({path})")
            return 0

        if args.command == "adapt":
            cfg = AdaptiveConfig(alpha=args.alpha, beta=args.beta, eps=args.eps,
                                 max_outer=args.max_outer, inner_tol=args.tol,
                                 inner_max_iter=args.max_iter)
            res = adaptive_solve(spec, args.n, cfg)
            path = _out_path(args, "adaptive_solution.csv")
            res.solution.write_csv(path)
            if args.trace:
                res.write_trace_csv(args.trace)
            status = "converged" if res.converged else "NOT converged"
            stalls = f", {res.inner_stalls} inner stalls" if res.inner_stalls else ""
            print(f"max error {res.error_norm:.6e} after n={res.outer_iterations} solves"
                  f"{stalls} ({status})  ({path})")
            return 0 if res.converged else 1

        if args.command == "table1":
            path = _out_path(args, "table1.csv")
            reports = run_table1(spec, csv_path=path)
            print(format_table1(reports))
            print(f"({path})")
            return 0

        if args.command == "table2":
            path = _out_path(args, "table2.csv")
            cells = run_table2(spec, n_cells=args.n, eps=args.eps,
                               max_outer=args.max_outer, csv_path=path)
            print(format_table2(cells))
            print(f"({path})")
            return 0 if all(c.converged for c in cells) else 1

        if args.command == "error-profile":
            path = _out_path(args, "error_profile.csv")
            run_error_profile(spec, n_cells=args.n, csv_path=path)
            print(f"wrote {path}")
            return 0
    except OSError as err:  # an output path that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ParameterError as err:  # each flag passed its own rule, but not this check
        named = [f"{flag} {err.params[param] if param == 'n_cells' else _typed(err.params[param])}"
                 for param, dest, flag in _FLAGS if param in err.params and hasattr(args, dest)]
        named[-2:] = [" and ".join(named[-2:])]  # "--lambda 1e-300, --ell 1 and --n 80", or ""
        flags = ", ".join(named)
        print(f"error: {flags}: {err}" if flags else f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
