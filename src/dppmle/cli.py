"""Command-line entry point.

The subcommands are the rows of `COMMANDS`.  Exit codes: 0 success,
2 config error, 3 budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import (ConfigError, GroundSetTooLarge, NormalizationMismatch,
                     SingularInformation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(config).__name__}")
    return config


# --- summaries printed after each command; a nonzero return is the exit code

def _print_simulate(report, out):
    print(f"simulate: wrote {', '.join(report['files'])} to {out}")


def _print_estimate(report, out):
    loss = report.get("loss")
    tail = f" loss={loss:.6g}" if loss is not None else ""
    print(f"estimate: loglik={report['result']['log_likelihood']:.6f}"
          f" converged={report['result']['converged']}{tail}")


def _print_hessian(report, out):
    print(f"hessian: null space dimension {report['null_space_dimension']}"
          f" (irreducible={report['irreducible']})")


def _print_scan(report, out):
    for row in report["rows"]:
        (_, n), (value_key, v), (flag_key, flag) = row.items()
        if v is None:
            print(f"n={n} {value_key}={flag_key}")
        else:
            print(f"n={n} {value_key}={v:.6e}{f' ({flag_key})' if flag else ''}")
    if report["fit"]:
        print(f"fit: slope={report['fit']['slope']:.4f} r2={report['fit']['r2']:.4f}")


def _print_rate_study(report, out):
    for row in report["rows"]:
        print(f"size={row['sample_size']} mean_loss={row['mean_loss']:.6g} "
              f"within={row['mean_within']:.6g} cross_median={row['median_cross']:.6g}")
    for name, fit in report["slopes"].items():
        if fit:
            print(f"slope[{name}]={fit['slope']:.4f} (r2={fit['r2']:.4f})")


def _print_verify_identities(report, out):
    print(f"verify-identities: worst relative residual "
          f"{report['worst_relative_residual']:.3e} "
          f"({'pass' if report['passed'] else 'FAIL'})")
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


#: (name, help, runner(config, out, args) -> report, summary printer).
#: The runners look the command up on `experiments` at call time.
COMMANDS = (
    ("simulate", "draw samples from an exact table",
     lambda config, out, args: experiments.run_simulate(config, out, seed_override=args.seed),
     _print_simulate),
    ("estimate", "fit a kernel to observed samples",
     lambda config, out, args: experiments.run_estimate(
         config, Path(args.samples), out, seed_override=args.seed),
     _print_estimate),
    ("hessian", "dump the Hessian coordinate matrix and null space",
     lambda config, out, args: experiments.run_hessian(config, out),
     _print_hessian),
    ("curvature-scan", "minimal curvature against ground-set size",
     lambda config, out, args: experiments.run_curvature_scan(config, out),
     _print_scan),
    ("rate-study", "Monte Carlo risk against sample size",
     lambda config, out, args: experiments.run_rate_study(config, out, seed_override=args.seed),
     _print_rate_study),
    ("variance-growth", "asymptotic covariance against ground-set size",
     lambda config, out, args: experiments.run_variance_growth(config, out),
     _print_scan),
    ("verify-identities", "check the determinantal identity suite on random inputs",
     lambda config, out, args: experiments.run_verify_identities(
         config, out, seed_override=args.seed),
     _print_verify_identities),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppmle",
        description="Exact determinantal point process toolkit: simulation, "
                    "estimation, and likelihood-geometry experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc, run, summarize in COMMANDS:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("simulate", "estimate", "rate-study", "verify-identities"):
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "estimate":
            p.add_argument("--samples", required=True, help="samples JSON or table CSV")
        p.set_defaults(run=run, summarize=summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        report = args.run(_load_config(args.config), out, args)
        return args.summarize(report, out) or EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GroundSetTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NormalizationMismatch, SingularInformation, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
