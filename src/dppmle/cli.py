"""Command-line entry point.

Subcommands: simulate, estimate, hessian, curvature-scan, rate-study,
variance-growth, verify-identities.  Exit codes: 0 success, 2 config
error, 3 budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import (ConfigError, GroundSetTooLarge, LikelihoodDecrease,
                     NormalizationMismatch, SingularInformation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _threads(args) -> int:
    env = os.environ.get("DPP_MLE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"DPP_MLE_THREADS: not an integer: {env!r}") from exc
    return max(1, args.threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppmle",
        description="Exact determinantal point process toolkit: simulation, "
                    "estimation, and likelihood-geometry experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (env DPP_MLE_THREADS overrides)")

    for name, desc in [
        ("simulate", "draw samples from an exact table"),
        ("estimate", "fit a kernel to observed samples"),
        ("hessian", "dump the Hessian coordinate matrix and null space"),
        ("curvature-scan", "minimal curvature against ground-set size"),
        ("rate-study", "Monte Carlo risk against sample size"),
        ("variance-growth", "asymptotic covariance against ground-set size"),
        ("verify-identities", "check the determinantal identity suite on random inputs"),
    ]:
        p = sub.add_parser(name, help=desc)
        common(p)
        if name == "estimate":
            p.add_argument("--samples", required=True, help="samples JSON or table CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        config = _load_config(args.config)
        threads = _threads(args)
        if args.command == "simulate":
            report = experiments.run_simulate(config, out, seed_override=args.seed)
            print(f"simulate: wrote {', '.join(report['files'])} to {out}")
        elif args.command == "estimate":
            report = experiments.run_estimate(config, Path(args.samples), out,
                                              seed_override=args.seed)
            loss = report.get("loss")
            tail = f" loss={loss:.6g}" if loss is not None else ""
            print(f"estimate: loglik={report['result']['log_likelihood']:.6f}"
                  f" converged={report['result']['converged']}{tail}")
        elif args.command == "hessian":
            report = experiments.run_hessian(config, out)
            print(f"hessian: null space dimension {report['null_space_dimension']}"
                  f" (irreducible={report['irreducible']})")
        elif args.command == "curvature-scan":
            report = experiments.run_curvature_scan(config, out)
            for n, c, red in report.rows:
                print(f"n={n} min_curvature={c:.6e}{' (reducible)' if red else ''}")
            if report.fit:
                print(f"fit: slope={report.fit.slope:.4f} r2={report.fit.r2:.4f}")
        elif args.command == "rate-study":
            report = experiments.run_rate_study(config, out, seed_override=args.seed,
                                                threads=threads)
            for row in report.rows:
                print(f"size={row['sample_size']} mean_loss={row['mean_loss']:.6g} "
                      f"within={row['mean_within']:.6g} cross_median={row['median_cross']:.6g}")
            for name, fit in report.slopes.items():
                if fit:
                    print(f"slope[{name}]={fit.slope:.4f} (r2={fit.r2:.4f})")
        elif args.command == "variance-growth":
            report = experiments.run_variance_growth(config, out)
            for n, v, s in report.rows:
                print(f"n={n} max_eigenvalue={'singular' if s else format(v, '.6e')}")
            if report.fit:
                print(f"fit: slope={report.fit.slope:.4f} r2={report.fit.r2:.4f}")
        elif args.command == "verify-identities":
            report = experiments.run_verify_identities(config, out, seed_override=args.seed)
            print(f"verify-identities: worst relative residual "
                  f"{report['worst_relative_residual']:.3e} "
                  f"({'pass' if report['passed'] else 'FAIL'})")
            if not report["passed"]:
                return EXIT_NUMERICAL
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GroundSetTooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NormalizationMismatch, SingularInformation, LikelihoodDecrease,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
