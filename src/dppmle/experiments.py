"""Experiment harness: curvature decay, convergence-rate studies,
variance growth, and identity verification, with reproducible configs
and machine-readable reports (JSON + CSV)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import rngs
from .errors import (ConfigError, GroundSetTooLarge, InsufficientPoints,
                     NonpositiveValue, SingularInformation)
from .estimation import (MleConfig, asymptotic_covariance, estimate_risk,
                         fit_mle, blockwise_loss, sign_orbit_loss)
from .geometry import (hessian_matrix, identity_residuals, min_curvature,
                       null_space_basis)
from .kernels import (Kernel, block_diagonal_kernel, determinantal_graph,
                      kernel_from_json, kernel_to_json, symmetrize,
                      tridiagonal_kernel)
from .model import (EmpiricalTable, SampleBatch, build_table,
                    empirical_table, sample)

#: Hessian assembly budget for scans (coordinate matrix is m x m, m = N(N+1)/2).
DEFAULT_SCAN_BUDGET = 10


# --- random inputs for verification runs ----------------------------------

def random_kernel(n: int, gen: np.random.Generator) -> Kernel:
    """Well-conditioned random positive definite kernel."""
    a = gen.normal(size=(n, n))
    return Kernel(symmetrize(a @ a.T / n + np.eye(n) * (0.5 + gen.random())))


def random_symmetric(n: int, gen: np.random.Generator) -> np.ndarray:
    return symmetrize(gen.normal(size=(n, n)))


# --- regression fits --------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept, "r2": self.r2}


def _ols(x: np.ndarray, y: np.ndarray) -> SlopeFit:
    a = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sst if sst > 0 else 1.0
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]), r2=r2)


def fit_loglog_slope(points) -> SlopeFit:
    """Ordinary least squares on (log x, log y); needs >= 3 positive points."""
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientPoints(f"log-log fit needs >= 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise NonpositiveValue("log-log fit requires strictly positive coordinates")
    return _ols(np.log(x), np.log(y))


def fit_semilog_slope(points) -> SlopeFit:
    """Ordinary least squares on (x, log y); needs >= 3 positive-y points."""
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientPoints(f"semilog fit needs >= 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(y <= 0):
        raise NonpositiveValue("semilog fit requires strictly positive values")
    return _ols(x, np.log(y))


# --- config fields ----------------------------------------------------------

def _typed(value, kind, field: str):
    """`kind(value)` for kind int or float; ConfigError naming the field
    when the value does not convert or the float is not finite."""
    noun = "an integer" if kind is int else "a finite number"
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: expected {noun}, got {value!r}") from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{field}: expected {noun}, got {value!r}")
    return out


def _int_list(value, field: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{field}: required nonempty list of integers")
    return [_typed(v, int, f"{field}[{i}]") for i, v in enumerate(value)]


def _seed(config: dict, seed_override: int | None) -> int:
    seed = _typed(config.get("seed", 0) if seed_override is None else seed_override,
                  int, "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return seed


def _mle_config(config: dict, seed_override: int | None = None) -> MleConfig:
    try:
        mle = dict(config.get("mle", {}))
        if seed_override is not None:
            mle["seed"] = _seed(config, seed_override)
        return MleConfig.from_json(mle)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mle: {exc}") from exc


# --- kernel specs -----------------------------------------------------------

def _tridiagonal_ab(tri, field: str):
    if not isinstance(tri, dict):
        raise ConfigError(f"{field}: required object with fields a, b")
    return _typed(tri.get("a"), float, f"{field}.a"), _typed(tri.get("b"), float, f"{field}.b")


def parse_kernel_spec(spec, field: str = "kernel") -> Kernel:
    """Kernel from a config fragment: a literal matrix {"n", "entries"},
    a {"tridiagonal": {"a", "b", "n"}} family member, or
    {"blocks": [spec, ...]} assembled block-diagonally."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{field}: expected an object, got {type(spec).__name__}")
    if "entries" in spec:
        try:
            return kernel_from_json(spec)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    if "tridiagonal" in spec:
        a, b = _tridiagonal_ab(spec["tridiagonal"], f"{field}.tridiagonal")
        n = _typed(spec["tridiagonal"].get("n"), int, f"{field}.tridiagonal.n")
        try:
            return tridiagonal_kernel(n, a, b)
        except ValueError as exc:
            raise ConfigError(f"{field}.tridiagonal: {exc}") from exc
    if "blocks" in spec:
        if not isinstance(spec["blocks"], (list, tuple)) or not spec["blocks"]:
            raise ConfigError(f"{field}.blocks: required nonempty list of kernel specs")
        return block_diagonal_kernel([parse_kernel_spec(s, field=f"{field}.blocks[{i}]").matrix
                                      for i, s in enumerate(spec["blocks"])])
    raise ConfigError(
        f"{field}: expected one of 'entries', 'tridiagonal', 'blocks'")


def _write_report(out: Path | None, name: str, report: dict,
                  renders: dict | None = None) -> dict:
    """Stamp `created_at` on a report and, when `out` is given, write each
    extra file and then `<name>.json` (sorted keys, indent 2, trailing
    newline) there.  Every command writes its files through here.

    `renders` maps a file name to a zero-argument function returning its
    text.  Each text is built only when its file is written, so a command
    with several large files (simulate at n = 18) holds one at a time.
    """
    report["created_at"] = datetime.now(timezone.utc).isoformat()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        renders = {**(renders or {}),
                   f"{name}.json": lambda: json.dumps(report, indent=2, sort_keys=True) + "\n"}
        for filename, render in renders.items():
            (out / filename).write_text(render())
    return report


# --- commands ----------------------------------------------------------------

def run_simulate(config: dict, out: Path, seed_override: int | None = None) -> dict:
    kernel = parse_kernel_spec(config.get("kernel", {}))
    count = _typed(config.get("count"), int, "count")
    if count < 1:
        raise ConfigError("count: must be >= 1")
    seed = _seed(config, seed_override)
    table = build_table(kernel)
    batch = sample(table, count, seed)
    return _write_report(out, "simulate", {
        "command": "simulate",
        "config": {"kernel": kernel_to_json(kernel), "count": count, "seed": seed},
        "normalizer": table.normalizer,
        "normalization_residual": table.normalization_residual,
        "files": ["samples.json", "table.csv"],
    }, {"samples.json": batch.to_json, "table.csv": table.to_csv})


def load_frequencies(path: Path) -> EmpiricalTable:
    """Observed frequencies from a samples JSON file or a table CSV
    (exact probabilities used as population frequencies)."""
    try:
        text = path.read_text()
        if path.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(text)))
            body = rows[1:] if rows and rows[0] and rows[0][0] == "mask" else rows
            masks = np.array([int(m) for m, _ in body], dtype=np.int64)
            values = np.array([float(p) for _, p in body])
            n, order = len(body).bit_length() - 1, np.argsort(masks)
            if (n < 1 or not np.array_equal(masks[order], np.arange(2 ** n))
                    or not np.all((values >= 0) & (values < np.inf))):
                raise ValueError("a table lists each mask of [0, 2^n), n >= 1, once, "
                                 "with a finite nonnegative probability")
            return EmpiricalTable.from_probabilities(n, values[order])
        return empirical_table(SampleBatch.from_json(text))
    except ConfigError:
        raise
    except FileNotFoundError as exc:
        raise ConfigError(f"samples file not found: {path}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: malformed samples file ({exc})") from exc


def run_estimate(config: dict, samples_path: Path, out: Path,
                 seed_override: int | None = None) -> dict:
    freqs = load_frequencies(samples_path)
    mle_cfg = _mle_config(config, seed_override)
    result = fit_mle(freqs, mle_cfg)
    report = {
        "command": "estimate",
        "config": {"mle": mle_cfg.to_dict(), "samples": str(samples_path)},
        "result": json.loads(result.to_json()),
    }
    if "truth" in config:
        truth = parse_kernel_spec(config["truth"], field="truth")
        if truth.n != freqs.n:
            raise ConfigError(f"truth: ground-set size {truth.n} != samples size {freqs.n}")
        loss = sign_orbit_loss(result.estimate, truth)
        bw = blockwise_loss(result.estimate, truth, determinantal_graph(truth))
        report["loss"] = loss.value
        report["loss_within"] = bw.within
        report["loss_cross"] = bw.cross
    return _write_report(out, "estimate", report)


def run_hessian(config: dict, out: Path) -> dict:
    kernel = parse_kernel_spec(config.get("kernel", {}))
    form = hessian_matrix(build_table(kernel))
    graph = determinantal_graph(kernel)
    nsb = null_space_basis(graph, kernel)
    return _write_report(out, "hessian", {
        "command": "hessian",
        "config": {"kernel": kernel_to_json(kernel)},
        "eigenvalues": [float(v) for v in form.eigenvalues],
        "null_space_dimension": nsb.dimension,
        "null_space_pairs": [[int(i), int(j)] for i, j in nsb.pairs],
        "irreducible": graph.irreducible,
    }, {"hessian_eigenvalues.csv": form.eigenvalues_csv,
        "hessian_matrix.csv": form.matrix_csv})


@dataclass
class ScanReport:
    """One row (n, value, flag) per ground-set size of a tridiagonal
    family, with an exponential-decay or -growth fit over the rows the
    command keeps.  `columns` names the three row fields."""

    command: str
    columns: tuple
    rows: list            # (n, value or None, flag)
    fit: SlopeFit | None
    config: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
            "fit": self.fit.to_dict() if self.fit else None,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.columns)
        for n, v, flag in self.rows:
            w.writerow([n, "" if v is None else repr(float(v)), int(flag)])
        return buf.getvalue()


def _family_scan(config: dict, command: str, columns: tuple, measure, keep) -> ScanReport:
    """`measure(kernel) -> (value, flag)` over the family
    {"tridiagonal": {"a", "b"}, "n_values", "max_n"}, and a semilog fit
    over the rows with `keep(value, flag)` once there are three."""
    a, b = _tridiagonal_ab(config.get("tridiagonal"), "tridiagonal")
    n_values = _int_list(config.get("n_values"), "n_values")
    if list(config["n_values"]) != sorted(set(n_values)) or n_values[0] < 1:
        raise ConfigError("n_values: required strictly increasing positive integers")
    budget = _typed(config.get("max_n", DEFAULT_SCAN_BUDGET), int, "max_n")
    if n_values[-1] > budget:
        raise GroundSetTooLarge(
            f"{command} budget is n <= {budget}, requested {n_values[-1]}")
    rows = []
    for n in n_values:
        try:
            kernel = tridiagonal_kernel(n, a, b)
        except ValueError as exc:
            raise ConfigError(f"tridiagonal: {exc}") from exc
        rows.append((n, *measure(kernel)))
    kept = [(n, v) for n, v, flag in rows if keep(v, flag)]
    fit = fit_semilog_slope(kept) if len(kept) >= 3 else None
    resolved = {"tridiagonal": {"a": a, "b": b}, "n_values": n_values, "max_n": budget}
    return ScanReport(command=command, columns=columns, rows=rows, fit=fit, config=resolved)


def _curvature(kernel: Kernel):
    return min_curvature(kernel), not determinantal_graph(kernel).irreducible


def _top_covariance_eigenvalue(kernel: Kernel):
    try:
        return float(np.linalg.eigvalsh(asymptotic_covariance(kernel))[-1]), False
    except SingularInformation:
        return None, True


def run_curvature_scan(config: dict, out: Path | None = None) -> ScanReport:
    """Minimal Hessian curvature per n; the fit skips reducible kernels
    and curvatures at or below 1e-12."""
    report = _family_scan(config, "curvature-scan", ("n", "min_curvature", "reducible"),
                          _curvature, lambda c, reducible: not reducible and c > 1e-12)
    _write_report(out, "curvature", report.to_dict(), {"curvature.csv": report.to_csv})
    return report


def run_variance_growth(config: dict, out: Path | None = None) -> ScanReport:
    """Top eigenvalue of the asymptotic covariance per n; kernels with a
    singular information form are flagged and left out of the fit."""
    report = _family_scan(config, "variance-growth", ("n", "max_eigenvalue", "singular"),
                          _top_covariance_eigenvalue, lambda v, singular: not singular)
    _write_report(out, "variance_growth", report.to_dict(),
                  {"variance_growth.csv": report.to_csv})
    return report


@dataclass
class RateReport:
    """Monte Carlo risk against sample size with log-log slope fits.

    The cross-block slope is fitted on median replicate losses (heavy
    tails from optimizer restarts); mean-based fits are also recorded.
    """

    rows: list            # per-size dicts
    slopes: dict          # name -> SlopeFit or None
    config: dict

    def to_dict(self) -> dict:
        return {
            "command": "rate-study",
            "config": self.config,
            "rows": self.rows,
            "slopes": {k: (v.to_dict() if v else None) for k, v in self.slopes.items()},
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["sample_size", "mean_loss", "std_error", "median_loss",
                    "mean_within", "mean_cross", "median_cross"])
        for r in self.rows:
            w.writerow([r["sample_size"], repr(r["mean_loss"]), repr(r["std_error"]),
                        repr(r["median_loss"]), repr(r["mean_within"]),
                        repr(r["mean_cross"]), repr(r["median_cross"])])
        return buf.getvalue()


def _safe_loglog(points) -> SlopeFit | None:
    try:
        return fit_loglog_slope(points)
    except (InsufficientPoints, NonpositiveValue):
        return None


def run_rate_study(config: dict, out: Path | None = None,
                   seed_override: int | None = None) -> RateReport:
    kernel = parse_kernel_spec(config.get("kernel", {}))
    sizes = _int_list(config.get("sample_sizes"), "sample_sizes")
    if sizes != sorted(set(sizes)) or sizes[0] < 1:
        raise ConfigError("sample_sizes: required strictly increasing positive integers")
    replicates = _typed(config.get("replicates", 50), int, "replicates")
    if replicates < 2:
        raise ConfigError("replicates: must be >= 2")
    seed = _seed(config, seed_override)
    mle_cfg = _mle_config(config)
    oracle = bool(config.get("oracle", False))
    estimator = (lambda freqs: kernel) if oracle else None

    resolved = {
        "kernel": kernel_to_json(kernel),
        "sample_sizes": sizes,
        "replicates": replicates,
        "seed": seed,
        "mle": mle_cfg.to_dict(),
        "oracle": oracle,
    }
    table = build_table(kernel)
    risks = []
    for size in sizes:
        try:
            risks.append(estimate_risk(kernel, size, replicates, mle_cfg, seed,
                                       estimator=estimator, table=table))
        except Exception as exc:
            # flush whatever completed, marked, before propagating
            _write_report(out, "rate_study", {
                "command": "rate-study",
                "config": resolved,
                "rows": [r.to_dict() for r in risks],
                "failed_at_sample_size": size,
                "failure": str(exc),
            })
            raise
    rows = [r.to_dict() for r in risks]
    slopes = {
        "total": _safe_loglog([(r["sample_size"], r["mean_loss"]) for r in rows]),
        "within": _safe_loglog([(r["sample_size"], r["mean_within"]) for r in rows]),
        "cross": _safe_loglog([(r["sample_size"], r["median_cross"]) for r in rows]),
        "cross_mean": _safe_loglog([(r["sample_size"], r["mean_cross"]) for r in rows]),
    }
    report = RateReport(rows=rows, slopes=slopes, config=resolved)
    _write_report(out, "rate_study", report.to_dict(), {
        "rate_study.csv": report.to_csv,
        **{f"replicates_{r.sample_size}.csv": r.to_csv for r in risks}})
    return report


def run_verify_identities(config: dict, out: Path | None = None,
                          seed_override: int | None = None) -> dict:
    trials = _typed(config.get("trials", 100), int, "trials")
    n_values = _int_list(config.get("n_values", list(range(2, 9))), "n_values")
    if min(n_values) < 1:
        raise ConfigError("n_values: required positive integers")
    seed = _seed(config, seed_override)
    tol = _typed(config.get("tolerance", 1e-9), float, "tolerance")
    records = []
    worst = 0.0
    for t in range(trials):
        gen = rngs.stream(seed, t)
        n = n_values[t % len(n_values)]
        kernel = random_kernel(n, gen)
        h = random_symmetric(n, gen)
        res = identity_residuals(kernel, h)
        rel = max(res.max_relative(), res.matrix_form_residual)
        worst = max(worst, rel)
        records.append({"trial": t, "n": n, **json.loads(res.to_json()),
                        "max_relative": res.max_relative()})
    return _write_report(out, "identities", {
        "command": "verify-identities",
        "config": {"trials": trials, "n_values": n_values, "seed": seed, "tolerance": tol},
        "worst_relative_residual": worst,
        "passed": bool(worst <= tol),
        "records": records,
    })
