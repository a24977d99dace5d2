"""Experiment harness: curvature decay, convergence-rate studies,
variance growth, and identity verification, with reproducible configs
and machine-readable reports (JSON + CSV).  Every `run_*` command
returns the report dict it writes as `<name>.json`."""

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
from .minors import MAX_DRAWS, check_enum_budget
from .errors import (ConfigError, GroundSetTooLarge, InsufficientPoints,
                     NonpositiveValue, SingularInformation)
from .estimation import (MleConfig, asymptotic_covariance, estimate_risk,
                         blockwise_loss, fit_mle)
from .geometry import (hessian_matrix, identity_residuals, min_curvature,
                       null_space_basis)
from .kernels import (Kernel, block_diagonal_kernel, determinantal_graph,
                      kernel_from_json, kernel_to_json, symmetrize,
                      tridiagonal_kernel)
from .model import (EmpiricalTable, SampleBatch, build_table, csv_text,
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


def _fit_slope(points, log_x: bool) -> SlopeFit:
    """Ordinary least squares of log y on x, or on log x with `log_x`;
    needs >= 3 points, positive wherever a log is taken."""
    kind = "log-log" if log_x else "semilog"
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientPoints(f"{kind} fit needs >= 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if (log_x and np.any(x <= 0)) or np.any(y <= 0):
        raise NonpositiveValue(f"{kind} fit requires strictly positive "
                               + ("coordinates" if log_x else "values"))
    a = np.stack([np.log(x) if log_x else x, np.ones_like(x)], axis=1)
    y = np.log(y)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sst if sst > 0 else 1.0
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]), r2=r2)


def fit_loglog_slope(points) -> SlopeFit:
    """Ordinary least squares on (log x, log y); needs >= 3 positive points."""
    return _fit_slope(points, log_x=True)


def fit_semilog_slope(points) -> SlopeFit:
    """Ordinary least squares on (x, log y); needs >= 3 positive-y points."""
    return _fit_slope(points, log_x=False)


# --- config fields ----------------------------------------------------------

def _typed(value, kind, field: str):
    """`kind(value)` for kind int or float; ConfigError naming the field
    unless the value is a number (not a boolean or a string) that is
    finite and, for int, integral: 1e6 reads as 1000000, 10.5 is refused."""
    noun = "an integer" if kind is int else "a finite number"
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"not a number: {value!r}")
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: expected {noun}, got {value!r}") from exc
    if kind is int and out != value or kind is float and not math.isfinite(out):
        raise ConfigError(f"{field}: expected {noun}, got {value!r}")
    return out


def _int_list(value, field: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{field}: required nonempty list of integers")
    return [_typed(v, int, f"{field}[{i}]") for i, v in enumerate(value)]


def _increasing(value, field: str) -> list:
    values = _int_list(value, field)
    if values != sorted(set(values)) or values[0] < 1:
        raise ConfigError(f"{field}: required strictly increasing positive integers")
    return values


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
    {"blocks": [spec, ...]} assembled block-diagonally.  Each ground-set
    size, a running sum over blocks, is checked against the enumeration
    cap before anything of that size is built."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{field}: expected an object, got {type(spec).__name__}")
    if "entries" in spec:
        check_enum_budget(_typed(spec.get("n"), int, f"{field}.n"))
        try:
            return kernel_from_json(spec)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    if "tridiagonal" in spec:
        a, b = _tridiagonal_ab(spec["tridiagonal"], f"{field}.tridiagonal")
        n = _typed(spec["tridiagonal"].get("n"), int, f"{field}.tridiagonal.n")
        check_enum_budget(n)
        try:
            return tridiagonal_kernel(n, a, b)
        except ValueError as exc:
            raise ConfigError(f"{field}.tridiagonal: {exc}") from exc
    if "blocks" in spec:
        if not isinstance(spec["blocks"], (list, tuple)) or not spec["blocks"]:
            raise ConfigError(f"{field}.blocks: required nonempty list of kernel specs")
        blocks = []
        for i, s in enumerate(spec["blocks"]):
            blocks.append(parse_kernel_spec(s, field=f"{field}.blocks[{i}]").matrix)
            check_enum_budget(sum(len(m) for m in blocks))
        return block_diagonal_kernel(blocks)
    raise ConfigError(
        f"{field}: expected one of 'entries', 'tridiagonal', 'blocks'")


def _text(render):
    """A `_write_report` render from a function that returns the whole text."""
    return lambda file: file.write(render())


def _write_report(out: Path | None, name: str, report: dict,
                  renders: dict | None = None) -> dict:
    """Stamp `created_at` on a report and, when `out` is given, write each
    extra file and then `<name>.json` (sorted keys, indent 2, trailing
    newline) there.  Every command writes its files through here.

    `renders` maps a file name to a function that writes its text to the
    open text file it is given.  Each runs only when its file is written,
    and the large ones (simulate's samples.json and table.csv) write in
    blocks, so no file's whole text is ever held at once.
    """
    report["created_at"] = datetime.now(timezone.utc).isoformat()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for filename, render in (renders or {}).items():
            with open(out / filename, "w") as file:
                render(file)
        (out / f"{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# --- commands ----------------------------------------------------------------

def run_simulate(config: dict, out: Path, seed_override: int | None = None) -> dict:
    kernel = parse_kernel_spec(config.get("kernel", {}))
    count = _typed(config.get("count"), int, "count")
    if not 1 <= count <= MAX_DRAWS:
        raise ConfigError(f"count: must be in 1..{MAX_DRAWS}, got {config.get('count')!r}")
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
            if n < 1 or not np.array_equal(masks[order], np.arange(2 ** n)):
                raise ValueError("a table lists each mask of [0, 2^n), n >= 1, once")
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
        "result": result.to_dict(),
    }
    if "truth" in config:
        truth = parse_kernel_spec(config["truth"], field="truth")
        if truth.n != freqs.n:
            raise ConfigError(f"truth: ground-set size {truth.n} != samples size {freqs.n}")
        loss = blockwise_loss(result.estimate, truth, determinantal_graph(truth))
        report["loss"] = loss.total
        report["loss_within"] = loss.within
        report["loss_cross"] = loss.cross
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
    }, {"hessian_eigenvalues.csv": _text(form.eigenvalues_csv),
        "hessian_matrix.csv": _text(form.matrix_csv)})


def _family_scan(config: dict, command: str, columns: tuple, measure, keep) -> dict:
    """`measure(kernel) -> (value, flag)` over the family
    {"tridiagonal": {"a", "b"}, "n_values", "max_n"}: the report with one
    row {columns[0]: n, columns[1]: value or None, columns[2]: flag} per
    n, and a semilog fit over the rows with `keep(value, flag)` once
    there are three."""
    a, b = _tridiagonal_ab(config.get("tridiagonal"), "tridiagonal")
    n_values = _increasing(config.get("n_values"), "n_values")
    budget = _typed(config.get("max_n", DEFAULT_SCAN_BUDGET), int, "max_n")
    if n_values[-1] > budget:
        raise GroundSetTooLarge(
            f"{command} budget is n <= {budget}, requested {n_values[-1]}")
    check_enum_budget(n_values[-1])
    rows = []
    for n in n_values:
        try:
            kernel = tridiagonal_kernel(n, a, b)
        except ValueError as exc:
            raise ConfigError(f"tridiagonal: {exc}") from exc
        rows.append((n, *measure(kernel)))
    kept = [(n, v) for n, v, flag in rows if keep(v, flag)]
    fit = fit_semilog_slope(kept) if len(kept) >= 3 else None
    return {
        "command": command,
        "config": {"tridiagonal": {"a": a, "b": b}, "n_values": n_values, "max_n": budget},
        "rows": [dict(zip(columns, row)) for row in rows],
        "fit": fit.to_dict() if fit else None,
    }


def _scan_csv(report: dict) -> str:
    return csv_text(report["rows"][0].keys(), (
        [n, "" if v is None else repr(float(v)), int(flag)]
        for n, v, flag in (row.values() for row in report["rows"])))


def _curvature(kernel: Kernel):
    return min_curvature(kernel), not determinantal_graph(kernel).irreducible


def _top_covariance_eigenvalue(kernel: Kernel):
    try:
        return float(np.linalg.eigvalsh(asymptotic_covariance(kernel))[-1]), False
    except SingularInformation:
        return None, True


def run_curvature_scan(config: dict, out: Path | None = None) -> dict:
    """Minimal Hessian curvature per n; the fit skips reducible kernels
    and curvatures at or below 1e-12."""
    report = _family_scan(config, "curvature-scan", ("n", "min_curvature", "reducible"),
                          _curvature, lambda c, reducible: not reducible and c > 1e-12)
    return _write_report(out, "curvature", report,
                         {"curvature.csv": _text(lambda: _scan_csv(report))})


def run_variance_growth(config: dict, out: Path | None = None) -> dict:
    """Top eigenvalue of the asymptotic covariance per n; kernels with a
    singular information form are flagged and left out of the fit."""
    report = _family_scan(config, "variance-growth", ("n", "max_eigenvalue", "singular"),
                          _top_covariance_eigenvalue, lambda v, singular: not singular)
    return _write_report(out, "variance_growth", report,
                         {"variance_growth.csv": _text(lambda: _scan_csv(report))})


def _loglog_or_none(points) -> dict | None:
    try:
        return fit_loglog_slope(points).to_dict()
    except (InsufficientPoints, NonpositiveValue):
        return None


def run_rate_study(config: dict, out: Path | None = None,
                   seed_override: int | None = None) -> dict:
    """Monte Carlo risk against sample size with log-log slope fits.
    The cross-block slope is fitted on median replicate losses (heavy
    tails from optimizer restarts); mean-based fits are also recorded.
    If the table or a fit fails, the report has no rows and names the
    failure, and the error is raised once it is written."""
    kernel = parse_kernel_spec(config.get("kernel", {}))
    sizes = _increasing(config.get("sample_sizes"), "sample_sizes")
    for i, size in enumerate(sizes):
        if size > MAX_DRAWS:
            raise ConfigError(f"sample_sizes[{i}]: must be at most {MAX_DRAWS}, got {size}")
    replicates = _typed(config.get("replicates", 50), int, "replicates")
    if replicates < 2:
        raise ConfigError("replicates: must be >= 2")
    seed = _seed(config, seed_override)
    mle_cfg = _mle_config(config)
    oracle = config.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError(f"oracle: expected true or false, got {oracle!r}")
    estimator = (lambda freqs: kernel) if oracle else None

    report = {
        "command": "rate-study",
        "config": {
            "kernel": kernel_to_json(kernel),
            "sample_sizes": sizes,
            "replicates": replicates,
            "seed": seed,
            "mle": mle_cfg.to_dict(),
            "oracle": oracle,
        },
        "rows": [],
    }
    try:
        risks = estimate_risk(kernel, sizes, replicates, mle_cfg, seed, estimator=estimator)
    except Exception as exc:
        # one batch fits every size, so no size has a row: flush, then raise
        _write_report(out, "rate_study", {**report, "failed_at_sample_size": sizes[0],
                                          "failure": str(exc)})
        raise
    rows = report["rows"] = [r.to_dict() for r in risks]
    report["slopes"] = {
        name: _loglog_or_none([(r["sample_size"], r[column]) for r in rows])
        for name, column in (("total", "mean_loss"), ("within", "mean_within"),
                             ("cross", "median_cross"), ("cross_mean", "mean_cross"))}
    columns = ("sample_size", "mean_loss", "std_error", "median_loss",
               "mean_within", "mean_cross", "median_cross")
    return _write_report(out, "rate_study", report, {
        "rate_study.csv": _text(lambda: csv_text(columns, (
            [r["sample_size"], *(repr(r[c]) for c in columns[1:])] for r in rows))),
        **{f"replicates_{r.sample_size}.csv": _text(r.to_csv) for r in risks}})


def run_verify_identities(config: dict, out: Path | None = None,
                          seed_override: int | None = None) -> dict:
    trials = _typed(config.get("trials", 100), int, "trials")
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")
    n_values = _int_list(config.get("n_values", list(range(2, 9))), "n_values")
    if min(n_values) < 1:
        raise ConfigError("n_values: required positive integers")
    check_enum_budget(max(n_values))
    seed = _seed(config, seed_override)
    tol = _typed(config.get("tolerance", 1e-9), float, "tolerance")
    if tol <= 0:
        raise ConfigError(f"tolerance: must be > 0, got {tol!r}")
    sizes = [n_values[t % len(n_values)] for t in range(trials)]
    gens = [rngs.stream(seed, t) for t in range(trials)]
    inputs = [(random_kernel(n, gen), random_symmetric(n, gen)) for n, gen in zip(sizes, gens)]
    results = {}                # one batch per ground-set size
    for n in dict.fromkeys(sizes):
        batch = [t for t in range(trials) if sizes[t] == n]
        results.update(zip(batch, identity_residuals([inputs[t][0] for t in batch],
                                                     np.array([inputs[t][1] for t in batch]))))
    records = []
    worst = 0.0
    for t in range(trials):
        res = results[t]
        rel = max(res.max_relative(), res.matrix_form_residual)
        worst = max(worst, rel)
        records.append({"trial": t, "n": sizes[t], **res.to_dict(),
                        "max_relative": res.max_relative()})
    return _write_report(out, "identities", {
        "command": "verify-identities",
        "config": {"trials": trials, "n_values": n_values, "seed": seed, "tolerance": tol},
        "worst_relative_residual": worst,
        "passed": bool(worst <= tol),
        "records": records,
    })
