"""The two benchmark workloads, each made of two parts.

`enumerate` runs the enum-scale and geometry-suite parts, `fit` the
rate-study and estimate-mid parts.  Each part makes the inputs of every
pass from the workload seed,
runs a fixed list of operations per pass (CLI commands through
`dppmle.cli.main`, or public calls), and checks the outputs of every
pass after the timed section.  Checks do not depend on the random
stream, so a change to the streams keeps them valid.  A check returns a
list of failure messages; empty means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dppmle import cli, estimation, experiments, kernels, model

RATE_SIZES = [1_000, 10_000, 100_000]
RATE_KERNELS = {
    # README rate.json kernel: blocks {0,1} and {2} (acceptance criterion 07)
    "block": {"blocks": [{"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
                         {"n": 1, "entries": [3.0]}]},
    # acceptance criterion 06 kernel
    "tridiagonal": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 3}},
}
#: Replicates per sample size and kernel in one rate-study pass (the CLI minimum).
RATE_REPLICATES = 2
#: Half-width of the rate-study band, in standard errors of the mean.
RATE_BAND_SE = 5.0

ENUM_N = 18
ENUM_DRAWS = 1_000_000
ENUM_CHECKED_MASKS = 64

VERIFY_TRIALS = 600
VERIFY_N = list(range(2, 13))
SCAN_FAMILY = {"a": 2.0, "b": 0.9}
SCAN_N = list(range(3, 14))
HESSIAN_N = 10
GROWTH_N = list(range(3, 11))

ESTIMATE_TRUTH = {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 10}}
ESTIMATE_DRAWS = 100_000
#: README est.json fitter settings; the pass seed goes into the batch.
ESTIMATE_MLE = {"restarts": 6, "seed": 1}

IDENTITY_TOL = 1e-9
#: Input sets per workload seed; pass seeds of different workload seeds never meet.
PASSES_PER_SEED = 1000
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Op:
    """One timed operation.  `run(out)` writes into its own directory
    `out`; a CLI operation returns its exit code."""

    label: str
    run: Callable[[Path], object]
    is_cli: bool = True


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _cli(command: str, config: Path, *extra: str) -> Callable[[Path], int]:
    return lambda out: cli.main([command, "--config", str(config), *extra, "--out", str(out)])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def guard(fn, *args) -> list[str]:
    """Run a check; an exception while reading outputs is a failure."""
    try:
        return fn(*args)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# --- checks, one function per output ------------------------------------------

def check_simulate(out: Path, truth: kernels.Kernel, seed: int, sampler: bool) -> list[str]:
    """The report, 64 seeded rows of the table, and with `sampler` the
    4-sigma singleton inclusion check of the draws (made once per run, to
    keep the chance of a false alarm per run near 1e-3)."""
    fails = []
    report = _read_json(out / "simulate.json")
    if not report["normalization_residual"] <= 1e-9:
        fails.append(f"normalization residual {report['normalization_residual']!r} > 1e-9")
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["mask", "probability"] or len(rows) != 2 ** truth.n + 1:
        fails.append(f"table.csv has {len(rows)} rows, expected {2 ** truth.n + 1}")
        return fails
    masks = np.random.default_rng([seed, 1]).integers(0, 2 ** truth.n, ENUM_CHECKED_MASKS)
    for m in masks:
        row = rows[int(m) + 1]
        exact = model.subset_probability(truth, int(m))
        if int(row[0]) != int(m) or not _rel(float(row[1]), exact) <= 1e-10:
            fails.append(f"table.csv mask {m}: {row} against exact {exact!r}")
    if not sampler:
        return fails
    draws = np.asarray(_read_json(out / "samples.json")["draws"], dtype=np.int64)
    if draws.size != ENUM_DRAWS:
        fails.append(f"samples.json has {draws.size} draws, expected {ENUM_DRAWS}")
    for i in range(truth.n):
        p = model.inclusion_probability(truth, 1 << i)
        freq = float(((draws >> i) & 1).mean())
        sigma = math.sqrt(p * (1 - p) / max(draws.size, 1))
        if not abs(freq - p) <= 4 * sigma:
            fails.append(f"singleton {i}: frequency {freq:.6f} vs {p:.6f} beyond 4 sigma")
    return fails


def check_frequencies(freqs, samples: Path) -> list[str]:
    draws = np.asarray(_read_json(samples)["draws"], dtype=np.int64)
    expected = np.bincount(draws, minlength=2 ** ENUM_N) / draws.size
    if freqs.n != ENUM_N or freqs.total != draws.size or not np.array_equal(freqs.freqs, expected):
        return ["load_frequencies does not reproduce the draw counts"]
    return []


def check_moment_kernel(kernel, spectral_box=(1e-4, 1.0 - 1e-4)) -> list[str]:
    if kernel.n != ENUM_N or not np.isfinite(kernel.matrix).all():
        return [f"moment kernel has n={kernel.n} or non-finite entries"]
    w = np.linalg.eigvalsh(kernels.l_to_k(kernel).matrix)
    lo, hi = spectral_box
    if not (w[0] >= lo - 1e-9 and w[-1] <= hi + 1e-9):
        return [f"moment kernel spectrum [{w[0]:.3e}, {w[-1]:.6f}] outside the box"]
    return []


def check_loss(loss, l_hat: kernels.Kernel, truth: kernels.Kernel) -> list[str]:
    s = np.asarray(loss.argmin_signs, dtype=float)
    if s.shape != (truth.n,) or s[0] != 1.0 or not np.all(np.abs(s) == 1.0):
        return [f"argmin signs malformed: {s}"]
    direct = float(np.linalg.norm(l_hat.matrix - kernels.conjugate_by_signs(truth.matrix, s)))
    if not (math.isfinite(loss.value) and _rel(loss.value, direct) <= 1e-12):
        return [f"loss {loss.value!r} is not the distance {direct!r} at its signs"]
    return []


def check_conjugate_loss(truth: kernels.Kernel, seed: int) -> list[str]:
    """The orbit loss of a sign-conjugated truth against the truth is 0."""
    signs = np.where(np.random.default_rng([seed, 2]).random(truth.n) < 0.5, -1.0, 1.0)
    conj = kernels.Kernel(kernels.conjugate_by_signs(truth.matrix, signs))
    value = estimation.sign_orbit_loss(conj, truth).value
    return [] if value == 0.0 else [f"loss of a sign-conjugated truth is {value!r}, not 0"]


def check_identities(out: Path, trials: int) -> list[str]:
    report = _read_json(out / "identities.json")
    worst = report["worst_relative_residual"]
    if not (report["passed"] and worst <= IDENTITY_TOL and len(report["records"]) == trials):
        return [f"identity suite: passed={report['passed']} worst={worst!r} "
                f"records={len(report['records'])}"]
    return []


def check_curvature(out: Path) -> list[str]:
    rows = _read_json(out / "curvature.json")["rows"]
    values = [r["min_curvature"] for r in rows]
    if ([r["n"] for r in rows] != SCAN_N or any(r["reducible"] for r in rows)
            or not all(v > 0 for v in values)
            or not all(b < a for a, b in zip(values, values[1:]))):
        return [f"curvature rows not positive and strictly decreasing: {values}"]
    return []


def check_hessian(out: Path) -> list[str]:
    eig = np.asarray(_read_json(out / "hessian.json")["eigenvalues"], dtype=float)
    dim = HESSIAN_N * (HESSIAN_N + 1) // 2
    scale = max(1.0, float(np.abs(eig).max())) if eig.size else 1.0
    if eig.size != dim or not np.all(eig <= 1e-9 * scale):
        return [f"Hessian spectrum: {eig.size} values (expected {dim}), max {eig.max()!r}"]
    return []


def check_growth(out: Path) -> list[str]:
    rows = _read_json(out / "variance_growth.json")["rows"]
    values = [r["max_eigenvalue"] for r in rows]
    if ([r["n"] for r in rows] != GROWTH_N or any(r["singular"] for r in rows)
            or not all(b > a > 0 for a, b in zip(values, values[1:]))):
        return [f"variance growth rows not positive and increasing: {values}"]
    return []


def check_rate_pass(out: Path, replicates: int) -> tuple[list[str], dict]:
    """One rate study's report against its replicate CSVs: the sizes and
    replicate counts, finite losses, and each mean loss equal to the mean
    of its replicates.  Also returns the losses per sample size."""
    fails, losses = [], {}
    rows = _read_json(out / "rate_study.json")["rows"]
    if [r["sample_size"] for r in rows] != RATE_SIZES:
        return [f"rate study sizes {[r['sample_size'] for r in rows]}"], losses
    for row in rows:
        size = row["sample_size"]
        with open(out / f"replicates_{size}.csv", newline="") as fh:
            loss = np.array([float(r["loss"]) for r in csv.DictReader(fh)])
        losses[size] = loss
        if (row["replicates"] != replicates or loss.size != replicates
                or not np.all(np.isfinite(loss) & (loss >= 0))
                or not _rel(row["mean_loss"], float(loss.mean())) <= 1e-12):
            fails.append(f"N={size}: mean loss {row['mean_loss']!r} does not match "
                         f"its {loss.size} replicate losses")
    return fails, losses


def check_rate_band(pooled: dict, reference: dict) -> list[str]:
    """The mean loss over every replicate of a run lies within
    RATE_BAND_SE standard errors of the committed reference mean, the
    standard error taken from the reference spread."""
    fails = []
    for (kernel_name, size), loss in sorted(pooled.items()):
        ref = reference[kernel_name][str(size)]
        half = RATE_BAND_SE * ref["sd"] / math.sqrt(loss.size)
        if not abs(loss.mean() - ref["mean"]) <= half:
            fails.append(f"{kernel_name} N={size}: mean loss {loss.mean():.4f} over "
                         f"{loss.size} replicates outside {ref['mean']:.4f} +- {half:.4f}")
    return fails


def check_estimate(out: Path, samples: Path, truth: kernels.Kernel) -> list[str]:
    result = _read_json(out / "estimate.json")["result"]
    freqs = experiments.load_frequencies(samples)
    truth_ll = estimation.empirical_log_likelihood(freqs, truth)
    if not (result["converged"] and result["log_likelihood"] >= truth_ll):
        return [f"fit converged={result['converged']} loglik {result['log_likelihood']!r} "
                f"vs truth {truth_ll!r}"]
    return []


# --- workloads --------------------------------------------------------------------

class Workload:
    """Inputs, operations and checks of one workload.

    Pass inputs come from the pass seed, `seed * PASSES_PER_SEED + p`
    for the p-th input set, so a run samples several independent inputs
    and its median pass is not set by one rare slow input.
    `throughput` names the part's throughput and `items` how many items
    one pass handles; `spans` are the spans a pass must reach.
    """

    name = ""
    throughput = ""
    items = 0
    spans: tuple = ()

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs
        self.state: dict[int, dict] = {}

    def setup(self) -> None:
        """Inputs shared by every pass."""

    def pass_seed(self, p: int) -> int:
        return self.seed * PASSES_PER_SEED + p

    def prepare(self, p: int) -> list[Op]:
        """Write the inputs of the p-th input set; returns its operations."""
        raise NotImplementedError

    def check(self, p: int, op: Op, out: Path, value) -> list[str]:
        raise NotImplementedError

    def release(self, p: int) -> None:
        """Drop what the checks of input set p needed; they have run."""
        self.state.pop(p, None)

    def run_checks(self) -> dict[str, list[str]]:
        """Checks over all passes of a run, by name; each counts as one
        attempted operation.  Called after every pass was checked."""
        return {}

    def fingerprint(self, op: Op, value) -> str:
        """Identity of a public call's result, to compare twin passes."""
        return repr(value)

    def corruptions(self) -> list[tuple[str, Callable]]:
        """(op label, corrupt(out, value) -> value) pairs for the self-test;
        each must make that op's check, or a run check, fail on input set 0."""
        return []


def _edit_json(name: str, change: Callable[[dict], None]) -> Callable:
    def corrupt(out, value):
        report = _read_json(out / name)
        change(report)
        _write_json(out / name, report)
        return value
    corrupt.__name__ = f"{name}:{change.__name__}"
    return corrupt


class RateStudy(Workload):
    """Two rate studies: almost all time is in fit_mle at n=3, where each
    objective call is tiny and the cost is per-call overhead."""

    name = "rate-study"
    throughput = "fits_per_s"
    items = len(RATE_KERNELS) * len(RATE_SIZES) * RATE_REPLICATES
    spans = ("cli.main", "experiments.run_rate_study", "estimation.estimate_risk",
             "estimation.fit_mle", "estimation.moment_init", "estimation.sign_orbit_loss",
             "model.build_table", "model.sample", "model.empirical_table",
             "kernels.Kernel", "kernels.determinantal_graph", "rngs.stream")

    def setup(self):
        self.reference = json.loads(REFERENCE.read_text())["rate_study"]
        self.losses = {}

    def prepare(self, p):
        ops = []
        for name, spec in RATE_KERNELS.items():
            config = _write_json(self.inputs / f"pass{p}" / f"rate_{name}.json", {
                "kernel": spec, "sample_sizes": RATE_SIZES,
                "replicates": RATE_REPLICATES, "seed": self.pass_seed(p)})
            ops.append(Op(f"rate_{name}", _cli("rate-study", config)))
        return ops

    def check(self, p, op, out, value):
        fails, losses = check_rate_pass(out, RATE_REPLICATES)
        self.losses[(p, op.label[len("rate_"):])] = losses
        return fails

    def run_checks(self):
        pooled = {}
        for (p, name), losses in self.losses.items():
            for size, loss in losses.items():
                pooled[(name, size)] = np.concatenate([pooled.get((name, size), []), loss])
        return {"rate-study mean loss band": check_rate_band(pooled, self.reference)}

    def corruptions(self):
        def scale_mean(report):
            report["rows"][-1]["mean_loss"] *= 1.5

        def inflate_losses(out, value):
            """Consistent report and replicates, but every loss 4 times too
            large: only the run's mean loss band can see it."""
            for size in RATE_SIZES:
                path = out / f"replicates_{size}.csv"
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                for r in rows:
                    r["loss"] = repr(4.0 * float(r["loss"]))
                with open(path, "w", newline="") as fh:
                    w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                    w.writeheader()
                    w.writerows(rows)
            report = _read_json(out / "rate_study.json")
            for row in report["rows"]:
                row["mean_loss"] *= 4.0
            _write_json(out / "rate_study.json", report)
            return value

        return [("rate_block", _edit_json("rate_study.json", scale_mean)),
                ("rate_block", inflate_losses)]


def _samples(out: Path) -> Path:
    """samples.json written by the simulate operation of the same pass."""
    return out.parent / "simulate" / "samples.json"


class EnumScale(Workload):
    """simulate at n=18 with 1e6 draws, then three public calls on its
    output: enumeration throughput and memory with no BFGS at all."""

    name = "enum-scale"
    throughput = "subsets_per_s"
    items = 2 ** ENUM_N
    spans = ("cli.main", "experiments.run_simulate", "experiments.load_frequencies",
             "estimation.moment_init", "estimation.sign_orbit_loss", "model.build_table",
             "model.sample", "model.empirical_table", "model.DppTable.to_csv",
             "model.SampleBatch.to_json", "model.SampleBatch.from_json",
             "minors.principal_logdets", "kernels.Kernel", "rngs.stream")

    def prepare(self, p):
        truth = experiments.random_kernel(ENUM_N, np.random.default_rng(self.pass_seed(p)))
        config = _write_json(self.inputs / f"pass{p}" / "simulate.json", {
            "kernel": kernels.kernel_to_json(truth), "count": ENUM_DRAWS,
            "seed": self.pass_seed(p)})
        values = self.state[p] = {"truth": truth}

        def load(out):
            values["freqs"] = experiments.load_frequencies(_samples(out))
            return values["freqs"]

        def moments(out):
            values["moment"] = estimation.moment_init(values["freqs"])
            return values["moment"]

        return [Op("simulate", _cli("simulate", config)),
                Op("load_frequencies", load, is_cli=False),
                Op("moment_init", moments, is_cli=False),
                Op("sign_orbit_loss",
                   lambda out: estimation.sign_orbit_loss(values["moment"], truth),
                   is_cli=False)]

    def check(self, p, op, out, value):
        truth = self.state[p]["truth"]
        if op.label == "simulate":
            return check_simulate(out, truth, self.pass_seed(p), sampler=p == 0)
        if op.label == "load_frequencies":
            return check_frequencies(value, _samples(out))
        if op.label == "moment_init":
            return check_moment_kernel(value)
        fails = check_loss(value, self.state[p]["moment"], truth)
        if p == 0:
            fails += check_conjugate_loss(truth, self.pass_seed(p))
        return fails

    def fingerprint(self, op, value):
        if op.label == "load_frequencies":
            return hashlib.sha256(value.freqs.tobytes()).hexdigest()
        if op.label == "moment_init":
            return hashlib.sha256(value.matrix.tobytes()).hexdigest()
        return f"{value.value!r} {value.argmin_signs.tolist()}"

    def corruptions(self):
        def residual(report):
            report["normalization_residual"] = 1e-6

        def table_row(out, value):
            path = out / "table.csv"
            lines = path.read_text().splitlines(keepends=True)
            m = int(np.random.default_rng([self.pass_seed(0), 1]).integers(0, 2 ** ENUM_N))
            lines[m + 1] = f"{m},{float(lines[m + 1].split(',')[1]) * (1 + 1e-8)!r}\n"
            path.write_text("".join(lines))
            return value

        def singleton(out, value):
            path = out / "samples.json"
            obj = _read_json(path)
            obj["draws"] = [d | 1 for d in obj["draws"]]   # item 0 in every draw
            path.write_text(json.dumps(obj))
            return value

        def freqs(out, value):
            value.freqs[0] += 1e-6
            return value

        def moment(out, value):
            return kernels.Kernel(value.matrix * 1e5)

        def loss(out, value):
            return estimation.LossValue(value=value.value * 1.5, argmin_signs=value.argmin_signs)

        return [("simulate", _edit_json("simulate.json", residual)),
                ("simulate", table_row), ("simulate", singleton),
                ("load_frequencies", freqs), ("moment_init", moment),
                ("sign_orbit_loss", loss)]


class GeometrySuite(Workload):
    """Four geometry commands: hundreds of distinct small and mid-size
    kernels on both sides of the n=12 index-group cache limit."""

    name = "geometry-suite"
    throughput = "kernels_per_s"
    items = VERIFY_TRIALS + len(SCAN_N) + 1 + len(GROWTH_N)
    spans = ("cli.main", "experiments.run_verify_identities",
             "experiments.run_curvature_scan", "experiments.run_hessian",
             "experiments.run_variance_growth", "geometry.identity_residuals",
             "geometry.hessian_matrix", "geometry.min_curvature", "geometry.trace_cache",
             "estimation.asymptotic_covariance", "model.build_table",
             "minors.principal_logdets", "minors.padded_inverses", "kernels.Kernel",
             "kernels.determinantal_graph", "rngs.stream")

    def setup(self):
        self.scan = _write_json(self.inputs / "scan.json", {
            "tridiagonal": SCAN_FAMILY, "n_values": SCAN_N, "max_n": max(SCAN_N)})
        self.growth = _write_json(self.inputs / "growth.json", {
            "tridiagonal": SCAN_FAMILY, "n_values": GROWTH_N, "max_n": max(GROWTH_N)})

    def prepare(self, p):
        seed = self.pass_seed(p)
        hessian_kernel = experiments.random_kernel(HESSIAN_N, np.random.default_rng(seed))
        verify = _write_json(self.inputs / f"pass{p}" / "verify.json",
                             {"trials": VERIFY_TRIALS, "n_values": VERIFY_N, "seed": seed})
        hessian = _write_json(self.inputs / f"pass{p}" / "hessian.json",
                              {"kernel": kernels.kernel_to_json(hessian_kernel)})
        return [Op("verify_identities", _cli("verify-identities", verify)),
                Op("curvature_scan", _cli("curvature-scan", self.scan)),
                Op("hessian", _cli("hessian", hessian)),
                Op("variance_growth", _cli("variance-growth", self.growth))]

    def check(self, p, op, out, value):
        if op.label == "verify_identities":
            return check_identities(out, VERIFY_TRIALS)
        return {"curvature_scan": check_curvature, "hessian": check_hessian,
                "variance_growth": check_growth}[op.label](out)

    def corruptions(self):
        def residual(r):
            r["worst_relative_residual"] = 2e-9

        def flat(r):
            r["rows"][-1]["min_curvature"] = r["rows"][-2]["min_curvature"]

        def positive(r):
            r["eigenvalues"][0] = 1e-3

        def singular(r):
            r["rows"][2]["singular"] = True

        return [("verify_identities", _edit_json("identities.json", residual)),
                ("curvature_scan", _edit_json("curvature.json", flat)),
                ("hessian", _edit_json("hessian.json", positive)),
                ("variance_growth", _edit_json("variance_growth.json", singular))]


class EstimateMid(Workload):
    """estimate at n=10 with 1e5 draws: about 1000 observed masks, so
    each objective call is a throughput-bound batched slogdet."""

    name = "estimate-mid"
    throughput = "restarts_per_s"
    items = ESTIMATE_MLE["restarts"]
    spans = ("cli.main", "experiments.run_estimate", "experiments.load_frequencies",
             "estimation.fit_mle", "estimation.moment_init", "estimation.sign_orbit_loss",
             "estimation.blockwise_loss", "model.SampleBatch.from_json",
             "model.empirical_table", "kernels.Kernel", "kernels.determinantal_graph",
             "rngs.stream")

    def setup(self):
        self.truth = experiments.parse_kernel_spec(ESTIMATE_TRUTH)
        self.cdf = np.cumsum(model.build_table(self.truth).probs)
        self.cdf[-1] = 1.0
        self.config = _write_json(self.inputs / "estimate.json",
                                  {"mle": ESTIMATE_MLE, "truth": ESTIMATE_TRUTH})

    def prepare(self, p):
        u = np.random.default_rng(self.pass_seed(p)).random(ESTIMATE_DRAWS)
        draws = np.searchsorted(self.cdf, u, side="right")
        samples = self.inputs / f"pass{p}" / "samples.json"
        samples.parent.mkdir(parents=True, exist_ok=True)
        samples.write_text(json.dumps({"n": self.truth.n, "seed": self.pass_seed(p),
                                       "count": ESTIMATE_DRAWS, "draws": draws.tolist()}))
        self.state[p] = {"samples": samples}
        return [Op("estimate", _cli("estimate", self.config, "--samples", str(samples)))]

    def check(self, p, op, out, value):
        return check_estimate(out, self.state[p]["samples"], self.truth)

    def corruptions(self):
        def unconverged(report):
            report["result"]["converged"] = False

        def below_truth(report):
            report["result"]["log_likelihood"] -= 1.0

        return [("estimate", _edit_json("estimate.json", unconverged)),
                ("estimate", _edit_json("estimate.json", below_truth))]


class Combined(Workload):
    """Two parts run one after the other in each pass.  Op labels are
    unique across the parts, so each op is checked by its own part."""

    parts: tuple = ()

    def __init__(self, seed: int, inputs: Path):
        super().__init__(seed, inputs)
        self.members = [cls(seed, inputs / cls.name) for cls in self.parts]
        self.spans = tuple(dict.fromkeys(s for m in self.members for s in m.spans))
        self.owner: dict[str, Workload] = {}

    def setup(self):
        for m in self.members:
            m.setup()

    def prepare(self, p):
        ops = []
        for m in self.members:
            for op in m.prepare(p):
                self.owner[op.label] = m
                ops.append(op)
        return ops

    def check(self, p, op, out, value):
        return self.owner[op.label].check(p, op, out, value)

    def release(self, p):
        for m in self.members:
            m.release(p)

    def run_checks(self):
        return {name: fails for m in self.members for name, fails in m.run_checks().items()}

    def fingerprint(self, op, value):
        return self.owner[op.label].fingerprint(op, value)

    def corruptions(self):
        return [c for m in self.members for c in m.corruptions()]

    def throughputs(self, op_wall: dict[str, float]) -> dict[str, float]:
        """Each part's throughput: its items over the summed times of its
        ops in `op_wall`."""
        return {m.throughput: m.items / sum(t for label, t in op_wall.items()
                                            if self.owner[label] is m)
                for m in self.members}


class Enumerate(Combined):
    name = "enumerate"
    parts = (EnumScale, GeometrySuite)


class Fit(Combined):
    name = "fit"
    parts = (RateStudy, EstimateMid)


WORKLOADS = {w.name: w for w in (Enumerate, Fit)}
