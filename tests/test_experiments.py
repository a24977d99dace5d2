import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dppmle.experiments as ex
from dppmle.errors import (ConfigError, GroundSetTooLarge, InsufficientPoints,
                           NonpositiveValue)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs one CLI command, or with "load" load_frequencies on a file, in
#: this process, then prints the process's peak RSS in KiB.  Linux keeps
#: ru_maxrss across exec, so a child spawned by a larger test process
#: reads that process's peak there; VmHWM is the peak of the child's own
#: memory map, and ru_maxrss is the fallback where /proc is missing.
_MEASURED = """
import re, resource, sys
from pathlib import Path
from dppmle.cli import main
from dppmle.experiments import load_frequencies
if sys.argv[1] == "load":
    code = 0 if load_frequencies(Path(sys.argv[2])).total else 1
else:
    code = main(sys.argv[1:])
try:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def measured(*args: str) -> float:
    """Peak RSS in MiB of `_MEASURED` run on the arguments in a fresh
    process with one BLAS thread; the process must exit 0."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", _MEASURED, *args], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return int(child.stdout.split()[-1]) / 1024


class TestLogLogSlope:
    def test_exact_power_law(self):
        pts = [(x, x ** -0.5) for x in (10.0, 100.0, 1000.0, 10000.0)]
        fit = ex.fit_loglog_slope(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fit = ex.fit_loglog_slope([(1.0, 7.0), (10.0, 7.0), (100.0, 7.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_sixth_root(self, rng):
        xs = np.logspace(2, 6, 9)
        ys = 3.0 * xs ** (-1.0 / 6.0) * (1.0 + 0.01 * rng.standard_normal(9))
        fit = ex.fit_loglog_slope(list(zip(xs, ys)))
        assert fit.slope == pytest.approx(-1.0 / 6.0, abs=0.02)

    def test_errors(self):
        with pytest.raises(InsufficientPoints):
            ex.fit_loglog_slope([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(NonpositiveValue):
            ex.fit_loglog_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])

    def test_semilog_exact_decay(self):
        pts = [(n, 5.0 * np.exp(-0.7 * n)) for n in range(3, 9)]
        fit = ex.fit_semilog_slope(pts)
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-10)


class TestKernelSpecs:
    def test_literal(self):
        ker = ex.parse_kernel_spec({"n": 2, "entries": [1.0, 0.2, 0.2, 1.0]})
        assert ker.matrix[0, 1] == 0.2

    def test_tridiagonal(self):
        ker = ex.parse_kernel_spec({"tridiagonal": {"a": 2.0, "b": 0.5, "n": 3}})
        assert ker.matrix[0, 1] == 0.5 and ker.matrix[0, 2] == 0.0

    def test_blocks(self):
        ker = ex.parse_kernel_spec({"blocks": [
            {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
            {"n": 1, "entries": [3.0]},
        ]})
        assert ker.n == 3 and ker.matrix[2, 2] == 3.0 and ker.matrix[0, 2] == 0.0

    def test_invalid_tridiagonal_names_condition(self):
        with pytest.raises(ConfigError, match=r"a\^2 > 4\*b\^2"):
            ex.parse_kernel_spec({"tridiagonal": {"a": 1.0, "b": 2.0, "n": 3}})

    def test_unknown_spec_names_field(self):
        with pytest.raises(ConfigError, match="kernel"):
            ex.parse_kernel_spec({"shape": "circle"})


class TestSimulate:
    CFG = {"kernel": {"n": 2, "entries": [1.0, 0.0, 0.0, 1.0]}, "count": 4, "seed": 3}

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ex.run_simulate(dict(self.CFG), a)
        ex.run_simulate(dict(self.CFG), b)
        assert (a / "samples.json").read_text() == (b / "samples.json").read_text()
        assert (a / "table.csv").read_text() == (b / "table.csv").read_text()

    def test_table_rows_sum_to_one(self, tmp_path):
        ex.run_simulate(dict(self.CFG), tmp_path)
        rows = (tmp_path / "table.csv").read_text().strip().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_3e6_draws_at_n18_stay_under_150_mib(self, tmp_path):
        # samples.json and table.csv are written, and samples.json read,
        # a block at a time with no Python object per draw: each process
        # holds the 23 MiB of draws and little else (both took > 200 MiB
        # when the files were built as one string from per-draw ints)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 18}},
                                      "count": 3_000_000, "seed": 1}))
        peak_mib = measured("simulate", "--config", str(config), "--out", str(tmp_path))
        assert peak_mib <= 150, peak_mib
        peak_mib = measured("load", str(tmp_path / "samples.json"))
        assert peak_mib <= 150, peak_mib

    def test_invalid_spec_rejected(self, tmp_path):
        cfg = {"kernel": {"tridiagonal": {"a": 1.0, "b": 2.0, "n": 3}}, "count": 4}
        with pytest.raises(ConfigError, match=r"a\^2 > 4\*b\^2"):
            ex.run_simulate(cfg, tmp_path)


class TestEstimateCommand:
    def test_end_to_end_with_truth(self, tmp_path):
        sim_cfg = {"kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
                   "count": 5000, "seed": 12}
        ex.run_simulate(sim_cfg, tmp_path)
        est_cfg = {"mle": {"restarts": 2, "seed": 1}, "truth": sim_cfg["kernel"]}
        report = ex.run_estimate(est_cfg, tmp_path / "samples.json", tmp_path)
        assert np.isfinite(report["loss"])
        assert report["result"]["converged"]

    def test_exact_table_input_recovers(self, tmp_path):
        sim_cfg = {"kernel": {"tridiagonal": {"a": 2.0, "b": 0.6, "n": 3}},
                   "count": 10, "seed": 12}
        ex.run_simulate(sim_cfg, tmp_path)
        est_cfg = {"mle": {"restarts": 3, "seed": 1}, "truth": sim_cfg["kernel"]}
        report = ex.run_estimate(est_cfg, tmp_path / "table.csv", tmp_path)
        assert report["loss"] <= 1e-4

    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        sim_cfg = {"kernel": {"n": 1, "entries": [1.0]}, "count": 50, "seed": 2}
        ex.run_simulate(sim_cfg, tmp_path)
        r1 = ex.run_estimate({"mle": {"seed": 3}}, tmp_path / "samples.json", tmp_path)
        text1 = (tmp_path / "estimate.json").read_text()
        r2 = ex.run_estimate({"mle": {"seed": 3}}, tmp_path / "samples.json", tmp_path)
        text2 = (tmp_path / "estimate.json").read_text()
        o1, o2 = json.loads(text1), json.loads(text2)
        o1.pop("created_at"), o2.pop("created_at")
        assert o1 == o2

    def test_fit_at_n16_stays_under_150_mib(self, tmp_path):
        # the Newton derivative pass streams the distinct padded-inverse
        # entries in blocks of 2^12 masks, m 2^12 floats a member, where
        # all 2^n n^2 padded-inverse floats took the fit to 254 MiB
        sim_cfg = {"kernel": {"tridiagonal": {"a": 2.0, "b": 0.9, "n": 16}},
                   "count": 20000, "seed": 5}
        ex.run_simulate(sim_cfg, tmp_path)
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"mle": {"restarts": 2, "max_iters": 1, "seed": 1}}))
        peak_mib = measured("estimate", "--config", str(config), "--samples",
                            str(tmp_path / "samples.json"), "--out", str(tmp_path))
        assert json.loads((tmp_path / "estimate.json").read_text())["result"]["iterations"] == 1
        assert peak_mib <= 150, peak_mib

    def test_size_mismatch_rejected(self, tmp_path):
        sim_cfg = {"kernel": {"n": 1, "entries": [1.0]}, "count": 10, "seed": 2}
        ex.run_simulate(sim_cfg, tmp_path)
        bad = {"truth": {"n": 2, "entries": [1.0, 0.0, 0.0, 1.0]}}
        with pytest.raises(ConfigError, match="truth"):
            ex.run_estimate(bad, tmp_path / "samples.json", tmp_path)


class TestCurvatureScan:
    def test_irreducible_family(self, tmp_path):
        cfg = {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 4, 5, 6]}
        report = ex.run_curvature_scan(cfg, tmp_path)
        values = [r["min_curvature"] for r in report["rows"]]
        assert all(v > 0 for v in values)
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
        assert report["fit"]["slope"] < 0
        assert report["fit"]["r2"] >= 0.95
        assert (tmp_path / "curvature.csv").exists()

    def test_reducible_rows_flagged_and_excluded(self):
        cfg = {"tridiagonal": {"a": 2.0, "b": 0.0}, "n_values": [2, 3, 4]}
        report = ex.run_curvature_scan(cfg)
        assert all(r["reducible"] for r in report["rows"])
        assert report["fit"] is None

    def test_budget(self):
        cfg = {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 11]}
        with pytest.raises(GroundSetTooLarge):
            ex.run_curvature_scan(cfg)


class TestVarianceGrowth:
    def test_growth_and_fit(self, tmp_path):
        cfg = {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 4, 5, 6]}
        report = ex.run_variance_growth(cfg, tmp_path)
        vals = [r["max_eigenvalue"] for r in report["rows"] if not r["singular"]]
        assert len(vals) == 4
        assert all(vals[i + 1] > vals[i] for i in range(3))
        assert report["fit"]["slope"] > 0
        assert report["fit"]["r2"] >= 0.9

    def test_reducible_rows_flagged(self):
        cfg = {"tridiagonal": {"a": 2.0, "b": 0.0}, "n_values": [2, 3, 4]}
        report = ex.run_variance_growth(cfg)
        assert all(r["singular"] for r in report["rows"])
        assert report["fit"] is None


class TestRateStudy:
    def test_oracle_mode_zero_losses_null_slopes(self, tmp_path):
        cfg = {
            "kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
            "sample_sizes": [100, 200, 400],
            "replicates": 3,
            "seed": 5,
            "oracle": True,
        }
        report = ex.run_rate_study(cfg, tmp_path)
        assert all(row["mean_loss"] == 0.0 for row in report["rows"])
        assert all(fit is None for fit in report["slopes"].values())
        payload = json.loads((tmp_path / "rate_study.json").read_text())
        assert payload["slopes"]["total"] is None

    def test_small_real_run(self, tmp_path):
        cfg = {
            "kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
            "sample_sizes": [100, 400, 1600],
            "replicates": 4,
            "seed": 5,
            "mle": {"restarts": 2, "seed": 1},
        }
        report = ex.run_rate_study(cfg, tmp_path)
        assert report["slopes"]["total"] is not None
        assert (tmp_path / "replicates_400.csv").exists()
        assert report["config"]["replicates"] == 4  # resolved config echoed

    def test_rejects_unsorted_sizes(self):
        cfg = {"kernel": {"n": 1, "entries": [1.0]}, "sample_sizes": [100, 50]}
        with pytest.raises(ConfigError, match="sample_sizes"):
            ex.run_rate_study(cfg)

    def test_partial_flush_on_failure(self, tmp_path, monkeypatch):
        # every size goes to one estimate_risk call, so a failure leaves no
        # row, and the marker names the first size, the first without one
        calls = []

        def failing(kernel, sizes, *args, **kwargs):
            calls.append(list(sizes))
            raise RuntimeError("boom")

        monkeypatch.setattr(ex, "estimate_risk", failing)
        cfg = {"kernel": {"n": 1, "entries": [1.0]}, "sample_sizes": [50, 100, 200],
               "replicates": 2, "seed": 1, "oracle": True}
        with pytest.raises(RuntimeError):
            ex.run_rate_study(cfg, tmp_path)
        assert calls == [[50, 100, 200]]
        payload = json.loads((tmp_path / "rate_study.json").read_text())
        assert payload["failed_at_sample_size"] == 50
        assert payload["rows"] == []
        assert payload["failure"] == "boom"
        assert payload["config"]["sample_sizes"] == [50, 100, 200]

    def test_joint_batch_at_n10_stays_under_62_mib(self, tmp_path):
        # three sizes x 20 replicates x 6 restarts fit as one batch of 360
        # members, m = 55 Newton coordinates: the Hessians and steps run in
        # member chunks (~50 MiB; ~73 MiB with one stack over the batch)
        config = tmp_path / "rate.json"
        config.write_text(json.dumps({
            "kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 10}},
            "sample_sizes": [1000, 10000, 100000], "replicates": 20, "seed": 7,
            "mle": {"seed": 1, "max_iters": 1}}))
        peak_mib = measured("rate-study", "--config", str(config), "--out", str(tmp_path))
        assert len(json.loads((tmp_path / "rate_study.json").read_text())["rows"]) == 3
        assert peak_mib <= 62, peak_mib


class TestHessianCommand:
    def test_outputs(self, tmp_path):
        cfg = {"kernel": {"blocks": [{"n": 1, "entries": [1.0]},
                                     {"n": 1, "entries": [2.0]}]}}
        report = ex.run_hessian(cfg, tmp_path)
        assert report["null_space_dimension"] == 1
        assert not report["irreducible"]
        assert (tmp_path / "hessian_eigenvalues.csv").exists()
        assert (tmp_path / "hessian_matrix.csv").exists()


class TestVerifyIdentities:
    def test_passes_on_random_inputs(self, tmp_path):
        report = ex.run_verify_identities({"trials": 10, "n_values": [2, 3, 4], "seed": 1},
                                          tmp_path)
        assert report["passed"]
        assert report["worst_relative_residual"] <= 1e-9
        assert len(report["records"]) == 10

    def test_one_trial_at_n18_stays_under_300_mib(self, tmp_path):
        # the matrix form comes from the reverse sweep, O(2^n) floats a
        # trial, so one n = 18 trial fits in a small fresh process
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"trials": 1, "n_values": [18], "seed": 0}))
        peak_mib = measured("verify-identities", "--config", str(config), "--out", str(tmp_path))
        assert json.loads((tmp_path / "identities.json").read_text())["passed"] is True
        assert peak_mib <= 300, peak_mib

    def test_records_are_the_per_trial_residuals_in_trial_order(self):
        # one batch per size gives each trial the residuals of its own
        # kernel and direction, and the record the fields of to_dict
        config = {"trials": 9, "n_values": [3, 2, 3, 5], "seed": 4}
        report = ex.run_verify_identities(config)
        for t, record in enumerate(report["records"]):
            gen = ex.rngs.stream(4, t)
            n = config["n_values"][t % 4]
            res = ex.identity_residuals(ex.random_kernel(n, gen), ex.random_symmetric(n, gen))
            assert list(record) == ["trial", "n", "r1", "r2", "r3", "r4",
                                    "matrix_form_residual", "max_relative"]
            assert record == {"trial": t, "n": n, **res.to_dict(),
                              "max_relative": res.max_relative()}
