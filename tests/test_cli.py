import json
import warnings

import pytest

from dppmle.cli import main


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           {"kernel": {"n": 1, "entries": [1.0]}, "count": 10, "seed": 1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_kernel_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json",
                           {"kernel": {"tridiagonal": {"a": 1.0, "b": 2.0, "n": 3}},
                            "count": 5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "a^2 > 4*b^2" in capsys.readouterr().err

    def test_budget_exceeded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scan.json",
                           {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 12]})
        assert main(["curvature-scan", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "budget" in capsys.readouterr().err

    #: (file name, contents) of samples files `estimate` must refuse
    MALFORMED_SAMPLES = [
        ("samples.json", "{not json"),
        ("samples.json", json.dumps({"n": 2, "seed": 1, "count": 2, "draws": [1, 4]})),
        ("samples.json", json.dumps({"n": 2, "seed": 1, "count": 2, "draws": [1, -1]})),
        ("samples.json", json.dumps({"n": 2, "seed": 1, "count": 2, "draws": [1, 1.7]})),
        ("samples.json", json.dumps({"n": 0, "seed": 1, "count": 1, "draws": [0]})),
        ("samples.json", json.dumps({"n": 2.5, "seed": 1, "count": 1, "draws": [0]})),
        ("table.csv", "mask,probability\r\n"),
        ("table.csv", "mask,probability\r\n0,0.5\r\n2,0.5\r\n"),
        ("table.csv", "mask,probability\r\n0,0.5\r\n-1,0.5\r\n"),
        ("table.csv", "mask,probability\r\n0,0.5\r\n0,0.5\r\n"),
        ("table.csv", "mask,probability\r\n0,nan\r\n1,0.5\r\n"),
        ("table.csv", "mask,probability\r\n0,-0.5\r\n1,1.5\r\n"),
        ("table.csv", "mask,probability\r\n0,1.0\r\n"),
    ]

    def test_malformed_samples_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "est.json", {"mle": {"seed": 1}})
        for k, (name, text) in enumerate(self.MALFORMED_SAMPLES):
            bad = tmp_path / str(k) / name
            bad.parent.mkdir()
            bad.write_text(text)
            code = main(["estimate", "--config", cfg, "--samples", str(bad),
                         "--out", str(tmp_path / str(k))])
            err = capsys.readouterr().err
            assert code == 2, (name, text)
            assert "malformed samples file" in err, (name, text)

    def test_samples_past_enumeration_cap(self, tmp_path, capsys):
        bad = tmp_path / "samples.json"
        bad.write_text(json.dumps({"n": 21, "seed": 1, "count": 1, "draws": [0]}))
        cfg = write_config(tmp_path, "est.json", {"mle": {"seed": 1}})
        code = main(["estimate", "--config", cfg, "--samples", str(bad),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "budget" in capsys.readouterr().err


class TestSimulateEstimateFlow:
    def test_end_to_end(self, tmp_path, capsys):
        sim_cfg = write_config(tmp_path, "sim.json", {
            "kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}},
            "count": 2000, "seed": 3})
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path)]) == 0
        est_cfg = write_config(tmp_path, "est.json", {
            "mle": {"restarts": 2, "seed": 1},
            "truth": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 2}}})
        code = main(["estimate", "--config", est_cfg,
                     "--samples", str(tmp_path / "samples.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "estimate.json").read_text())
        assert "loss" in report

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json",
                           {"kernel": {"n": 1, "entries": [1.0]}, "count": 20, "seed": 1})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "9"]) == 0
        assert (out_a / "samples.json").read_text() == (out_b / "samples.json").read_text()
        report = json.loads((out_a / "simulate.json").read_text())
        assert report["config"]["seed"] == 9


class TestScans:
    def test_curvature_scan(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scan.json",
                           {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 4, 5]})
        assert main(["curvature-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "min_curvature" in out and "slope" in out

    def test_variance_growth(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "vg.json",
                           {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 4, 5]})
        assert main(["variance-growth", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "max_eigenvalue" in capsys.readouterr().out

    def test_hessian(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "h.json",
                           {"kernel": {"n": 2, "entries": [1.0, 0.0, 0.0, 1.0]}})
        assert main(["hessian", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "null space dimension 1" in capsys.readouterr().out

    def test_verify_identities(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"trials": 5, "n_values": [2, 3], "seed": 0})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "pass" in capsys.readouterr().out

    def test_verify_identities_numerical_failure_code(self, tmp_path, capsys):
        # an unreachable tolerance turns residual noise into a failure
        cfg = write_config(tmp_path, "v.json",
                           {"trials": 3, "n_values": [3], "seed": 0, "tolerance": 1e-30})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestMalformedConfig:
    SIM = {"kernel": {"n": 1, "entries": [1.0]}, "count": 10, "seed": 1}
    RATE = {"kernel": {"n": 1, "entries": [1.0]}, "sample_sizes": [50, 100],
            "replicates": 2, "seed": 1, "oracle": True}
    SCAN = {"tridiagonal": {"a": 2.0, "b": 0.9}, "n_values": [3, 4, 5]}
    VERIFY = {"trials": 2, "n_values": [2], "seed": 0}

    @pytest.mark.parametrize("command, config, field", [
        ("simulate", {**SIM, "count": float("nan")}, "count"),
        ("simulate", {**SIM, "count": float("inf")}, "count"),
        ("simulate", {**SIM, "count": "ten"}, "count"),
        ("simulate", {**SIM, "seed": "x"}, "seed"),
        ("rate-study", {**RATE, "replicates": "many"}, "replicates"),
        ("rate-study", {**RATE, "sample_sizes": [float("nan")]}, "sample_sizes"),
        ("rate-study", {**RATE, "sample_sizes": [0, 10]}, "sample_sizes"),
        ("rate-study", {**RATE, "mle": {"max_iters": float("nan")}}, "mle"),
        ("curvature-scan", {**SCAN, "max_n": "big"}, "max_n"),
        ("curvature-scan", {**SCAN, "n_values": ["a"]}, "n_values"),
        ("verify-identities", {**VERIFY, "trials": float("nan")}, "trials"),
        ("verify-identities", {**VERIFY, "n_values": []}, "n_values"),
        ("verify-identities", {**VERIFY, "tolerance": float("nan")}, "tolerance"),
        ("variance-growth", {**SCAN, "tridiagonal": {"a": float("inf"), "b": 0.9}},
         "tridiagonal.a"),
        ("simulate", [SIM], "top.json"),
        ("simulate", {**SIM, "kernel": {"tridiagonal": {"a": 2.0, "b": 0.5, "n": 0}}},
         "kernel.tridiagonal"),
        ("simulate", {**SIM, "kernel": {"blocks": 5}}, "kernel.blocks"),
        ("rate-study", {**RATE, "mle": {"seed": -1, "restarts": 4}}, "mle"),
        ("rate-study", {**RATE, "mle": {"seed": 0.5}}, "mle"),
        ("simulate", {**SIM, "kernel": {"n": 2, "entries": [1.0, float("inf"), 0.0, 1.0]}},
         "kernel"),
    ])
    def test_exits_config_error_naming_field(self, tmp_path, capsys, command, config, field):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        cfg = write_config(tmp_path, "top.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err.splitlines()[0], err

    def test_nonfinite_entries_print_only_the_config_error(self, tmp_path, capsys):
        # a warning raised while reading the kernel would fail here
        cfg = write_config(tmp_path, "top.json", {**self.SIM, "kernel": {
            "n": 2, "entries": [1.0, float("inf"), float("inf"), 1.0]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: kernel: kernel entries must be finite"], err
