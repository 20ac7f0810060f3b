import csv
import json

import pytest

from fpukdv.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSoliton:
    def test_writes_profile_and_reports_residual(self, tmp_path, capsys):
        code, out, _ = run_cli(["soliton", "--p", "2", "--c", "1.0",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "peak=3" in out
        path = tmp_path / "soliton_p2_c1.0.csv"
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "W"]
        assert len(rows) == 1025
        peak = max(float(r[1]) for r in rows[1:])
        assert peak == pytest.approx(3.0, rel=1e-12)


class TestResidualScan:
    def test_end_to_end(self, tmp_path, capsys):
        code, out, _ = run_cli(["residual-scan", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "slope res1=4.4" in out or "slope res1=4.5" in out
        payload = json.loads((tmp_path / "residual_scan_p2.json").read_text())
        assert payload["spec"]["kind"] == "residual_scan"
        assert len(payload["fits"]) == 3
        with open(tmp_path / "residual_scan_p2.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "res1_l2", "res2_l2", "truncation_sup"]
        assert len(rows) == 4


class TestErrorScan:
    def test_fixed_window(self, tmp_path, capsys):
        code, out, _ = run_cli(["error-scan", "--eps", "0.2,0.1", "--tau0", "0.05",
                                "--n-samples", "3", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "error_scan_p2_eps0.2.csv").exists()
        assert (tmp_path / "error_scan_p2_eps0.1.csv").exists()

    def test_theorem1_window_selected(self, tmp_path, capsys):
        code, out, _ = run_cli(["error-scan", "--eps", "0.1", "--theorem", "1",
                                "--r", "0.05", "--n-samples", "3",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "error_scan_p2.json").read_text())
        assert payload["spec"]["kind"] == "theorem1_window"


class TestFpu:
    def test_integrator_flag_is_inert(self, tmp_path, capsys):
        # both accepted values run the one lattice integrator
        outputs = []
        for name in ("rk4", "splitting"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(["fpu", "--eps", "0.1", "--t-end", "50", "--n-samples", "5",
                                  "--integrator", name, "--out-dir", str(out_dir)], capsys)
            assert code == 0
            outputs.append((out_dir / "fpu_p2_eps0.1.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 7


class TestConfigMerge:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": [0.2, 0.1], "tau0": 0.05, "n_samples": 7}))
        code, out, _ = run_cli(["error-scan", "--config", str(cfg),
                                "--n-samples", "3", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "error_scan_p2.json").read_text())
        assert payload["spec"]["n_samples"] == 3  # flag beats config
        assert payload["spec"]["epsilons"] == [0.2, 0.1]  # config beats default
        assert payload["spec"]["tau0"] == 0.05

    def test_flag_at_its_default_beats_config(self, tmp_path, capsys):
        # --p 2 equals the parser default but was given explicitly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 3}))
        code, out, _ = run_cli(["soliton", "--config", str(cfg), "--p", "2",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "soliton_p2_c1.0.csv").exists()
        assert not (tmp_path / "soliton_p3_c1.0.csv").exists()

    def test_missing_config_names_path(self, tmp_path, capsys):
        code, _, err = run_cli(["error-scan", "--config", str(tmp_path / "nope.json")],
                               capsys)
        assert code == 1
        assert "nope.json" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"explosive_mode": True}))
        code, _, err = run_cli(["error-scan", "--config", str(cfg)], capsys)
        assert code == 1
        assert "explosive_mode" in err


class TestExitCodes:
    def test_invalid_epsilon_order(self, capsys, tmp_path):
        code, _, err = run_cli(["residual-scan", "--eps", "0.05,0.1",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "decreasing" in err

    def test_theorem2_empty_window(self, capsys, tmp_path):
        # r |log eps| <= 1 for eps = 0.1, r = 0.25
        code, _, err = run_cli(["error-scan", "--eps", "0.1", "--theorem", "2",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "log" in err

    def test_odd_grid_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(["residual-scan", "--M", "1001",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "M must be even" in err
        assert not (tmp_path / "residual_scan_p2.csv").exists()

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_tau_end_not_a_step_multiple(self, capsys, tmp_path):
        code, _, err = run_cli(["kdv", "--p", "2", "--L", "16", "--M", "256",
                                "--dtau", "0.03", "--tau-end", "0.1",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "multiple of dtau" in err


class TestFit:
    def test_fit_command(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("epsilon,value\n" + "".join(
            f"{e},{2.0 * e**4.5}\n" for e in (0.2, 0.1, 0.05)))
        code, out, _ = run_cli(["fit", "--input", str(path)], capsys)
        assert code == 0
        assert "slope=4.5" in out

    def test_fit_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--input", str(tmp_path / "gone.csv")], capsys)
        assert code == 1
        assert "gone.csv" in err


class TestMetastabilityAndNormGrowth:
    def test_metastability_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(["metastability", "--eps", "0.1", "--r", "0.05",
                                "--n-samples", "4", "--seed", "42",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "sup/delta" in out
        assert (tmp_path / "metastability_p2_eps0.1.csv").exists()

    def test_norm_growth_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(["norm-growth", "--p", "2", "--L", "32", "--M", "2048",
                                "--dtau", "2e-4", "--tau-end", "0.02",
                                "--n-samples", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "norm_growth_p2.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "tau"
        assert len(rows) >= 3
