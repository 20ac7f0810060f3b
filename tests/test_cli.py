import csv
import dataclasses
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from fpukdv import cli
from fpukdv.cli import build_parser, main
from fpukdv.harness import ExperimentSpec

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
        assert payload["spec"]["command"] == "residual-scan"
        assert len(payload["fits"]) == 3
        with open(tmp_path / "residual_scan_p2.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "res1_l2", "res2_l2", "truncation_sup"]
        assert len(rows) == 4

    def test_two_epsilons_write_their_rows_without_a_fit(self, tmp_path, capsys):
        # a slope needs three points, as in error-scan
        code, out, _ = run_cli(["residual-scan", "--eps", "0.2,0.1",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "residual-scan p=2: no fit ->" in out
        payload = json.loads((tmp_path / "residual_scan_p2.json").read_text())
        assert payload["fits"] == []
        with open(tmp_path / "residual_scan_p2.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epsilon"
        assert [float(row[0]) for row in rows[1:]] == [0.2, 0.1]


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
        assert payload["spec"]["theorem"] == 1
        assert payload["spec"]["tau0"] is None

    def test_json_records_what_was_read(self, tmp_path, capsys):
        code, _, _ = run_cli(["error-scan", "--eps", "0.2", "--tau0", "0.01",
                              "--n-samples", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        spec = json.loads((tmp_path / "error_scan_p2.json").read_text())["spec"]
        assert spec["command"] == "error-scan"
        assert spec["tau0"] == 0.01
        assert spec["theorem"] is None
        assert not {"s", "tau_end", "initial_mode", "amplitude"} & spec.keys()


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

    def test_samples_are_uniform_when_dt_does_not_divide_them(self, tmp_path, capsys):
        # 10/3 is not a multiple of --dt 0.5: each interval runs 7 equal steps
        code, _, _ = run_cli(["fpu", "--eps", "0.1", "--t-end", "10", "--n-samples", "3",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "fpu_p2_eps0.1.csv") as fh:
            times = [float(row["t"]) for row in csv.DictReader(fh)]
        assert times == [0.0, 10 / 3, 20 / 3, 10.0]

    def test_starts_where_the_error_scan_starts(self, tmp_path, capsys):
        # one start for every lattice run: the t = 0 energy of an fpu run and
        # of an error-scan cell at the same epsilon are the same bytes
        first_H = []
        for argv, name in ((["fpu", "--t-end", "1"], "fpu_p2_eps0.1.csv"),
                           (["error-scan", "--tau0", "0.001"], "error_scan_p2_eps0.1.csv")):
            code, _, _ = run_cli(argv + ["--eps", "0.1", "--n-samples", "1",
                                         "--out-dir", str(tmp_path)], capsys)
            assert code == 0
            with open(tmp_path / name) as fh:
                first_H.append(next(csv.DictReader(fh))["H"])
        assert first_H[0] == first_H[1]

    def test_zero_initial_energy_reports_nan_drift(self, tmp_path, capsys):
        # c = 1e-300 underflows the sampled wave, so H(0) = 0: the relative
        # drift has no value, and the run still writes its CSV and summary
        code, out, err = run_cli(["fpu", "--eps", "0.1", "--t-end", "1", "--c", "1e-300",
                                  "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err
        assert "relative H drift = nan" in out
        with open(tmp_path / "fpu_p2_eps0.1.csv") as fh:
            assert float(next(csv.DictReader(fh))["H"]) == 0.0
        assert json.loads((tmp_path / "fpu_p2_eps0.1.json").read_text())["spec"]["c"] == 1e-300

    def test_runs_one_epsilon(self, tmp_path, capsys):
        code, _, err = run_cli(["fpu", "--eps", "0.2,0.1", "--t-end", "5",
                                "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "one epsilon" in err
        assert not list(tmp_path.iterdir())


class TestKdv:
    def test_samples_are_uniform_when_dtau_does_not_divide_them(self, tmp_path, capsys):
        # 0.05/30 is not a multiple of --dtau 1e-3: each interval runs 2 equal steps
        code, _, _ = run_cli(["kdv", "--p", "2", "--tau-end", "0.05", "--dtau", "1e-3",
                              "--n-samples", "30", "--s", "2", "--out-dir", str(tmp_path)],
                             capsys)
        assert code == 0
        with open(tmp_path / "kdv_p2.csv") as fh:
            taus = [float(row["tau"]) for row in csv.DictReader(fh)]
        assert taus == [i * (0.05 / 30) for i in range(31)]


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

    @pytest.mark.parametrize("argv,config,message", [
        (["error-scan"], {"n_samples": 2.5}, "invalid int value"),
        (["fpu"], {"integrator": "euler"}, "invalid choice"),
    ], ids=["error-scan-float-n-samples", "fpu-integrator-choice"])
    def test_config_value_parsed_like_a_flag(self, tmp_path, capsys, argv, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(argv + ["--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert message in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_scalar_eps(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.1}))
        code, out, _ = run_cli(["error-scan", "--tau0", "0.01", "--n-samples", "2",
                                "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert sorted(path.name for path in tmp_path.glob("*.csv")) == ["error_scan_p2_eps0.1.csv"]
        assert json.loads((tmp_path / "error_scan_p2.json").read_text())["spec"]["epsilons"] == [0.1]

    def test_config_string_value_goes_through_the_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "3"}))
        code, _, _ = run_cli(["soliton", "--config", str(cfg), "--out-dir", str(tmp_path)],
                             capsys)
        assert code == 0
        assert (tmp_path / "soliton_p3_c1.0.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"explosive_mode": True}))
        code, _, err = run_cli(["error-scan", "--config", str(cfg)], capsys)
        assert code == 1
        assert "explosive_mode" in err

    @pytest.mark.parametrize("doc", [[1], "ab", 3], ids=["list", "string", "number"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["error-scan", "--config", str(cfg)], capsys)
        assert code == 1
        assert "not a JSON object" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("argv", [
        ["kdv", "--L", "16", "--M", "256", "--tau-end", "0.1"],
        ["error-scan", "--eps", "0.2", "--tau0", "0.01"],
    ], ids=["kdv", "error-scan"])
    def test_needs_a_sample(self, capsys, tmp_path, argv):
        code, _, err = run_cli(argv + ["--n-samples", "0", "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "n_samples >= 1" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_sample_count(self, capsys, tmp_path):
        # a scan with no samples used to end in a traceback from max([])
        code, _, err = run_cli(["error-scan", "--eps", "0.2", "--tau0", "0.01",
                                "--n-samples", "-1", "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "configuration error" in err and "n_samples >= 1" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["fpu", "--eps", "0.1", "--t-end", "5", "--dt", "nan"],
        ["kdv", "--L", "16", "--M", "256", "--tau-end", "0.1", "--dtau", "nan"],
        ["error-scan", "--eps", "0.2", "--tau0", "0.01", "--dt", "nan"],
        ["error-scan", "--eps", "0.2", "--tau0", "0.01", "--dtau", "nan"],
    ], ids=["fpu-dt", "kdv-dtau", "error-scan-dt", "error-scan-dtau"])
    def test_nan_step_size(self, capsys, tmp_path, argv):
        # NaN <= 0 is false, so a NaN step used to reach int(nan) in the sampler
        code, _, err = run_cli(argv + ["--n-samples", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "configuration error" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv,message", [
        (["fpu", "--eps", "0"], "epsilons must be in (0, 1), got (0.0,)"),
        (["fpu", "--eps", "-0.1"], "epsilons must be in (0, 1), got (-0.1,)"),
        (["fpu", "--L", "nan"], "L must be positive and finite, got nan"),
        (["fpu", "--L", "inf"], "L must be positive and finite, got inf"),
        (["soliton", "--M", "0"], "M must be even and positive, got 0"),
        (["soliton", "--M", "-4"], "M must be even and positive, got -4"),
        (["residual-scan", "--M", "0"], "M must be even and positive, got 0"),
        (["kdv", "--M", "0"], "M must be even and positive, got 0"),
        (["error-scan", "--eps", "0.2,0", "--tau0", "1"],
         "epsilons must be in (0, 1), got (0.2, 0.0)"),
        (["kdv", "--L", "-32", "--tau-end", "0.01", "--n-samples", "1"],
         "L must be positive and finite, got -32.0"),
        (["metastability", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["fpu", "--t-end", "inf"], "t_end must be positive and finite, got inf"),
        (["kdv", "--tau-end", "inf"], "tau_end must be positive and finite, got inf"),
        (["error-scan", "--tau0", "inf", "--eps", "0.1", "--n-samples", "2"],
         "tau0 must be positive and finite, got inf"),
        (["error-scan", "--K", "nan", "--eps", "0.1", "--n-samples", "2"],
         "K must be positive and finite, got nan"),
        (["fpu", "--dt", "inf"], "dt_lattice must be in (0, inf), got inf"),
        (["error-scan", "--dtau", "inf", "--eps", "0.1", "--n-samples", "2"],
         "dtau must be in (0, inf), got inf"),
        (["soliton", "--c", "nan"], "c must be positive and finite, got nan"),
        (["error-scan", "--c", "inf", "--eps", "0.1", "--n-samples", "2"],
         "c must be positive and finite, got inf"),
        (["kdv", "--initial-mode", "gaussian", "--amplitude", "nan"],
         "amplitude must be finite, got nan"),
        (["kdv", "--initial-mode", "gaussian", "--amplitude", "inf"],
         "amplitude must be finite, got inf"),
        (["error-scan", "--eps", "0.2", "--tau0", "0.01", "--n-samples", "2",
          "--perturbation-size", "inf"], "perturbation size must be >= 0 and finite, got inf"),
    ], ids=["fpu-eps-0", "fpu-eps-negative", "fpu-L-nan", "fpu-L-inf", "soliton-M-0",
            "soliton-M-negative", "residual-scan-M-0", "kdv-M-0", "error-scan-eps-0",
            "kdv-L-negative", "metastability-seed-negative", "fpu-t-end-inf",
            "kdv-tau-end-inf", "error-scan-tau0-inf", "error-scan-K-nan", "fpu-dt-inf",
            "error-scan-dtau-inf", "soliton-c-nan", "error-scan-c-inf", "kdv-amplitude-nan",
            "kdv-amplitude-inf", "error-scan-perturbation-size-inf"])
    def test_bad_setting_is_a_configuration_error(self, capsys, tmp_path, argv, message):
        # each used to end in a traceback, or (kdv --L -32) in NaN norms and exit 2;
        # a negative seed in default_rng, an infinite window in the sampler;
        # tau0 = inf in math.ceil of the sampler, K = nan in a misleading t_end = nan;
        # an infinite step ran one step per sample and wrote Infinity into the JSON,
        # as an infinite perturbation size did
        code, _, err = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert f"configuration error: {message}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["soliton", "error-scan"])
    def test_unwritable_out_dir_is_a_configuration_error(self, capsys, tmp_path, monkeypatch,
                                                         command):
        # an out dir under a regular file used to end in a NotADirectoryError
        # traceback after the command had run (for error-scan, the whole scan)
        runs = []
        runner, *rest = cli._COMMANDS[command]

        def recording(*args):
            runs.append(args)
            return runner(*args)

        monkeypatch.setitem(cli._COMMANDS, command, (recording, *rest))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli([command, "--out-dir", str(blocker / "out")], capsys)
        assert code == 1
        assert "configuration error: cannot write" in err
        assert "Traceback" not in err
        assert runs == []


class TestDefaults:
    """Run with only --out-dir (and a short run where the default one is
    long), a command's summary records the ExperimentSpec defaults of the
    fields it reads; only the _COMMANDS overrides differ.  A lattice
    command's summary also records, per epsilon, the largest step the rule
    gave it (dt_lattice is unset, None, by default)."""

    @pytest.mark.parametrize("argv,stem,fields,given,dt_max", [
        (["soliton"], "soliton_p2_c1.0", "p c L M", {"L": 32.0}, None),
        # kdv's M = 2048 resolves the default soliton's H^6 tail (at 1024 it is
        # flagged at tau = 0 and the run exits 2)
        (["kdv", "--tau-end", "0.01", "--n-samples", "1"], "kdv_p2",
         "p c L M n_samples dtau_kdv s tau_end initial_mode amplitude",
         {"M": 2048, "tau_end": 0.01, "n_samples": 1}, None),
        (["fpu", "--t-end", "1", "--n-samples", "1"], "fpu_p2_eps0.2",
         "p epsilons c L M n_samples dt_lattice t_end",
         {"epsilons": [0.2], "t_end": 1.0, "n_samples": 1}, {"0.2": 0.5}),
        (["residual-scan"], "residual_scan_p2", "p epsilons c L M", {}, None),
        (["error-scan", "--n-samples", "1"], "error_scan_p2",
         "seed p epsilons c L M r K tau0 theorem n_samples dt_lattice dtau_kdv "
         "perturbation_mode perturbation_size", {"n_samples": 1},
         {"0.2": 0.5, "0.1": 1.0, "0.05": 2.0}),
        (["metastability", "--n-samples", "1"], "metastability_p2",
         "seed p epsilons c L M r K n_samples dt_lattice perturbation_mode perturbation_size",
         {"perturbation_mode": "random", "n_samples": 1}, {"0.2": 0.5, "0.1": 1.0, "0.05": 2.0}),
    ], ids=["soliton", "kdv", "fpu", "residual-scan", "error-scan", "metastability"])
    def test_summary_records_the_defaults(self, tmp_path, capsys, argv, stem, fields, given,
                                          dt_max):
        code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / f"{stem}.json").read_text())
        spec = summary["spec"]
        assert (tmp_path / f"{stem}.csv").exists() or list(tmp_path.glob(f"{stem}_eps*.csv"))
        assert spec.pop("command") == argv[0]
        assert sorted(spec) == sorted(fields.split())
        # through JSON, so the default epsilon tuple compares as a list
        defaults = json.loads(json.dumps(dataclasses.asdict(ExperimentSpec())))
        assert spec == {k: given.get(k, defaults[k]) for k in spec}
        if dt_max is None:
            assert "lattice_steps" not in summary
        else:
            steps = summary["lattice_steps"]
            assert {eps: s["dt_lattice"] for eps, s in steps.items()} == dt_max
            assert all(s["steps"] >= 1 and s["dt"] <= s["dt_lattice"] for s in steps.values())

    def test_dt_overrides_the_rule_at_every_epsilon(self, tmp_path, capsys):
        code, _, _ = run_cli(["error-scan", "--eps", "0.2,0.1", "--tau0", "0.01",
                              "--n-samples", "1", "--dt", "0.25",
                              "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "error_scan_p2.json").read_text())
        assert summary["spec"]["dt_lattice"] == 0.25
        # windows 1.25 and 10 in one sample: 5 and 40 steps of 0.25
        steps = summary["lattice_steps"]
        assert {eps: (s["dt_lattice"], s["steps"]) for eps, s in steps.items()} == {
            "0.2": (0.25, 5), "0.1": (0.25, 40)}
        assert all(s["dt"] == pytest.approx(0.25, rel=1e-12) for s in steps.values())


class TestFit:
    def test_fit_command(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("epsilon,value\n" + "".join(
            f"{e},{2.0 * e**4.5}\n" for e in (0.2, 0.1, 0.05)))
        code, out, _ = run_cli(["fit", "--input", str(path)], capsys)
        assert code == 0
        assert "slope=4.5" in out

    @pytest.mark.parametrize("text,line", [
        ("epsilon,value\n0.2,1e-3\n0.1,2e-5\n0.05,O.1\n0.025,1e-9\n", 4),
        ("0.2,1e-3\n0.1\n0.05,1e-7\n0.025,1e-9\n", 2),
        ("0.2,1e-3\n0.1,2e-5\nepsilon,value\n0.05,1e-7\n", 3),
        ("# points\n\n0.2,1e-3,7\n0.1,2e-5\n0.05,1e-7\n", 3),
    ], ids=["letter-O", "one-column", "late-header", "three-columns"])
    def test_fit_rejects_bad_row(self, tmp_path, capsys, text, line):
        # only a first row with no number in it is a header; any other row
        # that is not two numbers is an error naming its line
        path = tmp_path / "points.csv"
        path.write_text(text)
        code, out, err = run_cli(["fit", "--input", str(path)], capsys)
        assert code == 1
        assert f"line {line}:" in err
        assert "slope" not in out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_rejects_nonfinite_value(self, tmp_path, capsys, value):
        # float() parses these, so the row check passes them to the fit
        path = tmp_path / "points.csv"
        path.write_text(f"0.2,1e-3\n0.1,{value}\n0.05,1e-7\n")
        code, out, err = run_cli(["fit", "--input", str(path)], capsys)
        assert code == 1
        assert "finite" in err
        assert "slope" not in out

    def test_fit_rejects_one_epsilon(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("0.1,1\n0.1,2\n0.1,3\n")
        code, out, err = run_cli(["fit", "--input", str(path)], capsys)
        assert code == 1
        assert "two distinct epsilons" in err
        assert "slope" not in out

    def test_fit_input_from_config(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{e},{2.0 * e**4.5}\n" for e in (0.2, 0.1, 0.05)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(path)}))
        code, out, _ = run_cli(["fit", "--config", str(cfg)], capsys)
        assert code == 0
        assert "slope=4.5" in out

    def test_fit_without_input(self, capsys):
        code, out, err = run_cli(["fit"], capsys)
        assert code == 1
        assert "--input" in err
        assert "slope" not in out

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

    def test_metastability_json_records_what_was_read(self, tmp_path, capsys):
        code, _, _ = run_cli(["metastability", "--eps", "0.1", "--r", "0.05",
                              "--n-samples", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        spec = json.loads((tmp_path / "metastability_p2.json").read_text())["spec"]
        assert spec["command"] == "metastability"
        assert not {"tau0", "theorem", "dtau_kdv"} & spec.keys()

    @pytest.mark.parametrize("size,message", [
        ("1.0", "configuration error: perturbation l2 size 1.0 exceeds the eps^(3/2) budget"),
        ("-0.01", "configuration error: perturbation size must be >= 0 and finite, got -0.01"),
        ("inf", "configuration error: perturbation size must be >= 0 and finite, got inf"),
    ], ids=["over-budget", "negative", "inf"])
    def test_perturbation_size_out_of_range(self, tmp_path, capsys, size, message):
        code, out, err = run_cli(["metastability", "--eps", "0.1", "--r", "0.1",
                                  "--n-samples", "2", "--perturbation-size", size,
                                  "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert message in err
        assert "sup/delta" not in out

    def test_norm_growth_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(["kdv", "--p", "2", "--L", "32", "--M", "2048",
                                "--dtau", "2e-4", "--tau-end", "0.02",
                                "--n-samples", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "growth_exponent" not in out  # fitted for p >= 4 only
        with open(tmp_path / "kdv_p2.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "tau"
        assert len(rows) >= 3

    def test_kdv_reports_growth_exponent_for_p4(self, tmp_path, capsys):
        code, out, _ = run_cli(["kdv", "--p", "4", "--initial-mode", "gaussian",
                                "--amplitude", "0.3", "--L", "32", "--M", "256",
                                "--dtau", "1e-3", "--tau-end", "2", "--n-samples", "4",
                                "--s", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "growth_exponent=" in out


class TestFlagTable:
    """Each command takes only the flags it reads."""

    def test_benchmark_argv_parses(self):
        # perfbench/workloads.py is read, not imported as a package module
        workloads = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")
        parser = build_parser()
        argvs = [inv.argv for make in workloads["WORKLOADS"].values()
                 for inv in make(workloads["DEFAULT_SEED"])]
        assert len(argvs) == 7
        for argv in argvs:
            parser.parse_args(argv + ["--out-dir", "out"])

    @pytest.mark.parametrize("argv", [
        ["metastability", "--eps", "0.1", "--theorem", "2"],
        ["kdv", "--eps", "0.1"],
        ["residual-scan", "--n-samples", "3"],
        ["fit", "--input", "points.csv", "--seed", "1"],
        ["error-scan", "--s", "4"],
        ["error-scan", "--jobs", "2"],
        ["metastability", "--jobs", "2"],
        ["fpu", "--dtau", "1e-3"],
        ["kdv", "--dt", "0.5"],
        ["kdv", "--tau", "1"],
    ], ids=["metastability-theorem", "kdv-eps", "residual-scan-n-samples", "fit-seed",
            "error-scan-s", "error-scan-jobs", "metastability-jobs", "fpu-dtau", "kdv-dt",
            "kdv-abbreviation"])
    def test_flag_a_command_ignores_is_rejected(self, tmp_path, capsys, argv):
        # no prefix match either: error-scan --s is not --seed, kdv --dt not --dtau
        code, _, err = run_cli(argv + ["--config", str(tmp_path / "unread.json")], capsys)
        assert code == 1
        assert f"unrecognized arguments: {argv[-2]}" in err

    def test_config_key_a_command_ignores_is_rejected(self, tmp_path, capsys):
        # no command takes "jobs": every sweep runs in one process; and a
        # config file names no second config file, which would go unread
        cfg = tmp_path / "cfg.json"
        for command, key, value in (("metastability", "dtau", 1e-3),
                                    ("error-scan", "jobs", 2), ("metastability", "jobs", 2),
                                    ("residual-scan", "config", str(tmp_path / "unread.json"))):
            cfg.write_text(json.dumps({"eps": [0.1], key: value}))
            code, _, err = run_cli([command, "--config", str(cfg),
                                    "--out-dir", str(tmp_path)], capsys)
            assert code == 1
            assert repr(key) in err
            assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flags,config", [
        (["--tau0", "1", "--theorem", "1"], {}),
        (["--theorem", "1"], {"tau0": 1.0}),
        ([], {"tau0": 1.0, "theorem": 2}),
    ], ids=["flags", "flag-and-config", "config"])
    def test_error_scan_takes_one_window(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(["error-scan", "--eps", "0.2", "--n-samples", "2",
                                "--config", str(cfg), *flags, "--out-dir", str(tmp_path)],
                               capsys)
        assert code == 1
        assert "tau0 and theorem" in err
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("entry, module", [
    ("fpukdv.cli", "multiprocessing"), ("fpukdv.cli", "fpukdv.kernels"),
    ("fpukdv.kdv", "fpukdv.harness"), ("fpukdv.kdv", "fpukdv.cli"),
    ("fpukdv.fpu", "fpukdv.harness"), ("fpukdv.fpu", "fpukdv.cli"),
], ids=["multiprocessing", "fpukdv.kernels", "kdv-harness", "kdv-cli", "fpu-harness",
        "fpu-cli"])
def test_import_does_not_load(entry, module):
    # every sweep runs in one process, so no run pays for importing
    # multiprocessing (nor should one come back through a dependency); no
    # run imports the test oracles; and the package namespace imports
    # nothing, so a solver module loads only what it imports itself
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, {entry}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
