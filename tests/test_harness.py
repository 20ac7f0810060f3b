import csv
import json
import math
import statistics
from dataclasses import asdict, replace

import numpy as np
import pytest

from fpukdv import fpu, kdv
from fpukdv.cli import main
from fpukdv.core import (
    BlowUpError,
    ConfigurationError,
    ErrorRecord,
    InvalidInputError,
    sample_to_lattice,
)
from fpukdv.harness import (
    ExperimentSpec,
    fit_scaling_exponent,
    orbital_distance,
    run_error_scan,
    run_metastability,
    run_norm_growth,
    run_residual_scan,
    time_window,
    write_csv,
    write_summary_json,
)

from support import count_calls, pairwise_exponent


class TestTimeWindow:
    def test_theorem1_hand_value(self):
        # t0 = r K^-1 eps^-3 |log eps| = 0.25 * 1000 * log(10) = 575.646...
        t0, tau0 = time_window(0.1, r=0.25, K=1.0, p=2, theorem=1)
        assert t0 == pytest.approx(0.25 * 1000.0 * math.log(10.0), rel=1e-12)
        assert tau0 == pytest.approx(t0 * 1e-3, rel=1e-12)

    def test_theorem2_hand_value(self):
        # t0 = (2pK)^-1 eps^-3 log(r |log eps|), p=4, K=1, r=0.45, eps=0.01
        t0, _ = time_window(0.01, r=0.45, K=1.0, p=4, theorem=2)
        expected = 1e6 * math.log(0.45 * math.log(100.0)) / 8.0
        assert t0 == pytest.approx(expected, rel=1e-12)

    def test_theorem2_needs_large_log(self):
        # r |log eps| <= 1 has an empty window
        with pytest.raises(ConfigurationError):
            time_window(0.1, r=0.25, K=1.0, p=2, theorem=2)

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            time_window(1.5, r=0.25, K=1.0, p=2, theorem=1)
        with pytest.raises(InvalidInputError):
            time_window(0.1, r=0.25, K=1.0, p=2, theorem=3)


class TestFits:
    def test_exact_power_law_recovered(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        pts = [(e, 3.7 * e**4.5) for e in eps]
        fit = fit_scaling_exponent(pts)
        assert fit.slope == pytest.approx(4.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
        assert fit.residual_rms < 1e-13

    def test_needs_three_points(self):
        with pytest.raises(InvalidInputError):
            fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(InvalidInputError):
            fit_scaling_exponent([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_rejects_nonfinite_points(self, bad, column):
        # v <= 0.0 is False for NaN, so a sign test alone lets NaN through
        pts = [[0.1, 1.0], [0.05, 0.5], [0.025, 0.1]]
        pts[1][column] = bad
        with pytest.raises(InvalidInputError):
            fit_scaling_exponent(pts)

    @pytest.mark.parametrize("eps,n", [(0.1, 3), (0.2, 7)])
    def test_needs_two_distinct_epsilons(self, eps, n):
        # seven copies of log 0.2 have a mean that is not log 0.2, so the
        # centred x is not all zero there; the fit must still refuse
        pts = [(eps, float(v)) for v in range(1, n + 1)]
        with pytest.raises(InvalidInputError, match="two distinct epsilons"):
            fit_scaling_exponent(pts)

    # the (eps, sup_error) points of acceptance 03, and seeded noisy sets
    ACCEPTANCE_03 = [(0.2, 1.446917257339375), (0.1, 0.44777663729706096),
                     (0.05, 0.13932230414753222)]

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_matches_statistics_oracle(self, seed):
        if seed is None:
            pts = self.ACCEPTANCE_03
        else:
            rng = np.random.default_rng(seed)
            eps = np.sort(rng.uniform(0.01, 0.5, 3 + seed))
            pts = list(zip(eps, eps ** rng.uniform(1.0, 5.0) * np.exp(rng.normal(0.0, 0.3, eps.size))))
        x = [math.log(e) for e, _ in pts]
        y = [math.log(v) for _, v in pts]
        slope, intercept = statistics.linear_regression(x, y)
        rms = math.sqrt(math.fsum((b - slope * a - intercept) ** 2 for a, b in zip(x, y)) / len(x))
        fit = fit_scaling_exponent(pts)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12)

    def test_pairwise_exponent(self):
        assert pairwise_exponent((0.1, 1.0), (0.05, 2.0 ** -1.5)) == pytest.approx(1.5)


class TestOrbitalDistance:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(128)
        assert orbital_distance(u, u) == pytest.approx(0.0, abs=1e-10)

    def test_invariant_under_integer_shift(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(128)
        assert orbital_distance(np.roll(u, 17), u) == pytest.approx(0.0, abs=1e-9)

    def test_subsite_shift_of_smooth_wave(self):
        # smooth profile displaced by a fractional site is still orbit-close
        n = np.arange(256)
        u = np.exp(-((n - 128.0) ** 2) / 50.0)
        u_shift = np.exp(-((n - 128.4) ** 2) / 50.0)
        raw = math.sqrt(np.sum((u - u_shift) ** 2))
        # quadratic refinement removes most (not all) of the sub-site offset
        assert orbital_distance(u_shift, u) < 0.2 * raw

    def test_detects_genuine_deformation(self):
        n = np.arange(256)
        u = np.exp(-((n - 128.0) ** 2) / 50.0)
        v = 1.5 * u
        assert orbital_distance(v, u) == pytest.approx(
            0.5 * math.sqrt(np.sum(u**2)), rel=1e-6)

    def test_small_distance_matches_direct_sum(self, soliton_p2):
        # oracle: the squared distance to every integer shift, summed
        # directly in O(N^2), then the same parabola.  With |u|^2 ~ 98 and a
        # distance ~ 1e-3, forming d^2 as |u|^2 + |u_ref|^2 - 2 corr would
        # lose ~8 of its digits
        N = 1280
        (u_ref,) = sample_to_lattice((soliton_p2,), 0.05, 0.0, N)
        noise = np.random.default_rng(11).standard_normal(N)
        u = np.roll(u_ref, 7) + 1.0e-3 * noise / np.linalg.norm(noise)
        d2 = np.array([np.sum((u - np.roll(u_ref, j)) ** 2) for j in range(N)])
        i = int(np.argmin(d2))
        ym, y0, yp = d2[i - 1], d2[i], d2[(i + 1) % N]
        expected = math.sqrt(y0 - (yp - ym) ** 2 / (8.0 * (ym - 2.0 * y0 + yp)))
        assert np.dot(u, u) == pytest.approx(98.0, rel=0.01)
        assert expected == pytest.approx(1.0e-3, rel=0.1)
        assert orbital_distance(u, u_ref) == pytest.approx(expected, rel=1e-12)


class TestExperimentSpecValidation:
    def test_default_window_is_theorem1(self):
        spec = ExperimentSpec()
        assert spec.theorem == 1 and spec.tau0 is None

    def test_tau0_and_theorem_exclude_each_other(self):
        with pytest.raises(ConfigurationError, match="tau0 and theorem"):
            ExperimentSpec(tau0=1.0, theorem=1)

    @pytest.mark.parametrize("kwargs", [
        dict(theorem=3), dict(tau0=0.0), dict(tau0=float("nan")),
        dict(perturbation_size=-0.01), dict(n_samples=0), dict(n_samples=-1),
    ], ids=["theorem-3", "tau0-zero", "tau0-nan", "negative-perturbation",
            "no-samples", "negative-samples"])
    def test_out_of_range(self, kwargs):
        with pytest.raises(InvalidInputError):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(p=2.5), "p must be an integer"),
        (dict(p=2.0), "p must be an integer"),
        (dict(p=1), "p must be an integer"),
        (dict(n_samples=2.5), "integer n_samples"),
        (dict(initial_mode="bogus"), "unknown initial mode"),
    ], ids=["fractional-p", "float-p", "p-1", "fractional-samples", "unknown-initial-mode"])
    def test_rejected_before_a_run(self, kwargs, message):
        # each of these used to pass the spec and fail mid-run with a TypeError
        # or in initial_profile
        with pytest.raises(InvalidInputError, match=message):
            ExperimentSpec(**kwargs)

    def test_epsilons_must_decrease(self):
        with pytest.raises(InvalidInputError):
            ExperimentSpec(epsilons=(0.05, 0.1))

    def test_r_range(self):
        with pytest.raises(InvalidInputError):
            ExperimentSpec(r=0.6)


class TestRunners:
    def test_residual_scan_slopes(self):
        spec = ExperimentSpec(p=2, epsilons=(0.2, 0.1, 0.05))
        out = run_residual_scan(spec)
        assert out["fits"]["res1"].slope == pytest.approx(4.5, abs=0.3)
        assert out["fits"]["res2"].slope == pytest.approx(4.5, abs=0.3)
        assert out["fits"]["truncation"].slope == pytest.approx(5.0, abs=0.3)

    def test_residual_scan_forms_the_nonlinear_fields_once(self, monkeypatch):
        # one build for the scan, shared by every epsilon
        calls = count_calls(monkeypatch, kdv.nonlinear_fields)
        run_residual_scan(ExperimentSpec(p=2, epsilons=(0.2, 0.1, 0.05)))
        assert len(calls) == 1

    def test_one_reference_run_per_window(self, monkeypatch):
        # a fixed tau0 is one KdV window for every cell, a theorem window is
        # one per epsilon, and metastability's reference (W0 standing still)
        # runs no KdV; the windows run one after another, in epsilon order
        fixed = ExperimentSpec(p=2, epsilons=(0.2, 0.1), tau0=0.05, n_samples=4)
        theorem = ExperimentSpec(p=2, epsilons=(0.2, 0.1), r=0.01, n_samples=4)
        perturbed = dict(perturbation_mode="random", seed=42)
        calls = count_calls(monkeypatch, kdv.kdv_samples)
        for run, spec, kdv_runs in (
            (run_error_scan, fixed, 1),
            (run_error_scan, theorem, 2),
            (run_metastability, replace(fixed, **perturbed), 0),
            (run_metastability, replace(theorem, **perturbed), 0),
        ):
            calls.clear()
            out = run(spec)
            assert len(calls) == kdv_runs
            assert [c["epsilon"] for c in out["cells"]] == list(spec.epsilons)
            for cell in out["cells"]:
                assert len(cell["records"]) == spec.n_samples + 1

    def test_empty_theorem_window_fails_before_any_lattice_step(self, monkeypatch):
        # r|log eps| = 0.4 * log 5 <= 1 at eps = 0.2 leaves no theorem 2
        # window: both scans stop before the lattice takes a step
        steps = count_calls(monkeypatch, fpu.fpu_integrate)
        spec = ExperimentSpec(p=2, epsilons=(0.2, 0.05), theorem=2, r=0.4, n_samples=2)
        for run in (run_error_scan, run_metastability):
            with pytest.raises(ConfigurationError, match="theorem 2 window"):
                run(spec)
        assert steps == []

    def test_error_scan_no_coercivity_violations(self):
        spec = ExperimentSpec(p=2, epsilons=(0.1,),
                              tau0=0.1, n_samples=5)
        out = run_error_scan(spec)
        cell = out["cells"][0]
        assert cell["coercivity_violations"] == 0
        assert not cell["flags"]["blow_up"]
        # error stays far below order one on this short window
        assert cell["sup_error"] < 1.0

    def test_metastability_seeded_perturbation_stays_bounded(self):
        spec = ExperimentSpec(p=2, epsilons=(0.1,),
                              r=0.05, n_samples=10,
                              perturbation_mode="random", seed=42)
        out = run_metastability(spec)
        cell = out["cells"][0]
        assert not cell["flags"]["blow_up"]
        assert not cell["flags"]["growth"]
        assert cell["sup_over_delta"] < 50.0

    def test_norm_growth_p4_reports_exponent(self):
        spec = ExperimentSpec(p=4, epsilons=(0.1,),
                              initial_mode="gaussian", amplitude=0.3,
                              s=2, L=32.0, M=512, dtau_kdv=5e-4,
                              tau_end=2.0, n_samples=20)
        out = run_norm_growth(spec)
        assert "growth_exponent" in out
        assert out["growth_exponent"] <= 1.0
        assert not out["resolution_flagged"]


class TestPersistence:
    def test_csv_roundtrip_and_format(self, tmp_path):
        rec = ErrorRecord(t=1.0, err_u=0.1, err_du=0.2, E=0.3,
                          res1_l2=0.4, res2_l2=0.5, H=0.6, coercivity_ok=True)
        path = tmp_path / "errors.csv"
        write_csv(str(path), [asdict(rec)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "err_u", "err_du", "E", "res1_l2", "res2_l2", "H",
                           "coercivity_ok"]
        assert rows[1][0] == "1"
        assert rows[1][-1] == "1"  # booleans as 0/1

    def test_csv_full_precision(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as short decimal
        path = tmp_path / "x.csv"
        write_csv(str(path), [{"v": value}])
        with open(path) as fh:
            text = list(csv.reader(fh))[1][0]
        assert float(text) == value

    def test_csv_deterministic_bytes(self, tmp_path):
        spec = ExperimentSpec(p=2, epsilons=(0.1,),
                              tau0=0.02, n_samples=2)
        payloads = []
        for name in ("a.csv", "b.csv"):
            out = run_error_scan(spec)
            path = tmp_path / name
            write_csv(str(path), map(asdict, out["cells"][0]["records"]))
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_summary_json(self, tmp_path):
        spec = ExperimentSpec()
        out = run_residual_scan(spec)
        path = tmp_path / "summary.json"
        settings = {"command": "residual-scan", "p": spec.p, "epsilons": spec.epsilons}
        write_summary_json(str(path), settings, list(out["fits"].values()),
                           out["flags"], wall_time_s=0.1)
        payload = json.loads(path.read_text())
        assert payload["spec"]["command"] == "residual-scan"
        assert len(payload["fits"]) == 3
        assert payload["wall_time_s"] == 0.1

    def test_summary_json_rejects_a_value_json_cannot_encode(self, tmp_path):
        # no summary holds one, so such a value is a bug: it raises, and is
        # not written as its string
        with pytest.raises(TypeError):
            write_summary_json(str(tmp_path / "summary.json"), {"p": object()}, [], {},
                               wall_time_s=0.1)


def _raising(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


class TestFailureClassification:
    """A blow-up is a numerical failure (flag, exit 2); any other error is a bug."""

    SCAN_ARGV = ["error-scan", "--eps", "0.2", "--tau0", "0.01", "--n-samples", "2"]
    META = ExperimentSpec(p=2, epsilons=(0.2,), n_samples=2)

    def test_error_scan_bug_propagates(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kdv, "kdv_integrate", _raising(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            main(self.SCAN_ARGV + ["--out-dir", str(tmp_path)])

    def test_error_scan_blowup_is_flagged(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kdv, "kdv_integrate", _raising(BlowUpError("guard")))
        assert main(self.SCAN_ARGV + ["--out-dir", str(tmp_path)]) == 2
        flags = json.loads((tmp_path / "error_scan_p2.json").read_text())["flags"]
        assert flags["0.2"]["blow_up"]

    def test_metastability_bug_propagates(self, monkeypatch):
        monkeypatch.setattr(fpu, "fpu_integrate", _raising(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            run_metastability(self.META)

    def test_metastability_blowup_is_flagged(self, monkeypatch):
        monkeypatch.setattr(fpu, "fpu_integrate", _raising(BlowUpError("guard")))
        assert run_metastability(self.META)["cells"][0]["flags"]["blow_up"]


class TestSharedKdvWindow:
    """The eps cells of one KdV window share one KdV run, in lockstep; a
    metastability window runs its cells in the same lockstep against W0."""

    SPEC = ExperimentSpec(p=2, epsilons=(0.2, 0.1), tau0=0.02, n_samples=3)
    # (runner, spec, the record's time): metastability cells start perturbed
    RUNS = (
        (run_error_scan, SPEC, lambda rec: rec.t),
        (run_metastability, replace(SPEC, perturbation_mode="random", seed=42),
         lambda rec: rec["t"]),
    )

    def test_cells_equal_single_epsilon_runs(self):
        for run, spec, _ in self.RUNS:
            shared = run(spec)["cells"]
            assert len(shared) == 2
            for cell in shared:
                alone = run(replace(spec, epsilons=(cell["epsilon"],)))["cells"][0]
                assert len(cell["records"]) == spec.n_samples + 1
                assert cell == alone  # records (floats bitwise), window, summaries, flags

    def test_one_kdv_run_per_window(self, monkeypatch):
        integrate = kdv.kdv_integrate
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(kdv, "kdv_integrate", counting)
        out = run_error_scan(self.SPEC)
        assert len(calls) == self.SPEC.n_samples
        assert [len(c["records"]) for c in out["cells"]] == [self.SPEC.n_samples + 1] * 2

    def test_lattice_blowup_ends_only_its_cell(self, monkeypatch):
        N_blown = round(self.SPEC.L / 0.1)
        integrate = fpu.fpu_integrate

        def blow_up_one_cell(state, cfg):
            if state.N == N_blown:
                raise BlowUpError("guard")
            return integrate(state, cfg)

        monkeypatch.setattr(fpu, "fpu_integrate", blow_up_one_cell)
        for run, spec, time_of in self.RUNS:
            good, blown = run(spec)["cells"]
            assert not good["flags"]["blow_up"]
            assert len(good["records"]) == spec.n_samples + 1
            assert good["records"] == run(replace(spec, epsilons=(0.2,)))["cells"][0]["records"]
            assert blown["flags"]["blow_up"] and "guard" in blown["flags"]["error"]
            assert [time_of(r) for r in blown["records"]] == [0.0]

    def test_kdv_blowup_flags_every_cell(self, monkeypatch):
        integrate = kdv.kdv_integrate
        calls = []

        def blow_up_second_interval(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BlowUpError("kdv guard")
            return integrate(*args, **kwargs)

        monkeypatch.setattr(kdv, "kdv_integrate", blow_up_second_interval)
        cells = run_error_scan(self.SPEC)["cells"]
        assert len(calls) == 2
        for cell in cells:
            assert cell["flags"]["blow_up"] and "kdv guard" in cell["flags"]["error"]
            assert len(cell["records"]) == 2  # samples 0 and 1, taken before the blow-up
