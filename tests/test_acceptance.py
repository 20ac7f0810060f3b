"""Acceptance gate: the ten headline quantitative claims, one test each.

Each test records a single PASS/FAIL line with the measured numbers (echoed
in the terminal summary via the hook in conftest.py) and asserts the stated
tolerance.  Shared sweeps are computed once in module-scoped fixtures.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from fpukdv.core import FieldProfile, ModelParams
from fpukdv.fpu import FpuRunConfig, fpu_energy, fpu_integrate
from fpukdv.harness import (
    ExperimentSpec,
    run_error_scan,
    run_metastability,
    run_norm_growth,
    run_residual_scan,
)
from fpukdv.kdv import (
    KdvRunConfig,
    SolitonSpec,
    kdv_integrate,
    kdv_invariants,
    soliton_profile,
    steady_residual,
)

from support import grid_l2_norm, pairwise_exponent, soliton_lattice_data, translate


ACCEPTANCE_LINES: list[str] = []


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {num:2d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def residual_scan():
    spec = ExperimentSpec(p=2, c=1.0, L=64.0, M=1024,
                          epsilons=(0.2, 0.1, 0.05))
    return run_residual_scan(spec)


@pytest.fixture(scope="module")
def kdv_time_scan():
    # fixed KdV-time window tau0 = 1, unperturbed ansatz data
    spec = ExperimentSpec(p=2, c=1.0, L=64.0, M=1024,
                          epsilons=(0.2, 0.1, 0.05), tau0=1.0, n_samples=50)
    return run_error_scan(spec)


@pytest.fixture(scope="module")
def theorem1_scan():
    spec = ExperimentSpec(p=2, c=1.0, L=64.0, M=1024,
                          epsilons=(0.1, 0.05), r=0.1, K=1.0, n_samples=50)
    return run_error_scan(spec)


@pytest.fixture(scope="module")
def p3_scan():
    spec = ExperimentSpec(p=3, c=1.0, L=64.0, M=2048,
                          epsilons=(0.1, 0.05), tau0=1.0, n_samples=25)
    return run_error_scan(spec)


def test_01_residual_order(residual_scan):
    s1 = residual_scan["fits"]["res1"].slope
    s2 = residual_scan["fits"]["res2"].slope
    ok = abs(s1 - 4.5) <= 0.3 and abs(s2 - 4.5) <= 0.3
    _report(1, "residual l2 order 4.5 +/- 0.3", ok,
            f"res1 slope={s1:.3f}, res2 slope={s2:.3f}")
    assert ok


def test_02_truncation_defect_order(residual_scan):
    s = residual_scan["fits"]["truncation"].slope
    ok = abs(s - 5.0) <= 0.3
    _report(2, "truncation defect sup order 5.0 +/- 0.3", ok, f"slope={s:.3f}")
    assert ok


def test_03_kdv_time_error_order(kdv_time_scan):
    s = kdv_time_scan["fits"]["sup_error"].slope
    ok = abs(s - 1.5) <= 0.2
    _report(3, "sup error order 1.5 +/- 0.2 on tau0=1 window", ok, f"slope={s:.3f}")
    assert ok
    assert not any(c["flags"]["blow_up"] for c in kdv_time_scan["cells"])


def test_04_extended_window_order(theorem1_scan):
    pts = theorem1_scan["points"]
    expo = pairwise_exponent(pts[0], pts[1])
    ok = expo >= 1.2
    _report(4, "extended-window pairwise exponent >= 1.2 (r=0.1)", ok,
            f"exponent={expo:.3f}")
    assert ok
    assert not any(c["flags"]["blow_up"] for c in theorem1_scan["cells"])


def test_05_coercivity(kdv_time_scan, theorem1_scan, p3_scan):
    violations = sum(c["coercivity_violations"]
                     for scan in (kdv_time_scan, theorem1_scan, p3_scan)
                     for c in scan["cells"])
    n_samples = sum(len(c["records"])
                    for scan in (kdv_time_scan, theorem1_scan, p3_scan)
                    for c in scan["cells"])
    ok = violations == 0
    _report(5, "coercivity (4E even p, 2E odd p) zero violations", ok,
            f"{violations} violations over {n_samples} sampled times, incl. p=3")
    assert ok


def test_06_conservation():
    # FPU: 1e5 steps of the order-4 symplectic splitting at dt = 0.05 (the
    # splitting keeps the drift orders of magnitude under RK4's truncation drift)
    eps = 0.1
    state, _ = soliton_lattice_data(2, 1.0, eps)
    params = ModelParams(p=2, epsilon=eps, dt_lattice=0.05)
    H0 = fpu_energy(state, eps, 2)
    out = fpu_integrate(state, FpuRunConfig(params=params, t_end=5000.0))
    fpu_drift = abs(fpu_energy(out, eps, 2) - H0) / abs(H0)

    # KdV: 1e3 steps
    W0 = soliton_profile(SolitonSpec(p=2, c=1.0, center=32.0), 64.0, 1024)
    m0, p0, e0 = kdv_invariants(W0, 2)
    W = kdv_integrate(W0, KdvRunConfig(p=2, L=64.0, M=1024, dtau=5e-4), 1000)
    m1, p1, e1 = kdv_invariants(W, 2)
    dm, dp, de = abs(m1 - m0), abs(p1 - p0), abs(e1 - e0)

    ok = fpu_drift <= 1e-8 and dm <= 1e-10 and dp <= 1e-10 and de <= 1e-8
    _report(6, "conservation (FPU 1e5 steps, KdV 1e3 steps)", ok,
            f"H drift={fpu_drift:.2e}, mass={dm:.2e}, momentum={dp:.2e}, energy={de:.2e}")
    assert ok


def test_07_soliton_oracle():
    L = 24.0
    worst_res = 0.0
    worst_shape = 0.0
    for p in (2, 3, 4, 5):
        for c in (0.5, 1.0, 2.0):
            spec = SolitonSpec(p=p, c=c, center=L / 2.0)
            b = spec.width
            M = 256
            while M < L * 19.1 * b / math.pi:
                M *= 2
            W0 = soliton_profile(spec, L, M)
            worst_res = max(worst_res, float(np.max(np.abs(steady_residual(W0, p, c)))))
            # nonlinear-advection step heuristic keeps the shape error <= 1e-6
            lam = (p / 2.0) * c * (p + 1) * 1.5 * b
            dtau = 0.032 / lam
            n = int(math.ceil(1.0 / dtau))
            dtau = 1.0 / n
            W1 = kdv_integrate(W0, KdvRunConfig(p=p, L=L, M=M, dtau=dtau), n)
            ref = translate(W0, -c * 1.0)
            shape = grid_l2_norm(FieldProfile.from_values(W1.values - ref.values, L))
            worst_shape = max(worst_shape, shape)
    ok = worst_res <= 1e-8 and worst_shape <= 1e-6
    _report(7, "soliton oracle over (p, c) in {2,3,4,5}x{0.5,1,2}", ok,
            f"max steady residual={worst_res:.2e}, max shape error at tau=1={worst_shape:.2e}")
    assert ok


def test_08_metastability():
    ratios = {}
    ok = True
    for eps in (0.1, 0.05):
        spec = ExperimentSpec(p=2, c=1.0, L=64.0, M=1024,
                              epsilons=(eps,), r=0.1, K=1.0, n_samples=50,
                              perturbation_mode="random", seed=42)
        out = run_metastability(spec)
        cell = out["cells"][0]
        ok = ok and not cell["flags"]["blow_up"] and math.isfinite(cell["sup_over_delta"])
        ratios[eps] = cell["sup_over_delta"]
    agree = max(ratios.values()) / min(ratios.values())
    ok = ok and agree <= 2.0
    _report(8, "metastability sup(distance)/delta finite, eps-stable within 2x", ok,
            f"eps=0.1: {ratios[0.1]:.3f}, eps=0.05: {ratios[0.05]:.3f}, ratio={agree:.3f}")
    assert ok


def test_09_norm_growth():
    # p = 2: soliton H^6 norm constant to 1e-4 relative over tau in [0, 5]
    spec2 = ExperimentSpec(p=2, c=1.0, L=32.0, M=2048,
                           s=6, dtau_kdv=2e-4, tau_end=5.0, n_samples=25)
    out2 = run_norm_growth(spec2)
    norms = [s.Hs_norm for s in out2["samples"]]
    variation = (max(norms) - min(norms)) / norms[0]

    # p = 4 small data: fitted H^2 growth exponent <= s - 1 = 1
    spec4 = ExperimentSpec(p=4, epsilons=(0.1,),
                           initial_mode="gaussian", amplitude=0.3,
                           s=2, L=32.0, M=512, dtau_kdv=5e-4,
                           tau_end=5.0, n_samples=50)
    out4 = run_norm_growth(spec4)
    expo = out4["growth_exponent"]

    ok = variation <= 1e-4 and expo <= 1.0 and not out2["resolution_flagged"]
    _report(9, "H^s growth: p=2 flat to 1e-4, p=4 exponent <= 1", ok,
            f"p=2 variation={variation:.2e}, p=4 exponent={expo:.3f}")
    assert ok


def test_10_determinism(theorem1_scan, tmp_path):
    # re-run the eps = 0.1 extended-window cell and byte-compare its CSV
    spec = ExperimentSpec(p=2, c=1.0, L=64.0, M=1024,
                          epsilons=(0.1,), r=0.1, K=1.0, n_samples=50)
    rerun = run_error_scan(spec)

    def csv_bytes(records, name):
        from fpukdv.harness import write_csv
        path = tmp_path / name
        write_csv(str(path), map(asdict, records))
        return path.read_bytes()

    first = csv_bytes(theorem1_scan["cells"][0]["records"], "a.csv")
    second = csv_bytes(rerun["cells"][0]["records"], "b.csv")
    ok = first == second
    _report(10, "byte-identical CSV on repeat of the extended-window run", ok,
            f"{len(first)} bytes compared")
    assert ok
