import math

import numpy as np
import pytest

from fpukdv import fpu as fpu_module
from fpukdv.ansatz import build_p_epsilon
from fpukdv.core import (
    BlowUpError,
    InvalidInputError,
    LatticeState,
    ModelParams,
    l2_norm,
)
from fpukdv.fpu import (
    FpuRunConfig,
    fpu_energy,
    fpu_integrate,
    fpu_rhs,
    traveling_wave_initializer,
)
from fpukdv.harness import fit_scaling_exponent


def _params(eps=0.1, N=640, dt=0.05, p=2):
    return ModelParams(p=p, epsilon=eps, s=6, L=N * eps, N=N, dt_lattice=dt)


class TestRhsAndEnergy:
    def test_energy_single_excited_site(self):
        # u = e_0, q = 0, p = 2, eps = 0.1:
        # H = 1/2 (1 + 2*0.01/3) = 0.50333...
        u = np.zeros(16)
        u[0] = 1.0
        state = LatticeState(u=u, q=np.zeros(16), t=0.0)
        assert fpu_energy(state, 0.1, 2) == pytest.approx(0.5 * (1.0 + 2.0 * 0.01 / 3.0))

    def test_rhs_telescopes(self):
        # both components sum to zero over the periodic lattice
        rng = np.random.default_rng(2)
        state = LatticeState(u=rng.standard_normal(64), q=rng.standard_normal(64), t=0.0)
        du, dq = fpu_rhs(state, 0.1, 3)
        assert abs(np.sum(du)) < 1e-12
        assert abs(np.sum(dq)) < 1e-12

    def test_rhs_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        u, q = rng.standard_normal(64), rng.standard_normal(64)
        du, dq = fpu_rhs(LatticeState(u=u, q=q, t=0.0), 0.1, 2)
        du_r, dq_r = fpu_rhs(LatticeState(u=np.roll(u, 5), q=np.roll(q, 5), t=0.0), 0.1, 2)
        assert np.max(np.abs(du_r - np.roll(du, 5))) < 1e-14
        assert np.max(np.abs(dq_r - np.roll(dq, 5))) < 1e-14

    def test_energy_is_conserved_quantity_of_rhs(self):
        # dH/dt along the flow vanishes: check <grad H, rhs> = 0 exactly
        rng = np.random.default_rng(9)
        u, q = 0.5 * rng.standard_normal(64), 0.5 * rng.standard_normal(64)
        eps, p = 0.2, 3
        du, dq = fpu_rhs(LatticeState(u=u, q=q, t=0.0), eps, p)
        grad_u = u + eps**2 * u**p
        grad_q = q
        assert abs(np.dot(grad_u, du) + np.dot(grad_q, dq)) < 1e-12


class TestIntegrators:
    def test_rk4_self_convergence_order(self):
        rng = np.random.default_rng(6)
        u0 = 0.3 * rng.standard_normal(64)
        q0 = 0.3 * rng.standard_normal(64)
        t_end = 4.0
        sols = []
        for dt in (0.2, 0.1, 0.05):
            params = ModelParams(p=2, epsilon=0.1, s=6, L=6.4, N=64, dt_lattice=dt)
            cfg = FpuRunConfig(params=params, t_end=t_end)
            out = fpu_integrate(LatticeState(u=u0, q=q0, t=0.0), cfg)
            sols.append(np.concatenate([out.u, out.q]))
        e1 = np.max(np.abs(sols[0] - sols[2]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        # Richardson proxy order: e1/e2 ~ 2^4 + correction; demand >= 3.5
        assert math.log2(e1 / e2) > 3.5

    def test_splitting_self_convergence_order(self):
        # Strang is second order: halving dt cuts the difference between
        # successive solutions ~4x, so log2(e1/e2) ~ 2
        rng = np.random.default_rng(6)
        u0 = 0.3 * rng.standard_normal(64)
        q0 = 0.3 * rng.standard_normal(64)
        sols = []
        for dt in (0.2, 0.1, 0.05):
            params = ModelParams(p=2, epsilon=0.1, s=6, L=6.4, N=64, dt_lattice=dt)
            cfg = FpuRunConfig(params=params, t_end=4.0, integrator="splitting")
            out = fpu_integrate(LatticeState(u=u0, q=q0, t=0.0), cfg)
            sols.append(np.concatenate([out.u, out.q]))
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert math.log2(e1 / e2) > 1.8

    def test_splitting_matches_rk4(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        params = _params()
        a = fpu_integrate(state, FpuRunConfig(params=params, t_end=10.0, integrator="rk4"))
        b = fpu_integrate(state, FpuRunConfig(params=params, t_end=10.0, integrator="splitting"))
        assert l2_norm(a.u - b.u) / l2_norm(a.u) < 1e-5

    def test_splitting_energy_drift_tiny(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        params = _params()
        H0 = fpu_energy(state, 0.1, 2)
        out = fpu_integrate(state, FpuRunConfig(params=params, t_end=100.0, integrator="splitting"))
        assert abs(fpu_energy(out, 0.1, 2) - H0) / abs(H0) < 1e-9

    def test_observer_sees_initial_and_sampled_states(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        params = _params()
        seen = []
        cfg = FpuRunConfig(params=params, t_end=1.0, sample_stride=5)
        fpu_integrate(state, cfg, observer=seen.append)
        assert [s.t for s in seen] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_blowup_raises(self, monkeypatch):
        monkeypatch.setattr(fpu_module, "BLOWUP_GUARD", 1.0e-3)
        rng = np.random.default_rng(8)
        state = LatticeState(u=rng.standard_normal(32), q=rng.standard_normal(32), t=0.0)
        params = ModelParams(p=2, epsilon=0.1, s=6, L=3.2, N=32, dt_lattice=0.05)
        with pytest.raises(BlowUpError):
            fpu_integrate(state, FpuRunConfig(params=params, t_end=5.0, integrator="splitting"))

    def test_splitting_guard_trips_on_nan(self):
        # max|u| > guard is False for NaN; the guard must still stop the run
        stepper = fpu_module._SplittingStepper(32, 0.05)
        _, _, status = stepper.steps(np.full(32, np.nan), np.zeros(32), 0.01, 2, 3)
        assert status == 1

    def test_dt_cap_enforced(self):
        params = ModelParams(p=2, epsilon=0.1, s=6, L=6.4, N=64, dt_lattice=0.3)
        with pytest.raises(InvalidInputError):
            FpuRunConfig(params=params, t_end=1.0)

    def test_t_end_must_be_step_multiple(self):
        params = _params()
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        with pytest.raises(InvalidInputError):
            fpu_integrate(state, FpuRunConfig(params=params, t_end=0.07))

    def test_eps_zero_limit_dispersion(self):
        # for tiny eps the chain is essentially linear: a single Fourier mode
        # returns to itself after one period T = 2 pi / (2 sin(kappa/2))
        N = 64
        kappa = 2.0 * np.pi * 3 / N
        omega = 2.0 * np.sin(kappa / 2.0)
        n = np.arange(N)
        u0 = 1e-6 * np.cos(kappa * n)
        q0 = 1e-6 * np.sin(kappa * n - kappa / 2.0)
        T = 2.0 * np.pi / omega
        dt = T / 2000
        params = ModelParams(p=2, epsilon=1e-8, s=6, L=N * 1e-8, N=N, dt_lattice=dt)
        out = fpu_integrate(LatticeState(u=u0, q=q0, t=0.0),
                            FpuRunConfig(params=params, t_end=T))
        assert np.max(np.abs(out.u - u0)) < 1e-13


class TestTravelingWaveInitializer:
    def test_energy_scales_like_inverse_epsilon(self):
        # u_n ~ W(eps n) is O(1), so H ~ (1/2) eps^-1 int (W^2 + P^2)
        pts = []
        # the eps^2 correction terms in P bias the fit at coarse eps
        for eps in (0.1, 0.05, 0.025):
            N = round(64.0 / eps)
            state, W0 = traveling_wave_initializer(2, 1.0, eps, 64.0, 1024, N)
            pts.append((eps, fpu_energy(state, eps, 2)))
        fit = fit_scaling_exponent(pts)
        assert fit.slope == pytest.approx(-1.0, abs=0.05)

    def test_energy_matches_quadrature_oracle(self):
        eps = 0.05
        N = round(64.0 / eps)
        state, W0 = traveling_wave_initializer(2, 1.0, eps, 64.0, 1024, N)
        P = build_p_epsilon(W0, eps, 2)
        dx = 64.0 / 1024
        integral = 0.5 * dx * np.sum(W0.values**2 + P.values**2)
        assert fpu_energy(state, eps, 2) == pytest.approx(integral / eps, rel=0.01)

    def test_front_speed_slightly_supersonic(self):
        # lattice wave speed is 1 + 2 eps^2 c + O(eps^4) in physical time:
        # track the peak of u over a run and fit the drift speed
        eps, c = 0.1, 1.0
        N = 640
        state, W0 = traveling_wave_initializer(2, c, eps, 64.0, 1024, N)
        params = _params(eps=eps, N=N)
        t_end = 100.0
        out = fpu_integrate(state, FpuRunConfig(params=params, t_end=t_end,
                                                integrator="splitting"))
        # locate the peak with sub-site resolution via quadratic interpolation
        def peak(u):
            i = int(np.argmax(u))
            ym, y0, yp = u[i - 1], u[i], u[(i + 1) % len(u)]
            return i + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp)

        drift = (peak(out.u) - peak(state.u)) % N
        speed = drift / t_end
        assert 1.0 < speed < 1.0 + 10.0 * eps**2