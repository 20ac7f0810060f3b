import math

import numpy as np
import pytest

from fpukdv import fpu as fpu_module
from fpukdv import kernels
from fpukdv.ansatz import build_p_epsilon
from fpukdv.core import (
    DT_LATTICE,
    BlowUpError,
    ConfigurationError,
    InvalidInputError,
    LatticeState,
    ModelParams,
    l2_norm,
)
from fpukdv.fpu import (
    FpuRunConfig,
    fpu_energy,
    fpu_integrate,
    traveling_wave_initializer,
)
from fpukdv.harness import fit_scaling_exponent

# Blanes & Moan (2002), S6: a1 b1 a2 b2 a3 b3 a4 b3 a3 b2 a2 b1 a1
_A = (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
_B = (0.209515106613362, -0.143851773179818)


def _s6_reference(u, q, eps2, p, dt, nsteps):
    """Reference: the S6 step in grid space, one transform pair per linear
    flow and no flows fused, the kick q += b dt (f - f(. - 1)), f = eps^2 u^p."""
    N = u.shape[0]
    kappa = 2.0 * np.pi * np.fft.rfftfreq(N)
    omega = 2.0 * np.sin(kappa / 2.0)
    alpha = np.exp(1j * kappa) - 1.0
    beta = np.exp(-1j * kappa) * alpha

    def linear(u, q, h):
        cos = np.cos(omega * h)
        sinc = np.where(omega == 0.0, h, np.sin(omega * h) / np.where(omega == 0.0, 1.0, omega))
        uh, qh = np.fft.rfft(u), np.fft.rfft(q)
        return (np.fft.irfft(cos * uh + sinc * alpha * qh, n=N),
                np.fft.irfft(cos * qh + sinc * beta * uh, n=N))

    a1, a2, a3 = _A
    b1, b2 = _B
    a = (a1, a2, a3, 1.0 - 2.0 * (a1 + a2 + a3), a3, a2, a1)
    b = (b1, b2, 0.5 - b1 - b2, 0.5 - b1 - b2, b2, b1)
    for _ in range(nsteps):
        for j in range(6):
            u, q = linear(u, q, a[j] * dt)
            f = eps2 * u**p
            q = q + b[j] * dt * (f - np.roll(f, 1))
        u, q = linear(u, q, a[6] * dt)
    return u, q


def _rhs(u, q, eps, p):
    """The reference right-hand side kernels.fpu_rhs as (du, dq)."""
    N = u.shape[0]
    dy = np.empty(2 * N)
    kernels.fpu_rhs(np.concatenate([u, q]), dy, eps**2, p, np.empty(N))
    return dy[:N], dy[N:]


def _params(eps=0.1, N=640, dt=DT_LATTICE, p=2):
    return ModelParams(p=p, epsilon=eps, L=N * eps, N=N, dt_lattice=dt)


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
        du, dq = _rhs(rng.standard_normal(64), rng.standard_normal(64), 0.1, 3)
        assert abs(np.sum(du)) < 1e-12
        assert abs(np.sum(dq)) < 1e-12

    def test_rhs_rotation_equivariance(self):
        rng = np.random.default_rng(4)
        u, q = rng.standard_normal(64), rng.standard_normal(64)
        du, dq = _rhs(u, q, 0.1, 2)
        du_r, dq_r = _rhs(np.roll(u, 5), np.roll(q, 5), 0.1, 2)
        assert np.max(np.abs(du_r - np.roll(du, 5))) < 1e-14
        assert np.max(np.abs(dq_r - np.roll(dq, 5))) < 1e-14

    def test_energy_is_conserved_quantity_of_rhs(self):
        # dH/dt along the flow vanishes: check <grad H, rhs> = 0 exactly
        rng = np.random.default_rng(9)
        u, q = 0.5 * rng.standard_normal(64), 0.5 * rng.standard_normal(64)
        eps, p = 0.2, 3
        du, dq = _rhs(u, q, eps, p)
        grad_u = u + eps**2 * u**p
        grad_q = q
        assert abs(np.dot(grad_u, du) + np.dot(grad_q, dq)) < 1e-12


class TestIntegrators:
    def test_rk4_self_convergence_order(self):
        # the RK4 reference kernel is fourth order
        rng = np.random.default_rng(6)
        u0 = 0.3 * rng.standard_normal(64)
        q0 = 0.3 * rng.standard_normal(64)
        t_end = 4.0
        sols = []
        for dt in (0.2, 0.1, 0.05):
            u, q = u0.copy(), q0.copy()
            kernels.fpu_rk4(u, q, 0.01, 2, dt, round(t_end / dt))
            sols.append(np.concatenate([u, q]))
        e1 = np.max(np.abs(sols[0] - sols[2]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        # Richardson proxy order: e1/e2 ~ 2^4 + correction; demand >= 3.5
        assert math.log2(e1 / e2) > 3.5

    def test_splitting_self_convergence_order(self):
        # S6 is fourth order: halving dt cuts the difference between
        # successive solutions ~16x, so log2(e1/e2) ~ 4
        rng = np.random.default_rng(6)
        u0 = 0.3 * rng.standard_normal(64)
        q0 = 0.3 * rng.standard_normal(64)
        sols = []
        for dt in (0.2, 0.1, 0.05):
            params = ModelParams(p=2, epsilon=0.1, L=6.4, N=64, dt_lattice=dt)
            out = fpu_integrate(LatticeState(u=u0, q=q0, t=0.0), FpuRunConfig(params=params, t_end=4.0))
            sols.append(np.concatenate([out.u, out.q]))
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert math.log2(e1 / e2) > 3.5

    @pytest.mark.parametrize("p", [2, 3])
    def test_default_step_beats_rk4_at_old_step(self, p):
        # oracle: RK4 at dt = 0.0125 on the travelling-wave data (eps = 0.1,
        # N = 640, T = 200); the splitting at the default step must be no
        # further from it than RK4 at the old default 0.05 (bound fixed beforehand)
        state, _ = traveling_wave_initializer(p, 1.0, 0.1, 64.0, 1024, 640)
        T = 200.0

        def rk4(dt):
            u, q = state.u.copy(), state.q.copy()
            kernels.fpu_rk4(u, q, 0.01, p, dt, round(T / dt))
            return u

        ref = rk4(0.0125)
        out = fpu_integrate(state, FpuRunConfig(params=_params(p=p), t_end=T))
        assert l2_norm(out.u - ref) <= l2_norm(rk4(0.05) - ref)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("nsteps", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("N", [3, 64, 640])
    def test_splitting_matches_unfused_reference(self, N, nsteps, p):
        # the Fourier-space stepper with fused a1 flows against the grid-space
        # S6 loop: same scheme, so they differ by round-off (bound fixed beforehand)
        rng = np.random.default_rng(N + 10 * nsteps + p)
        u0 = 0.3 * rng.standard_normal(N)
        q0 = 0.3 * rng.standard_normal(N)
        stepper = fpu_module._S6Stepper(N, DT_LATTICE, 0.01, p)
        u, q, status = stepper.steps(u0.copy(), q0.copy(), nsteps)
        u_ref, q_ref = _s6_reference(u0, q0, 0.01, p, DT_LATTICE, nsteps)
        assert status == 0
        scale = max(np.max(np.abs(u_ref)), np.max(np.abs(q_ref)))
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * scale
        assert np.max(np.abs(q - q_ref)) <= 1e-12 * scale

    def test_splitting_matches_rk4(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        u, q = state.u.copy(), state.q.copy()
        kernels.fpu_rk4(u, q, 0.01, 2, 0.05, 200)
        out = fpu_integrate(state, FpuRunConfig(params=_params(), t_end=10.0))
        assert l2_norm(out.u - u) / l2_norm(u) < 1e-5

    def test_splitting_energy_drift_tiny(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        H0 = fpu_energy(state, 0.1, 2)
        out = fpu_integrate(state, FpuRunConfig(params=_params(), t_end=100.0))
        assert abs(fpu_energy(out, 0.1, 2) - H0) / abs(H0) < 1e-9

    def test_observer_sees_initial_and_sampled_states(self):
        state, _ = traveling_wave_initializer(2, 1.0, 0.1, 64.0, 1024, 640)
        params = _params(dt=0.05)
        seen = []
        cfg = FpuRunConfig(params=params, t_end=1.0, sample_stride=5)
        fpu_integrate(state, cfg, observer=seen.append)
        assert [s.t for s in seen] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_observer_free_run_ignores_stride(self):
        # without an observer the whole run is one chunk, whatever the stride
        state, _ = traveling_wave_initializer(3, 1.0, 0.1, 64.0, 1024, 640)
        params = _params(p=3)
        n_total = 40
        a, b = (fpu_integrate(state, FpuRunConfig(params=params, t_end=n_total * DT_LATTICE,
                                                  sample_stride=stride))
                for stride in (1, n_total))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.q, b.q)
        assert a.t == b.t

    def test_blowup_raises(self, monkeypatch):
        monkeypatch.setattr(fpu_module, "BLOWUP_GUARD", 1.0e-3)
        rng = np.random.default_rng(8)
        state = LatticeState(u=rng.standard_normal(32), q=rng.standard_normal(32), t=0.0)
        params = ModelParams(p=2, epsilon=0.1, L=3.2, N=32, dt_lattice=0.05)
        with pytest.raises(BlowUpError):
            fpu_integrate(state, FpuRunConfig(params=params, t_end=5.0))

    def test_splitting_guard_trips_on_nan(self, monkeypatch):
        # max|u| > guard is False for NaN; the guard must still stop the run,
        # at the first kick, before any u^p is formed
        powers = []
        monkeypatch.setattr(kernels, "int_power", lambda *args: powers.append(args))
        stepper = fpu_module._S6Stepper(32, DT_LATTICE, 0.01, 2)
        _, _, status = stepper.steps(np.full(32, np.nan), np.zeros(32), 3)
        assert status == 1
        assert powers == []

    def test_splitting_guard_checks_the_result(self, monkeypatch):
        # u starts at 0 and a unit momentum spike lifts max|u| to ~0.4 within
        # one step of 0.5, but only to ~0.04 before its first kick: the check
        # on the result is what trips
        monkeypatch.setattr(fpu_module, "BLOWUP_GUARD", 0.2)
        q0 = np.zeros(32)
        q0[0] = 1.0
        stepper = fpu_module._S6Stepper(32, DT_LATTICE, 0.01, 2)
        u, _, status = stepper.steps(np.zeros(32), q0, 1)
        assert status == 1
        assert np.max(np.abs(u)) > 0.2

    def test_state_must_match_params(self):
        # a 64-site state under N = 640: the N eps = L wrap check in
        # ModelParams is only worth something if the run enforces it
        rng = np.random.default_rng(3)
        state = LatticeState(u=rng.standard_normal(64), q=rng.standard_normal(64), t=0.0)
        with pytest.raises(ConfigurationError, match="64 sites"):
            fpu_integrate(state, FpuRunConfig(params=_params(N=640), t_end=1.0))

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
        params = ModelParams(p=2, epsilon=1e-8, L=N * 1e-8, N=N, dt_lattice=dt)
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
        # lattice wave speed is 1 + c eps^2 + O(eps^4) in physical time:
        # track the peak of u over a run and fit the drift speed
        eps, c = 0.1, 1.0
        N = 640
        state, W0 = traveling_wave_initializer(2, c, eps, 64.0, 1024, N)
        params = _params(eps=eps, N=N)
        t_end = 100.0
        out = fpu_integrate(state, FpuRunConfig(params=params, t_end=t_end))
        # locate the peak with sub-site resolution via quadratic interpolation
        def peak(u):
            i = int(np.argmax(u))
            ym, y0, yp = u[i - 1], u[i], u[(i + 1) % len(u)]
            return i + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp)

        drift = (peak(out.u) - peak(state.u)) % N
        speed = drift / t_end
        assert abs((speed - 1.0) / eps**2 - c) <= 0.1