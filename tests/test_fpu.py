import math

import numpy as np
import pytest
from scipy.linalg import expm

from fpukdv import fpu as fpu_module
from fpukdv import kernels
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
    lattice_samples,
)
from fpukdv.harness import fit_scaling_exponent
from fpukdv.kdv import nonlinear_fields

from support import soliton_lattice_data

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
    return kernels.fpu_rhs(u, q, eps**2, p)


def _params(eps=0.1, dt=0.5, p=2):
    return ModelParams(p=p, epsilon=eps, dt_lattice=dt)


class TestRhsAndEnergy:
    def test_energy_single_excited_site(self):
        # u = e_0, q = 0, p = 2, eps = 0.1:
        # H = 1/2 (1 + 2*0.01/3) = 0.50333...
        u = np.zeros(16)
        u[0] = 1.0
        state = LatticeState(u=u, q=np.zeros(16))
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
            out = fpu_integrate(LatticeState(u=u0, q=q0),
                                FpuRunConfig(params=_params(dt=dt), t_end=4.0))
            sols.append(np.concatenate([out.u, out.q]))
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        assert math.log2(e1 / e2) > 3.5

    @pytest.mark.parametrize("p", [2, 3])
    def test_default_step_beats_rk4_at_old_step(self, p):
        # oracle: RK4 at dt = 0.0125 on the travelling-wave data (eps = 0.1,
        # N = 640, T = 200); the splitting at dt = 0.5, the rule's step for p = 3,
        # must be no further from it than RK4 at its old default 0.05 (bound
        # fixed beforehand)
        state, _ = soliton_lattice_data(p, 1.0, 0.1)
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
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 640])
    def test_splitting_matches_unfused_reference(self, N, nsteps, p):
        # the Fourier-space stepper with fused a1 flows against the grid-space
        # S6 loop: same scheme, so they differ by round-off (bound fixed beforehand)
        rng = np.random.default_rng(N + 10 * nsteps + p)
        u0 = 0.3 * rng.standard_normal(N)
        q0 = 0.3 * rng.standard_normal(N)
        stepper = fpu_module._S6Stepper(N, 0.5, 0.01, p)
        u, q = stepper.steps(u0.copy(), q0.copy(), nsteps)
        u_ref, q_ref = _s6_reference(u0, q0, 0.01, p, 0.5, nsteps)
        scale = max(np.max(np.abs(u_ref)), np.max(np.abs(q_ref)))
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * scale
        assert np.max(np.abs(q - q_ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("nsteps", [1, 7])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 320])
    def test_linear_flow_matches_matrix_exponential(self, N, nsteps):
        # with eps^2 = 0 the kicks vanish and nsteps steps are the exact flow of
        # u' = q(. + 1) - q, q' = u - u(. - 1): expm of the grid operator, no
        # Fourier transform involved; pins every mode's turn, the zero mode,
        # Nyquist and odd N included (bound fixed beforehand)
        eye = np.eye(N)
        zero = np.zeros((N, N))
        A = np.block([[zero, np.roll(eye, 1, axis=1) - eye],
                      [eye - np.roll(eye, -1, axis=1), zero]])
        rng = np.random.default_rng(N + 10 * nsteps)
        u0, q0 = rng.standard_normal(N), rng.standard_normal(N)
        exact = expm(0.5 * nsteps * A) @ np.concatenate([u0, q0])
        u, q = fpu_module._S6Stepper(N, 0.5, 0.0, 2).steps(u0.copy(), q0.copy(), nsteps)
        assert np.max(np.abs(np.concatenate([u, q]) - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_splitting_matches_rk4(self):
        state, _ = soliton_lattice_data(2, 1.0, 0.1)
        u, q = state.u.copy(), state.q.copy()
        kernels.fpu_rk4(u, q, 0.01, 2, 0.05, 200)
        out = fpu_integrate(state, FpuRunConfig(params=_params(), t_end=10.0))
        assert l2_norm(out.u - u) / l2_norm(u) < 1e-5

    def test_splitting_energy_drift_tiny(self):
        state, _ = soliton_lattice_data(2, 1.0, 0.1)
        H0 = fpu_energy(state, 0.1, 2)
        out = fpu_integrate(state, FpuRunConfig(params=_params(), t_end=100.0))
        assert abs(fpu_energy(out, 0.1, 2) - H0) / abs(H0) < 1e-9

    def test_blowup_raises(self, monkeypatch):
        monkeypatch.setattr(fpu_module, "BLOWUP_GUARD", 1.0e-3)
        rng = np.random.default_rng(8)
        state = LatticeState(u=rng.standard_normal(32), q=rng.standard_normal(32))
        with pytest.raises(BlowUpError):
            fpu_integrate(state, FpuRunConfig(params=_params(dt=0.05), t_end=5.0))

    def test_splitting_guard_trips_on_nan(self, monkeypatch):
        # max|u| > guard is False for NaN; the guard must still stop the run,
        # at the first kick, before any u^p is formed
        powers = []
        monkeypatch.setattr(fpu_module, "int_power", lambda *args: powers.append(args))
        stepper = fpu_module._S6Stepper(32, 0.5, 0.01, 2)
        with pytest.raises(BlowUpError):
            stepper.steps(np.full(32, np.nan), np.zeros(32), 3)
        assert powers == []

    def test_splitting_guard_checks_the_result(self, monkeypatch):
        # u starts at 0 and a unit momentum spike lifts max|u| to ~0.4 within
        # one step of 0.5, but only to ~0.04 before its first kick: the check
        # on the result is what trips, after all six kicks of the step
        monkeypatch.setattr(fpu_module, "BLOWUP_GUARD", 0.2)
        powers = []
        int_power = fpu_module.int_power
        monkeypatch.setattr(fpu_module, "int_power",
                            lambda *args: powers.append(None) or int_power(*args))
        q0 = np.zeros(32)
        q0[0] = 1.0
        stepper = fpu_module._S6Stepper(32, 0.5, 0.01, 2)
        with pytest.raises(BlowUpError):
            stepper.steps(np.zeros(32), q0, 1)
        assert len(powers) == 6

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -0.5])
    def test_t_end_must_be_finite_and_nonnegative(self, t_end):
        # round() of inf or nan raised OverflowError or ValueError in fpu_integrate
        with pytest.raises(InvalidInputError, match="t_end must be in"):
            FpuRunConfig(params=_params(), t_end=t_end)

    def test_t_end_is_required(self):
        with pytest.raises(TypeError):
            FpuRunConfig(params=_params())

    def test_t_end_must_be_step_multiple(self):
        params = _params()
        state, _ = soliton_lattice_data(2, 1.0, 0.1)
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
        params = ModelParams(p=2, epsilon=1e-8, dt_lattice=dt)
        out = fpu_integrate(LatticeState(u=u0, q=q0),
                            FpuRunConfig(params=params, t_end=T))
        assert np.max(np.abs(out.u - u0)) < 1e-13


class TestLatticeSamples:
    PARAMS = ModelParams(p=2, epsilon=0.1, dt_lattice=0.5)

    @staticmethod
    def _state():
        rng = np.random.default_rng(5)
        return LatticeState(u=0.3 * rng.standard_normal(64), q=0.3 * rng.standard_normal(64))

    def test_times_are_uniform(self):
        # 10/3 is not a multiple of dt_lattice = 0.5: each interval is 7 steps of 10/21
        times = [t for t, _ in lattice_samples(self._state(), self.PARAMS, 10.0, 3)]
        assert times == [0.0, 10 / 3, 20 / 3, 10.0]

    def test_sampling_only_splits_the_run(self):
        # the last sample is the state one fpu_integrate call over the whole
        # window reaches at the same step, up to round-off
        *_, (_, last) = lattice_samples(self._state(), self.PARAMS, 10.0, 3)
        cfg = FpuRunConfig(params=_params(dt=10.0 / 21), t_end=10.0)
        whole = fpu_integrate(self._state(), cfg)
        scale = max(np.max(np.abs(whole.u)), np.max(np.abs(whole.q)))
        assert np.max(np.abs(last.u - whole.u)) <= 1e-12 * scale
        assert np.max(np.abs(last.q - whole.q)) <= 1e-12 * scale

    @pytest.mark.parametrize("t_end,n_samples", [(10.0, 0), (0.0, 3)])
    def test_needs_a_sample_and_a_window(self, t_end, n_samples):
        with pytest.raises(InvalidInputError):
            next(lattice_samples(self._state(), self.PARAMS, t_end, n_samples))

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_needs_a_finite_window(self, t_end):
        # math.ceil of an infinite step count raised OverflowError
        with pytest.raises(InvalidInputError, match="0 < t_end < inf"):
            next(lattice_samples(self._state(), self.PARAMS, t_end, 2))


class TestTravelingWaveInitializer:
    """The sampled soliton ansatz, the lattice's leading-order travelling
    wave (O(eps^(3/2)) accurate)."""

    def test_energy_scales_like_inverse_epsilon(self):
        # u_n ~ W(eps n) is O(1), so H ~ (1/2) eps^-1 int (W^2 + P^2)
        pts = []
        # the eps^2 correction terms in P bias the fit at coarse eps
        for eps in (0.1, 0.05, 0.025):
            state, W0 = soliton_lattice_data(2, 1.0, eps)
            pts.append((eps, fpu_energy(state, eps, 2)))
        fit = fit_scaling_exponent(pts)
        assert fit.slope == pytest.approx(-1.0, abs=0.05)

    def test_energy_matches_quadrature_oracle(self):
        eps = 0.05
        state, W0 = soliton_lattice_data(2, 1.0, eps)
        P = build_p_epsilon(W0, nonlinear_fields(W0, 2).N, eps)
        dx = 64.0 / 1024
        integral = 0.5 * dx * np.sum(W0.values**2 + P.values**2)
        assert fpu_energy(state, eps, 2) == pytest.approx(integral / eps, rel=0.01)

    def test_front_speed_slightly_supersonic(self):
        # lattice wave speed is 1 + c eps^2 + O(eps^4) in physical time:
        # track the peak of u over a run and fit the drift speed
        eps, c = 0.1, 1.0
        N = 640
        state, W0 = soliton_lattice_data(2, c, eps)
        params = _params(eps=eps)
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