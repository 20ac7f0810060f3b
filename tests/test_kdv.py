import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fpukdv.core import (
    BlowUpError,
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
)
from fpukdv.kdv import (
    BLOWUP_GUARD,
    KdvIntegrator,
    KdvRunConfig,
    SolitonSpec,
    kdv_integrate,
    kdv_invariants,
    kdv_samples,
    nonlinear_fields,
    soliton_profile,
    steady_residual,
    time_derivative,
    track_norm_growth,
)
from fpukdv.kdv import _integrator as cached_integrator

from support import grid_l2_norm, translate, validate


class _ComplexSpectrumEtdrk4:
    """Reference: the ETDRK4 step over the full complex length-M spectrum,
    as the integrator ran before it carried only the rfft half-spectrum (with
    the odd symbol k^3 zeroed at Nyquist, as ik is)."""

    def __init__(self, cfg):
        self.p = cfg.p
        M, L, h = cfg.M, cfg.L, cfg.dtau
        k = 2.0 * np.pi * np.fft.fftfreq(M, d=L / M)
        self.ik = 1j * k.copy()
        self.ik[M // 2] = 0.0
        lin = 1j * k**3 / 24.0
        lin[M // 2] = 0.0
        self.exp_full = np.exp(h * lin)
        self.exp_half = np.exp(0.5 * h * lin)
        r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        lr = h * lin[:, None] + r[None, :]
        elr = np.exp(lr)
        self.f0 = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
        self.f1 = h * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
        self.f2 = h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
        self.f3 = h * np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1)
        self.mask = np.abs(np.fft.fftfreq(M, d=1.0 / M)) <= M / 3.0

    def _nonlinear(self, v):
        w = np.fft.ifft(v).real
        return -0.5 * self.ik * np.where(self.mask, np.fft.fft(w**self.p), 0.0)

    def run(self, W, n_steps):
        v = np.fft.fft(W.values)
        for _ in range(n_steps):
            n0 = self._nonlinear(v)
            v1 = self.exp_half * v + self.f0 * n0
            n1 = self._nonlinear(v1)
            v2 = self.exp_half * v + self.f0 * n1
            n2 = self._nonlinear(v2)
            v3 = self.exp_half * v1 + self.f0 * (2.0 * n2 - n0)
            n3 = self._nonlinear(v3)
            v = (self.exp_full * v + self.f1 * n0 + 2.0 * self.f2 * (n1 + n2)
                 + self.f3 * n3)
        return FieldProfile.from_values(np.fft.ifft(v).real, W.L)


def _smooth_profile(L, M):
    x = np.arange(M) * (L / M)
    return FieldProfile.from_values(0.8 * np.sin(2 * np.pi * x / L)
                                    + 0.3 * np.cos(6 * np.pi * x / L)
                                    + 0.5 * np.exp(-((x - 0.3 * L) ** 2)), L)


class TestSolitonProfile:
    def test_p2_peak_amplitude(self, soliton_p2):
        # a = (c (p+1))^(1/(p-1)) = 3 for p=2, c=1
        assert np.max(soliton_p2.values) == pytest.approx(3.0, rel=1e-12)

    def test_p3_amplitude_and_width(self):
        spec = SolitonSpec(p=3, c=2.0)
        assert spec.amplitude == pytest.approx(math.sqrt(8.0))
        assert spec.width == pytest.approx(2.0 * math.sqrt(12.0))

    def test_steady_ode_shooting_oracle(self):
        # independently integrate (1/12) W'' + W^p - 2cW = 0 from the peak
        # and compare against the closed-form profile
        p, c = 2, 1.0
        spec = SolitonSpec(p=p, c=c)

        def rhs(x, y):
            return [y[1], 12.0 * (2.0 * c * y[0] - y[0] ** p)]

        sol = solve_ivp(rhs, (0.0, 3.0), [spec.amplitude, 0.0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        xs = np.linspace(0.0, 3.0, 40)
        closed = spec.amplitude / np.cosh(spec.width * xs) ** 2
        # shooting along the unstable manifold amplifies round-off in the tail
        assert np.max(np.abs(sol.sol(xs)[0] - closed)) < 1e-6

    def test_steady_residual_small_on_grid(self, soliton_p2):
        res = steady_residual(soliton_p2, 2, 1.0)
        assert np.max(np.abs(res)) < 1e-7

    def test_momentum_closed_form(self, soliton_p2):
        # int 9 sech^4(sqrt(6) x) dx = 2 sqrt(6)
        _, momentum, _ = kdv_invariants(soliton_p2, 2)
        assert momentum == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-8)

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            SolitonSpec(p=2, c=-1.0)
        for c in (math.nan, math.inf):  # NaN used to pass c <= 0
            with pytest.raises(InvalidInputError, match="c must be positive and finite"):
                SolitonSpec(p=2, c=c)
        with pytest.raises(InvalidInputError):
            SolitonSpec(p=1, c=1.0)
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            SolitonSpec(p=2.5, c=1.0)


class TestTimeDerivative:
    def test_traveling_wave_relation(self):
        # for the soliton, W_tau = -c W_x exactly; W^p is dealiased by the
        # 2/3 rule, so the grid must resolve W^2 below M/3 (M = 1024 leaves
        # a 4e-5 defect from the cut tail, M = 2048 about 7e-12)
        W = soliton_profile(SolitonSpec(p=2, c=1.0, center=32.0), 64.0, 2048)
        G = time_derivative(W, nonlinear_fields(W, 2).N)
        from fpukdv.core import derivative
        wx = derivative(W, 1)
        assert np.max(np.abs(G.values + 1.0 * wx.values)) < 1e-6

    def test_single_mode_linear_part(self):
        # W = cos(kx), p irrelevant for the linear term; compare the k^3 phase
        L, M = 32.0, 512
        x = np.arange(M) * (L / M)
        k = 2.0 * np.pi * 2.0 / L
        W = FieldProfile.from_values(1e-8 * np.cos(k * x), L)
        G = time_derivative(W, nonlinear_fields(W, 2).N)
        # linear part: -(1/24) d^3/dx^3 cos(kx) = -(k^3/24) sin(kx)
        expected = -1e-8 * (k**3 / 24.0) * np.sin(k * x)
        # residual is the quadratic term, O(amplitude^2 k) ~ 2e-17
        assert np.max(np.abs(G.values - expected)) < 1e-16


class TestIntegrator:
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_nonlinear_term_matches_pow_reference(self, p):
        # the stage spectrum rfft(W^p) takes W^p by repeated multiplication
        # into the integrator's scratch; the reference is rfft(w**p) (the
        # multiplier -(1/2) ik mask sits in the phi-coefficients): bit-for-bit
        # at p = 2, within 1e-13 of the largest mode above (bound fixed
        # beforehand from float64 round-off)
        L, M = 64.0, 1024
        W = _smooth_profile(L, M)
        integ = KdvIntegrator(KdvRunConfig(p=p, L=L, M=M, dtau=1e-3))
        got = integ._power_spectrum(W.coeffs, np.empty(M // 2 + 1, dtype=complex))
        ref = np.fft.rfft(np.fft.irfft(W.coeffs, n=M) ** p)
        if p == 2:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_steps", [0, 1, 7, 200])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_run_matches_complex_spectrum_reference(self, p, n_steps):
        # the half-spectrum step against the full complex-spectrum step it
        # replaced: same scheme, so values agree to round-off (bound fixed
        # beforehand); the returned profile is consistent
        L, M = 64.0, 1024
        W = _smooth_profile(L, M)
        cfg = KdvRunConfig(p=p, L=L, M=M, dtau=1e-3)
        got = KdvIntegrator(cfg).run(W, n_steps)
        ref = _ComplexSpectrumEtdrk4(cfg).run(W, n_steps)
        validate(got)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * np.max(np.abs(ref.values))

    def test_nyquist_mode_matches_complex_spectrum_reference(self):
        # the Nyquist mode has zero odd symbols (ik, k^3) and is dealiased out
        # of the nonlinear term, so a Nyquist component is held as it is
        L, M = 64.0, 1024
        W0 = _smooth_profile(L, M)
        W = FieldProfile.from_values(W0.values + 0.01 * (-1.0) ** np.arange(M), L)
        cfg = KdvRunConfig(p=3, L=L, M=M, dtau=1e-3)
        got = KdvIntegrator(cfg).run(W, 7)
        ref = _ComplexSpectrumEtdrk4(cfg).run(W, 7)
        assert got.coeffs[M // 2] == W.coeffs[M // 2]
        assert abs(got.coeffs[M // 2] - ref.coeffs[M // 2]) <= 1e-13 * np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * np.max(np.abs(ref.values))

    def test_underresolved_run_stays_hermitian(self):
        # a p=4 soliton on a grid too coarse for it: the Nyquist coefficient
        # stays real and values and coefficients stay one rfft pair
        L, M = 64.0, 512
        W0 = soliton_profile(SolitonSpec(p=4, c=1.0, center=L / 2.0), L, M)
        W = KdvIntegrator(KdvRunConfig(p=4, L=L, M=M, dtau=2e-4)).run(W0, 400)
        validate(W)
        assert W.coeffs[M // 2].imag == 0.0

    def test_soliton_translates_at_speed_c(self, soliton_p2):
        cfg = KdvRunConfig(p=2, L=64.0, M=1024, dtau=1e-3)
        n = 500
        W = kdv_integrate(soliton_p2, cfg, n)
        expected = translate(soliton_p2, 1.0 * n * cfg.dtau)  # W(x - c tau)... sign below
        # profile moves right: W(x - c tau) = translate by -c*tau
        expected = translate(soliton_p2, -1.0 * n * cfg.dtau)
        err = grid_l2_norm(FieldProfile.from_values(W.values - expected.values, 64.0))
        assert err / grid_l2_norm(soliton_p2) < 1e-6

    def test_invariants_conserved(self, soliton_p2):
        cfg = KdvRunConfig(p=2, L=64.0, M=1024, dtau=1e-3)
        m0, p0, e0 = kdv_invariants(soliton_p2, 2)
        W = kdv_integrate(soliton_p2, cfg, 1000)
        m1, p1, e1 = kdv_invariants(W, 2)
        assert abs(m1 - m0) < 1e-10
        assert abs(p1 - p0) < 1e-10
        assert abs(e1 - e0) < 1e-8

    def test_self_convergence_fourth_order(self, soliton_p2):
        # halving dtau should cut the error by ~16 (ETDRK4 is 4th order)
        tau_end = 0.32
        errs = []
        for dtau in (0.04, 0.02, 0.01):
            cfg = KdvRunConfig(p=2, L=64.0, M=1024, dtau=dtau)
            W = kdv_integrate(soliton_p2, cfg, int(round(tau_end / dtau)))
            ref = translate(soliton_p2, -tau_end)
            errs.append(np.max(np.abs(W.values - ref.values)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) > 3.5

    def test_blowup_guard(self):
        # focusing p=4 with huge amplitude and coarse grid blows past the guard
        L, M = 16.0, 256
        x = np.arange(M) * (L / M)
        W = FieldProfile.from_values(50.0 * np.exp(-((x - 8.0) ** 2)), L)
        cfg = KdvRunConfig(p=4, L=L, M=M, dtau=0.1)
        with pytest.raises(BlowUpError):
            kdv_integrate(W, cfg, 10000)

    def test_blowup_guard_trips_on_nan(self):
        # max|w| > guard is False for NaN; the guard must still raise
        M = 256
        W = FieldProfile(np.full(M // 2 + 1, np.nan + 0j), 16.0)
        with pytest.raises(BlowUpError):
            KdvIntegrator(KdvRunConfig(p=2, L=16.0, M=M, dtau=1e-3)).run(W, 1)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_blowup_guard_is_sup_norm(self, p, sign):
        # a constant profile has a zero nonlinear term and a zero linear
        # symbol, so every stage sees the constant itself: the guard trips
        # on sup|w| > BLOWUP_GUARD whatever the sign of w (a max(w) guard
        # misses the negative case) and lets |w| < BLOWUP_GUARD run
        L, M = 16.0, 256
        cfg = KdvRunConfig(p=p, L=L, M=M, dtau=1e-3)
        over = FieldProfile.from_values(np.full(M, sign * 1.1 * BLOWUP_GUARD), L)
        with pytest.raises(BlowUpError):
            KdvIntegrator(cfg).run(over, 2)
        under = FieldProfile.from_values(np.full(M, sign * 0.9 * BLOWUP_GUARD), L)
        got = KdvIntegrator(cfg).run(under, 2)
        assert np.max(np.abs(got.values - under.values)) <= 1e-12 * 0.9 * BLOWUP_GUARD

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            KdvRunConfig(p=2, L=64.0, M=1000, dtau=1e-3)
        with pytest.raises(InvalidInputError):
            KdvRunConfig(p=2, L=64.0, M=1024, dtau=-1e-3)

    @pytest.mark.parametrize("p, M", [(2.5, 512), (2.0, 512), (2, 512.0), (1, 512)])
    def test_p_and_M_must_be_integers(self, p, M):
        # a float would reach range(p - 2) or M & (M - 1) as a TypeError mid-run
        with pytest.raises(InvalidInputError, match="integer"):
            KdvRunConfig(p=p, L=32.0, M=M, dtau=1e-3)

    def test_numpy_integers_are_integers(self):
        cfg = KdvRunConfig(p=np.int64(3), L=32.0, M=np.int64(512), dtau=1e-3)
        assert cfg.M == 512 and cfg.p == 3

    @pytest.mark.parametrize("tau_end", [math.inf, math.nan, 0.0])
    def test_samples_need_a_finite_positive_duration(self, soliton_p2, tau_end):
        cfg = KdvRunConfig(p=2, L=soliton_p2.L, M=soliton_p2.M, dtau=1e-3)
        with pytest.raises(InvalidInputError, match="0 < t_end < inf"):
            next(kdv_samples(soliton_p2, cfg, tau_end, 2))

    @pytest.mark.parametrize("L, M", [(64.0, 512), (32.0, 1024)])
    def test_profile_must_match_config(self, soliton_p2, L, M):
        # soliton_p2 has L = 64, M = 1024
        with pytest.raises(ConfigurationError, match="does not match"):
            KdvIntegrator(KdvRunConfig(p=2, L=L, M=M, dtau=1e-3)).run(soliton_p2, 1)


# (M, L, dtau) of a small run, of coupled_scan's KdV run and of the p = 5
# soliton of kdv_evolution; each has modes with |z| >= 1 and modes with |z| <= 1e-3
PHI_CASES = [(256, 16.0, 1e-3), (1024, 64.0, 1e-3), (2048, 24.0, 1.4513788098693759e-4)]


def _phi_closed_forms(z, h):
    """f0, f1, 2 f2 and f3 in closed form (f0 is h (e^(z/2) - 1)/z)."""
    ez = np.exp(z)
    return [h * (np.exp(z / 2.0) - 1.0) / z,
            h * (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z**3,
            2.0 * h * (2.0 + z + ez * (z - 2.0)) / z**3,
            h * (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z**3]


def _phi_taylor(z, h):
    """The same four functions to O(z^4)."""
    return [h * (1 / 2 + z / 8 + z**2 / 48 + z**3 / 384),
            h * (1 / 6 + z / 6 + 3 * z**2 / 40 + z**3 / 45),
            h * (1 / 3 + z / 6 + z**2 / 20 + z**3 / 90),
            h * (1 / 6 - z**2 / 120 - z**3 / 360)]


class TestPhiCoefficients:
    """g0..g3 hold the phi-coefficients times -(1/2) ik mask; divided by that
    multiplier they must match the phi-functions of z = h i k^3 / 24, which
    the contour quadrature approximates (bounds fixed beforehand: closed
    forms lose no more than ~1e-13 for |z| >= 1, and the series' own error is
    ~z^4 for |z| <= 1e-3)."""

    @pytest.mark.parametrize("M, L, h", PHI_CASES)
    def test_against_closed_forms_and_series(self, M, L, h):
        integ = KdvIntegrator(KdvRunConfig(p=2, L=L, M=M, dtau=h))
        k = 2.0 * np.pi * np.fft.rfftfreq(M, d=L / M)
        mult = -0.5j * k * (np.arange(M // 2 + 1) <= M / 3.0)
        live = mult != 0.0
        z = h * 1j * k**3 / 24.0
        got = [g[live] / mult[live] for g in (integ.g0, integ.g1, integ.g2, integ.g3)]
        for sel, forms, rel in [(np.abs(z[live]) >= 1.0, _phi_closed_forms, 1e-12),
                                (np.abs(z[live]) <= 1e-3, _phi_taylor, 1e-10)]:
            assert sel.any()
            zs = z[live][sel]
            for f, ref in zip(got, forms(zs, h)):
                assert np.max(np.abs(f[sel] - ref) / np.abs(ref)) <= rel

    def test_construction_keeps_no_contour_table(self):
        # the coefficients are summed one contour point at a time, so building
        # an integrator allocates a few length-(M/2+1) vectors, not a
        # (M/2+1) x 32 table and its temporaries (2.65 MB at M = 2048)
        KdvIntegrator(KdvRunConfig(2, 24.0, 256, 1e-4))  # first-call set-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            KdvIntegrator(KdvRunConfig(2, 24.0, 2048, 1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestScratchOwnership:
    # the step runs in scratch the integrator owns; none of it may leak into
    # the caller's profile or into a result already returned (all bitwise)
    @pytest.fixture
    def setup(self):
        L, M = 64.0, 1024
        return _smooth_profile(L, M), KdvRunConfig(p=3, L=L, M=M, dtau=1e-3)

    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    def test_run_leaves_input_unchanged(self, setup, n_steps):
        W, cfg = setup
        coeffs, values = W.coeffs.copy(), W.values.copy()
        cached_integrator(cfg).run(W, n_steps)
        assert np.array_equal(W.coeffs, coeffs)
        assert np.array_equal(W.values, values)

    def test_second_run_leaves_first_result_unchanged(self, setup):
        W, cfg = setup
        integ = cached_integrator(cfg)
        first = integ.run(W, 3)
        coeffs, values = first.coeffs.copy(), first.values.copy()
        integ.run(FieldProfile.from_values(0.5 * W.values, W.L), 4)
        assert np.array_equal(first.coeffs, coeffs)
        assert np.array_equal(first.values, values)

    def test_interleaved_sample_generators_match_sequential(self, setup):
        W, cfg = setup
        sequential = list(kdv_samples(W, cfg, 0.01, 4))
        interleaved = list(zip(kdv_samples(W, cfg, 0.01, 4), kdv_samples(W, cfg, 0.01, 4)))
        assert len(interleaved) == len(sequential) == 5
        for (tau, ref), pair in zip(sequential, interleaved):
            for t, Wi in pair:
                assert t == tau
                assert np.array_equal(Wi.coeffs, ref.coeffs)
                assert np.array_equal(Wi.values, ref.values)


class TestKdvSamples:
    def test_sampling_only_splits_the_run(self):
        # the last sample is the profile one kdv_integrate call over the
        # whole window reaches at the same step: 5 intervals of one step 0.02
        W0 = soliton_profile(SolitonSpec(p=2, c=1.0, center=8.0), 16.0, 256)
        *_, (_, last) = kdv_samples(W0, KdvRunConfig(p=2, L=16.0, M=256, dtau=0.03), 0.1, 5)
        whole = kdv_integrate(W0, KdvRunConfig(p=2, L=16.0, M=256, dtau=0.02), 5)
        assert np.max(np.abs(last.values - whole.values)) <= 1e-12 * np.max(np.abs(whole.values))


class TestNormTracking:
    def test_soliton_hs_norm_flat(self):
        # M = 2048 keeps the H^6-weighted spectral tail below the flag threshold
        W0 = soliton_profile(SolitonSpec(p=2, c=1.0, center=32.0), 64.0, 2048)
        cfg = KdvRunConfig(p=2, L=64.0, M=2048, dtau=1e-3)
        samples = track_norm_growth(W0, cfg, 6, 0.2, 10)
        norms = np.array([s.Hs_norm for s in samples])
        assert np.max(np.abs(norms - norms[0])) / norms[0] < 1e-6
        assert not any(s.resolution_flag for s in samples)

    def test_underresolved_profile_flags(self):
        # deliberately under-resolved sawtooth-like spectrum trips the flag
        M, L = 256, 16.0
        rng = np.random.default_rng(0)
        coeffs = np.zeros(M // 2 + 1, dtype=complex)
        coeffs[1:M // 2] = 1.0 / np.arange(1, M // 2)
        W = FieldProfile.from_coeffs(coeffs, L)
        cfg = KdvRunConfig(p=2, L=L, M=M, dtau=1e-4)
        samples = track_norm_growth(W, cfg, 6, 1e-3, 2)
        assert samples[0].resolution_flag

    def test_tau_end_must_be_step_multiple(self):
        # 0.1 / 0.03 is not an integer: the run must not end early at tau 0.09,
        # so each of the 5 intervals of 0.02 runs one step of 0.02 <= dtau
        W0 = soliton_profile(SolitonSpec(p=2, c=1.0, center=8.0), 16.0, 256)
        cfg = KdvRunConfig(p=2, L=16.0, M=256, dtau=0.03)
        samples = track_norm_growth(W0, cfg, 2, 0.1, 5)
        assert [smp.tau for smp in samples] == [i * (0.1 / 5) for i in range(6)]
        assert samples[-1].tau == pytest.approx(0.1, abs=1e-15)
