import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpukdv import fpu, kdv, kernels
from fpukdv.core import (
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
    dealias_mask,
    derivative,
    irfft_into,
    l2_norm,
    lattice_size,
    rfft_into,
    sample_to_lattice,
    sobolev_norm,
    spectral_tail_fraction,
    uniform_samples,
)

from support import grid_l2_norm, pointwise_power, translate, validate


def _full_spectrum_derivative(W, order):
    """Reference: the derivative on the full fft spectrum, fftfreq's negative
    Nyquist wavenumber, and that mode zeroed by hand for odd orders."""
    c = np.fft.fft(W.values) * (2j * np.pi * np.fft.fftfreq(W.M, d=W.L / W.M)) ** order
    if order % 2 == 1:
        c[W.M // 2] = 0.0
    return np.fft.ifft(c).real


def _full_spectrum_translate(W, delta):
    """Reference: the full-spectrum phase shift, the Nyquist mode set by hand
    to its real part times cos(k_Nyquist delta)."""
    c0 = np.fft.fft(W.values)
    c = c0 * np.exp(2j * np.pi * np.fft.fftfreq(W.M, d=W.L / W.M) * delta)
    c[W.M // 2] = c0[W.M // 2].real * np.cos(np.pi * W.M / W.L * delta)
    return np.fft.ifft(c).real


def _full_spectrum_hs(W, s):
    """Reference: (H^s norm, top-third tail fraction) summed over all M modes."""
    k = 2.0 * np.pi * np.fft.fftfreq(W.M, d=W.L / W.M)
    dens = (1.0 + k * k) ** s * np.abs(np.fft.fft(W.values)) ** 2
    tail = np.sum(dens[np.abs(k) > (2.0 / 3.0) * np.max(np.abs(k))]) / np.sum(dens)
    return math.sqrt(W.L / W.M**2 * np.sum(dens)), tail


def _nyquist_profile(M, L=64.0):
    """A smooth part plus Nyquist content (-1)^n."""
    x = np.arange(M) * (L / M)
    smooth = np.exp(-((x - 0.4 * L) ** 2)) + 0.5 * np.sin(6 * np.pi * x / L)
    return FieldProfile.from_values(smooth + 0.3 * (-1.0) ** np.arange(M), L)


class TestL2Norm:
    def test_zero(self):
        assert l2_norm(np.zeros(100)) == 0.0

    def test_pythagorean_pair(self):
        assert l2_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            l2_norm(np.array([1.0, np.nan]))

    def test_lattice_sum_matches_quadrature(self):
        # x_n = W(eps n) for a Gaussian: sum x_n^2 ~ eps^-1 int W^2
        eps = 0.1
        n = np.arange(-2000, 2000)
        x = np.exp(-((eps * n) ** 2))
        integral = quad(lambda t: np.exp(-2.0 * t**2), -np.inf, np.inf)[0]
        assert l2_norm(x) == pytest.approx(math.sqrt(integral / eps), rel=0.01)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, xs, lam):
        x = np.array(xs)
        assert l2_norm(lam * x) == pytest.approx(abs(lam) * l2_norm(x), rel=1e-9, abs=1e-9)


class TestSobolevNorm:
    def test_zero_profile(self):
        W = FieldProfile.from_values(np.zeros(512), 32.0)
        assert sobolev_norm(W, 6) == 0.0

    def test_soliton_l2_matches_quadrature(self, soliton_p2):
        # int of 9 sech^4(sqrt(6) x) = 12/sqrt(6) = 2 sqrt(6)
        exact = 2.0 * math.sqrt(6.0)
        assert sobolev_norm(soliton_p2, 0) ** 2 == pytest.approx(exact, abs=1e-6)
        quad_val = quad(lambda t: 9.0 / np.cosh(math.sqrt(6.0) * t) ** 4, -32.0, 32.0)[0]
        assert sobolev_norm(soliton_p2, 0) ** 2 == pytest.approx(quad_val, rel=1e-10)

    def test_single_mode_multiplier_factor(self):
        L, M = 32.0, 512
        x = np.arange(M) * (L / M)
        k = 2.0 * np.pi * 3.0 / L
        W = FieldProfile.from_values(np.sin(k * x), L)
        base = sobolev_norm(W, 0)
        for s in (1, 2, 5):
            assert sobolev_norm(W, s) == pytest.approx(base * (1 + k**2) ** (s / 2.0), rel=1e-12)

    def test_monotone_in_s(self, gaussian_profile):
        norms = [sobolev_norm(gaussian_profile, s) for s in (0, 1, 2, 3, 6)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))

    def test_negative_s_rejected(self, gaussian_profile):
        with pytest.raises(InvalidInputError):
            sobolev_norm(gaussian_profile, -1)

    def test_fractional_index_between_integers(self, gaussian_profile):
        assert (sobolev_norm(gaussian_profile, 0)
                <= sobolev_norm(gaussian_profile, 0.75)
                <= sobolev_norm(gaussian_profile, 1))


class TestParseval:
    def test_grid_and_coefficient_norms_agree(self, soliton_p2):
        W = soliton_p2
        coeff_side = math.sqrt(W.L / W.M**2 * np.sum(np.abs(np.fft.fft(W.values)) ** 2))
        assert grid_l2_norm(W) == pytest.approx(coeff_side, rel=1e-12)
        assert sobolev_norm(W, 0) == pytest.approx(grid_l2_norm(W), rel=1e-12)


class TestSampleToLattice:
    def test_zero_profile(self):
        W = FieldProfile.from_values(np.zeros(512), 32.0)
        assert np.all(sample_to_lattice((W,), 32.0 / 640, 17.3, 640) == 0.0)

    def test_identity_sampling(self, soliton_p2):
        W = soliton_p2
        (out,) = sample_to_lattice((W,), W.L / W.M, 0.0, W.M)
        assert np.max(np.abs(out - W.values)) < 1e-11

    def test_wrap_mismatch_rejected(self, soliton_p2):
        with pytest.raises(ConfigurationError):
            sample_to_lattice((soliton_p2,), 0.1, 0.0, 137)
        # a stack shares one grid: another period L or another M is an
        # error, not a sampling on the first profile's period
        other_L = FieldProfile.from_coeffs(soliton_p2.coeffs, 32.0)
        other_M = FieldProfile.from_values(soliton_p2.values[::2], soliton_p2.L)
        for other in (other_L, other_M):
            with pytest.raises(ConfigurationError, match="share one grid"):
                sample_to_lattice((soliton_p2, other), 0.1, 0.0, 640)

    def test_linearity(self, soliton_p2, gaussian_profile):
        eps, N = 0.1, 640
        combo = FieldProfile.from_coeffs(
            2.0 * soliton_p2.coeffs - 0.5 * gaussian_profile.coeffs, 64.0)
        lhs, sol, gauss = sample_to_lattice((combo, soliton_p2, gaussian_profile), eps, 3.7, N)
        rhs = 2.0 * sol - 0.5 * gauss
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_unit_shift_permutes_cyclically(self, soliton_p2):
        # M = N grid-aligned: shifting by one site rotates the samples
        W = soliton_p2
        eps = W.L / W.M
        (base,) = sample_to_lattice((W,), eps, 0.0, W.M)
        (shifted,) = sample_to_lattice((W,), eps, 1.0, W.M)
        assert np.max(np.abs(shifted - np.roll(base, 1))) < 1e-11

    @given(M=st.sampled_from([256, 512, 1024, 2048]),
           N=st.integers(2, 4096),
           shift=st.floats(-1.0e5, 1.0e5),
           seed=st.integers(0, 2**32 - 1))
    @example(M=2048, N=7, shift=-1.0e5, seed=0)  # N < M/2: many modes per fold bin
    @example(M=256, N=4096, shift=1.0e5, seed=1)  # N > M: no two modes share a bin
    @example(M=80, N=81, shift=0.0, seed=2)  # even M, not a power of two
    @example(M=1000, N=1280, shift=-2.5, seed=3)
    @example(M=1024, N=1010, shift=-64716.052228441804, seed=0)  # n - shift would round
    @example(M=512, N=2, shift=1.2115222435095347, seed=37794)  # max|ref| << sum|c_m| / M
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_direct_sum(self, M, N, shift, seed):
        # oracle: the direct Fourier sum at the moving-frame points, on a
        # random real full-band profile (Nyquist mode included); the whole
        # part of the shift is wrapped exactly before its fraction is taken.
        # Round-off scales with the terms summed, sum |c_m| / M, which bounds
        # every sample; max|ref| alone can be made small by cancellation.
        L = 64.0
        eps = L / N
        W = FieldProfile.from_values(np.random.default_rng(seed).standard_normal(M), L)
        whole = math.floor(shift)
        sites = ((np.arange(N) - whole) % N - (shift - whole)) % N
        spectrum = np.fft.fft(W.values)
        ref = kernels.fourier_eval(spectrum, L, eps * sites)
        (out,) = sample_to_lattice((W,), eps, shift, N)
        scale = max(np.max(np.abs(ref)), np.sum(np.abs(spectrum)) / M)
        assert np.max(np.abs(out - ref)) <= 1.0e-11 * scale
        # a stack samples each row as its own one-profile call, bit for bit
        stack = (W, FieldProfile.from_coeffs(-W.coeffs, L), derivative(W, 1))
        rows = sample_to_lattice(stack, eps, shift, N)
        assert rows.shape == (3, N)
        for row, V in zip(rows, stack):
            assert np.array_equal(row, sample_to_lattice((V,), eps, shift, N)[0])

    def test_sampling_inequality_constant(self, gaussian_profile):
        # |x|_l2 <= C eps^(-1/2) |X|_H1 with a stable constant <= 2
        h1 = sobolev_norm(gaussian_profile, 1)
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            N = round(64.0 / eps)
            (x,) = sample_to_lattice((gaussian_profile,), eps, 0.0, N)
            ratios.append(l2_norm(x) / (eps**-0.5 * h1))
        assert max(ratios) <= 2.0
        assert max(ratios) / min(ratios) < 1.1


class TestFftInto:
    # oracle: np.fft itself, which ends in the same pocketfft ufuncs
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 315, 320, 640, 641, 1280, 2048])
    def test_helpers_match_np_fft_bit_for_bit(self, N):
        rng = np.random.default_rng(N)
        x = rng.standard_normal(N)
        X = rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1)
        out = np.empty(N // 2 + 1, dtype=complex)
        assert rfft_into(x, out) is out
        assert np.array_equal(out, np.fft.rfft(x))
        back = np.empty(N)
        assert irfft_into(X, back) is back
        assert np.array_equal(back, np.fft.irfft(X, n=N))

    def test_step_loops_make_no_np_fft_call(self, monkeypatch):
        # the S6 stepper transforms (u, q) once on entry and once on exit;
        # a KdV run starts from W.coeffs and ends in from_coeffs
        N, M = 640, 512
        rng = np.random.default_rng(0)
        u, q = 0.1 * rng.standard_normal(N), 0.1 * rng.standard_normal(N)
        stepper = fpu._S6Stepper(N, 0.5, 0.01, 2)
        W = FieldProfile.from_values(np.exp(-np.linspace(-8.0, 8.0, M, endpoint=False) ** 2), 32.0)
        integrator = kdv.KdvIntegrator(kdv.KdvRunConfig(p=3, L=32.0, M=M, dtau=1e-3))
        calls = {"rfft": 0, "irfft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        stepper.steps(u, q, 100)
        assert calls == {"rfft": 2, "irfft": 2}
        calls.update(rfft=0, irfft=0)
        integrator.run(W, 100)
        assert calls == {"rfft": 0, "irfft": 0}


class TestProfileOps:
    def test_validate_roundtrip(self, soliton_p2):
        validate(soliton_p2)

    def test_odd_grid_rejected(self):
        # an odd M has no Nyquist mode; a half-spectrum of length M//2 + 1
        # would be read back as the even grid 2 (M//2)
        with pytest.raises(InvalidInputError, match="even"):
            FieldProfile.from_values(np.cos(2 * np.pi * 40 * np.arange(81) / 81), 8.1)

    def test_from_coeffs_drops_imaginary_dc_and_nyquist(self):
        c = np.zeros(5, dtype=complex)
        c[0], c[2], c[4] = 1.0 + 2.0j, 1.0 - 1.0j, 3.0 - 4.0j
        W = FieldProfile.from_coeffs(c, 8.0)
        assert W.M == 8
        assert W.coeffs[0] == 1.0 and W.coeffs[4] == 3.0 and W.coeffs[2] == 1.0 - 1.0j
        assert c[0] == 1.0 + 2.0j  # the caller's array is not modified
        validate(W)

    def test_values_formed_once_on_demand(self, soliton_p2, monkeypatch):
        irfft, calls = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        W = derivative(translate(soliton_p2, 0.3), 1)
        assert calls == []
        values = W.values
        assert W.values is values and len(calls) == 1
        assert np.array_equal(values, irfft(W.coeffs))
        with pytest.raises(AttributeError):
            W.L = 1.0
        back = pickle.loads(pickle.dumps(W))
        assert back.L == W.L and np.array_equal(back.values, values)

    @pytest.mark.parametrize("clone", [lambda W: pickle.loads(pickle.dumps(W)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_clone_keeps_the_seeded_grid(self, clone):
        grid = np.random.default_rng(3).standard_normal(64)
        # the seed is the point: this grid is not its own irfft round trip
        assert not np.array_equal(np.fft.irfft(np.fft.rfft(grid), n=64), grid)
        W = FieldProfile.from_values(grid, 8.0)
        back = clone(W)
        assert back.L == W.L and np.array_equal(back.coeffs, W.coeffs)
        assert "values" in vars(back) and np.array_equal(back.values, grid)

    @pytest.mark.parametrize("name", ["coeffs", "L", "values"])
    def test_fields_cannot_be_assigned(self, soliton_p2, name):
        with pytest.raises(AttributeError):
            setattr(soliton_p2, name, getattr(soliton_p2, name))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivative_matches_full_spectrum_reference(self, order):
        # M = 256: round-off in a spectral W''' grows like eps k_max^3; at
        # M = 1024 this and the reference are both 2e-11 (relative) from the
        # exact third derivative, too coarse to check agreement to 1e-12
        W = _nyquist_profile(256)
        ref = _full_spectrum_derivative(W, order)
        got = derivative(W, order).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("delta", [0.37, -1.25, 0.0625, 64.0 / 1024 * 0.5])
    def test_translate_matches_full_spectrum_reference(self, delta):
        W = _nyquist_profile(1024)
        ref = _full_spectrum_translate(W, delta)
        got = translate(W, delta).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0, 1, 2.5, 6])
    def test_hs_sums_match_full_spectrum_reference(self, s):
        # on a random M = 1024 profile and on one with Nyquist content
        for W in (FieldProfile.from_values(np.random.default_rng(7).standard_normal(1024), 64.0),
                  _nyquist_profile(1024)):
            norm, tail = _full_spectrum_hs(W, s)
            assert abs(sobolev_norm(W, s) - norm) <= 1e-12 * norm
            assert abs(spectral_tail_fraction(W, s) - tail) <= 1e-12 * tail

    def test_validate_rejects_mismatch(self, soliton_p2):
        bad = FieldProfile(soliton_p2.coeffs, soliton_p2.L)
        vars(bad)["values"] = soliton_p2.values + 1.0  # a grid that is not the spectrum's
        with pytest.raises(InvalidInputError):
            validate(bad)

    def test_translate_matches_sampling(self, soliton_p2):
        delta = 0.37
        shifted = translate(soliton_p2, delta)
        x = soliton_p2.grid()
        (direct,) = sample_to_lattice((soliton_p2,), soliton_p2.L / soliton_p2.M,
                                      -delta / (soliton_p2.L / soliton_p2.M), soliton_p2.M)
        assert np.max(np.abs(shifted.values - direct)) < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_pointwise_power_matches_pow_reference(self, p):
        # bit-for-bit numpy's W**p at p = 2; within 1e-13 of the largest
        # mode above (bound fixed beforehand from float64 round-off)
        L, M = 64.0, 1024
        x = np.arange(M) * (L / M)
        W = FieldProfile.from_values(0.8 * np.sin(2 * np.pi * x / L)
                                     - 0.3 * np.cos(6 * np.pi * x / L), L)
        got = pointwise_power(W, p).coeffs
        ref = np.where(dealias_mask(M), np.fft.rfft(W.values**p), 0.0)
        if p == 2:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_tail_fraction_zero_profile(self):
        W = FieldProfile.from_values(np.zeros(512), 32.0)
        assert spectral_tail_fraction(W, 6) == 0.0


class TestModelParams:
    """(p, epsilon, dt_lattice) and no site count: the state holds N, and
    the N*epsilon = L rule is pinned by TestLatticeSize and the sampler."""

    def test_valid(self):
        ModelParams(p=2, epsilon=0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(p=1, epsilon=0.1),
        dict(p=2, epsilon=1.5),
        dict(p=2.5, epsilon=0.1),
        dict(p=2, epsilon=0.1, dt_lattice=-0.1),
    ])
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(InvalidInputError):
            ModelParams(**kwargs)

    def test_p_is_an_integer_type(self):
        # p = 2.0 would reach range(p - 2) in int_power as a TypeError
        with pytest.raises(InvalidInputError, match="integer"):
            ModelParams(p=2.0, epsilon=0.1)
        assert ModelParams(p=np.int64(3), epsilon=0.1).p == 3


class TestLatticeSize:
    """N*epsilon = L is one rule with one tolerance wherever a lattice is
    sized or checked."""

    def test_small_period_within_the_tolerance(self):
        # N*eps - L = -1e-10: inside 1e-9*max(1, L), outside 1e-9*L
        L = 0.01
        eps = L / (100 + 1e-6)
        assert lattice_size(L, eps) == 100
        W = FieldProfile.from_values(np.ones(8), L)
        assert sample_to_lattice((W,), eps, 0.0, 100)[0] == pytest.approx(np.ones(100))

    @pytest.mark.parametrize("L,eps", [(64.0, 0.3), (math.inf, 0.1), (math.nan, 0.1)],
                             ids=["non-integer", "inf", "nan"])
    def test_rejects_a_period_that_does_not_wrap(self, L, eps):
        with pytest.raises(ConfigurationError, match="not an integer site count"):
            lattice_size(L, eps)


class TestLatticeState:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            LatticeState(u=np.array([np.inf]), q=np.array([0.0]))

    def test_udot_is_forward_difference(self):
        q = np.array([1.0, 2.0, 4.0, 8.0])
        state = LatticeState(u=np.zeros(4), q=q)
        assert np.all(state.udot() == np.roll(q, -1) - q)


class TestUniformSamples:
    @staticmethod
    def _run(t_end, n_samples, dt_max):
        """(samples, advance calls) for the clock x(t) = t."""
        calls = []

        def advance(x, n, dt):
            calls.append((n, dt))
            return x + n * dt

        return list(uniform_samples(advance, 0.0, t_end, n_samples, dt_max)), calls

    def test_one_advance_per_interval_in_equal_steps(self):
        # 10/3 is not a multiple of dt_max = 0.5: each interval is 7 steps of 10/21
        samples, calls = self._run(10.0, 3, 0.5)
        assert [t for t, _ in samples] == [0.0, 10 / 3, 20 / 3, 10.0]
        assert calls == [(7, (10 / 3) / 7)] * 3
        assert [x for _, x in samples] == pytest.approx([t for t, _ in samples], rel=1e-15)

    def test_step_is_never_longer_than_dt_max(self):
        # an interval that dt_max divides keeps dt_max; one step is the least
        assert [n for n, _ in self._run(1.0, 4, 0.05)[1]] == [5] * 4
        assert self._run(0.1, 5, 0.03)[1] == [(1, 0.1 / 5)] * 5

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
    def test_needs_a_finite_positive_duration(self, t_end):
        # math.ceil of an infinite step count raised OverflowError
        with pytest.raises(InvalidInputError, match="0 < t_end < inf"):
            self._run(t_end, 2, 0.5)
