import numpy as np
import pytest

from fpukdv import kernels


@pytest.fixture(scope="module")
def random_signal():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(256)
    return values, np.fft.fft(values)


class TestFourierEval:
    def test_on_grid_recovers_values(self, random_signal):
        values, coeffs = random_signal
        L = 32.0
        pts = np.arange(256) * (L / 256)
        out = kernels.fourier_eval(coeffs, L, pts)
        assert np.max(np.abs(out - values)) < 1e-11

    def test_off_grid_matches_closed_form(self):
        # single cosine mode: evaluation is exact everywhere
        L, M = 10.0, 64
        x = np.arange(M) * (L / M)
        values = np.cos(2.0 * np.pi * 3.0 * x / L + 0.4)
        coeffs = np.fft.fft(values)
        pts = np.array([0.123, 4.56, 9.999, 7.0])
        expected = np.cos(2.0 * np.pi * 3.0 * pts / L + 0.4)
        out = kernels.fourier_eval(coeffs, L, pts)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_chunking_boundary(self):
        # force multiple chunks by exceeding the per-chunk point budget
        M = 2**14
        rng = np.random.default_rng(3)
        values = rng.standard_normal(M)
        coeffs = np.fft.fft(values)
        L = 64.0
        pts = np.arange(M) * (L / M)
        out = kernels.fourier_eval(coeffs, L, pts)
        assert np.max(np.abs(out - values)) < 1e-9


class TestFpuRk4:
    def test_linear_chain_single_mode_frequency(self):
        # eps = 0: plane wave e^(i kappa n) oscillates at omega = 2 sin(kappa/2)
        N = 64
        kappa = 2.0 * np.pi * 4 / N
        omega = 2.0 * np.sin(kappa / 2.0)
        n = np.arange(N)
        u0 = np.cos(kappa * n)
        # eigenmode pairing: q chosen so the mode rotates rigidly
        q0 = (omega / (2.0 * np.sin(kappa / 2.0))) * np.sin(kappa * n - kappa / 2.0)
        u, q = u0.copy(), q0.copy()
        T = 2.0 * np.pi / omega
        nsteps = 4000
        kernels.fpu_rk4(u, q, 0.0, 2, T / nsteps, nsteps)
        assert np.max(np.abs(u - u0)) < 1e-7
        assert np.max(np.abs(q - q0)) < 1e-7

    def test_guard_trips(self):
        # a time step far past the stability limit drives unbounded growth
        rng = np.random.default_rng(1)
        u = rng.standard_normal(16)
        q = rng.standard_normal(16)
        status = kernels.fpu_rk4(u, q, 1.0, 2, 5.0, 1000, guard=100.0)
        assert status == 1
        assert np.max(np.abs(u)) > 100.0

    def test_guard_trips_on_nan(self):
        # max|u| > guard is False for NaN; the guard must still stop the run
        u = np.full(16, np.nan)
        q = np.zeros(16)
        assert kernels.fpu_rk4(u, q, 0.01, 2, 0.05, 10) == 1
