import numpy as np
import pytest

from fpukdv import kernels


def _reference_rhs(u, q, eps2, p):
    du = np.roll(q, -1) - q
    f = u + eps2 * u**p
    dq = f - np.roll(f, 1)
    return du, dq


def _reference_rk4(u, q, eps2, p, dt, nsteps, guard=1.0e6):
    """The allocating np.roll RK4 loop that kernels.fpu_rk4 replaced."""
    for _ in range(nsteps):
        ku1, kq1 = _reference_rhs(u, q, eps2, p)
        ku2, kq2 = _reference_rhs(u + 0.5 * dt * ku1, q + 0.5 * dt * kq1, eps2, p)
        ku3, kq3 = _reference_rhs(u + 0.5 * dt * ku2, q + 0.5 * dt * kq2, eps2, p)
        ku4, kq4 = _reference_rhs(u + dt * ku3, q + dt * kq3, eps2, p)
        u += (dt / 6.0) * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
        q += (dt / 6.0) * (kq1 + 2.0 * kq2 + 2.0 * kq3 + kq4)
        if not (np.max(np.abs(u)) <= guard):
            return 1
    return 0


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


class TestFpuRk4AgainstReference:
    # p = 2 is u*u in both loops, so the operation order makes them bitwise
    # equal; for p >= 3 the reference's pow() differs from repeated
    # multiplication in the last bits
    REL_TOL = 1.0e-13

    @staticmethod
    def _run(fn, u0, q0, *args):
        u, q = u0.copy(), q0.copy()
        return fn(u, q, *args), u, q

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 640])
    @pytest.mark.parametrize("nsteps", [0, 1, 7, 200])
    def test_matches_reference(self, p, N, nsteps):
        rng = np.random.default_rng(1000 * p + N + nsteps)
        u0 = 0.5 * rng.standard_normal(N)
        q0 = 0.5 * rng.standard_normal(N)
        args = (0.04, p, 0.05, nsteps)
        status_ref, u_ref, q_ref = self._run(_reference_rk4, u0, q0, *args)
        status, u, q = self._run(kernels.fpu_rk4, u0, q0, *args)
        assert status == status_ref == 0
        if p == 2:
            assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
        else:
            scale = max(np.max(np.abs(u_ref)), np.max(np.abs(q_ref)))
            assert np.max(np.abs(u - u_ref)) <= self.REL_TOL * scale
            assert np.max(np.abs(q - q_ref)) <= self.REL_TOL * scale

    def test_guard_trip_mid_chunk_matches_reference(self):
        # dt = 1.5 is just past the linear stability limit: slow growth
        rng = np.random.default_rng(1)
        u0, q0 = rng.standard_normal(16), rng.standard_normal(16)
        args = (0.01, 2, 1.5)
        # step the reference one step at a time to find where it trips
        u, q = u0.copy(), q0.copy()
        trip = next(n for n in range(1, 1000) if _reference_rk4(u, q, *args, 1, 100.0))
        nsteps = trip + 5
        assert trip > 1
        status_ref, u_ref, q_ref = self._run(_reference_rk4, u0, q0, *args, nsteps, 100.0)
        status, u, q = self._run(kernels.fpu_rk4, u0, q0, *args, nsteps, 100.0)
        assert status == status_ref == 1
        assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
