import numpy as np
import pytest

from fpukdv import kernels

# classical RK4 as a Butcher tableau: stage i starts at y + sum_j (a_ij dt) k_j,
# the step adds (dt/6) sum_i w_i k_i
_RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_W = (1.0, 2.0, 2.0, 1.0)


def _reference_rk4(u, q, eps2, p, dt, nsteps):
    """The lattice in matrix form, du/dt = D q and dq/dt = -D^T f(u) with D
    the periodic forward difference and f(u) = u + eps^2 u^p, stepped by a
    generic tableau loop on the stacked state y = [u; q]."""
    N = u.shape[0]
    D = np.roll(np.eye(N), 1, axis=1) - np.eye(N)

    def rhs(y):
        uu, qq = y[:N], y[N:]
        return np.concatenate([D @ qq, -(D.T @ (uu + eps2 * uu**p))])

    y = np.concatenate([u, q])
    for _ in range(nsteps):
        ks = []
        for a in _RK4_A:
            ks.append(rhs(y + sum((c * dt) * k for c, k in zip(a, ks))))
        y = y + (dt / 6.0) * sum(w * k for w, k in zip(_RK4_W, ks))
    return y[:N], y[N:]


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
    # each difference in D @ q and D^T @ f has one nonzero pair, so it rounds
    # as the roll difference does, and p = 2 is u*u on both sides: the two
    # are bitwise equal.  For p >= 3 the reference's pow() differs from
    # repeated multiplication in the last bits
    REL_TOL = 1.0e-13

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 640])
    @pytest.mark.parametrize("nsteps", [0, 1, 7, 200])
    def test_matches_reference(self, p, N, nsteps):
        rng = np.random.default_rng(1000 * p + N + nsteps)
        u0 = 0.5 * rng.standard_normal(N)
        q0 = 0.5 * rng.standard_normal(N)
        args = (0.04, p, 0.05, nsteps)
        u_ref, q_ref = _reference_rk4(u0, q0, *args)
        u, q = u0.copy(), q0.copy()
        assert kernels.fpu_rk4(u, q, *args) == 0
        if p == 2:
            assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
        else:
            scale = max(np.max(np.abs(u_ref)), np.max(np.abs(q_ref)))
            assert np.max(np.abs(u - u_ref)) <= self.REL_TOL * scale
            assert np.max(np.abs(q - q_ref)) <= self.REL_TOL * scale

    def test_guard_trip_mid_chunk_matches_reference(self):
        # the reference is the same loop run one step per call: a run past
        # the trip stops at the step that tripped and holds its state.
        # dt = 1.5 is just past the linear stability limit: slow growth
        rng = np.random.default_rng(1)
        u0, q0 = rng.standard_normal(16), rng.standard_normal(16)
        args = (0.01, 2, 1.5)
        u_ref, q_ref = u0.copy(), q0.copy()
        trip = next(n for n in range(1, 1000)
                    if kernels.fpu_rk4(u_ref, q_ref, *args, 1, 100.0))
        assert trip > 1
        u, q = u0.copy(), q0.copy()
        assert kernels.fpu_rk4(u, q, *args, trip + 5, 100.0) == 1
        assert np.array_equal(u, u_ref) and np.array_equal(q, q_ref)
