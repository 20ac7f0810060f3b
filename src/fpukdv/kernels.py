"""Test oracles: the direct Fourier sum (the oracle for the lattice sampler,
core.sample_to_lattice) and the FPU right-hand side with its textbook RK4
loop (the oracle for the lattice splitting in fpu.py).  No run imports this
module.

Everything here is plain numpy.  ``BACKEND`` and ``numba`` are constants
kept for tools that report the environment (perfbench/worker.py reads both);
there is no backend switch and no compiled path.
"""

from __future__ import annotations

import numpy as np

from .core import int_power

BACKEND = "numpy"
numba = None


def fourier_eval(coeffs, L, points):
    """Values at ``points`` of the real M-point signal whose unnormalized
    np.fft.fft coefficients are ``coeffs``: Re[(1/M) sum_m c_m exp(i k_m x)],
    summed directly over the Hermitian half-spectrum."""
    M = coeffs.shape[0]
    half = M // 2
    k = 2.0 * np.pi / L * np.arange(half + 1)
    phases = np.exp(1j * np.outer(points, k))
    acc = (phases[:, 1:half] @ coeffs[1:half]).real * 2.0
    acc += coeffs[0].real
    acc += (phases[:, half] * coeffs[half]).real
    return acc / M


def fpu_rhs(u, q, eps2, p):
    """(du, dq) with du_n = q_{n+1} - q_n and dq_n = f_n - f_{n-1},
    f = u + eps^2 u^p, on the periodic lattice."""
    f = u + eps2 * int_power(u, p, np.empty_like(u))
    return np.roll(q, -1) - q, f - np.roll(f, 1)


def fpu_rk4(u, q, eps2, p, dt, nsteps, guard=1.0e6):
    """Advance (u, q) in place by nsteps classical RK4 steps.  Returns 0, or
    1 once sup|u| > guard (NaN trips it too); then (u, q) hold the state of
    the step that tripped."""
    for _ in range(nsteps):
        ku1, kq1 = fpu_rhs(u, q, eps2, p)
        ku2, kq2 = fpu_rhs(u + 0.5 * dt * ku1, q + 0.5 * dt * kq1, eps2, p)
        ku3, kq3 = fpu_rhs(u + 0.5 * dt * ku2, q + 0.5 * dt * kq2, eps2, p)
        ku4, kq4 = fpu_rhs(u + dt * ku3, q + dt * kq3, eps2, p)
        u += (dt / 6.0) * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
        q += (dt / 6.0) * (kq1 + 2.0 * kq2 + 2.0 * kq3 + kq4)
        if not (np.max(np.abs(u)) <= guard):
            return 1
    return 0
