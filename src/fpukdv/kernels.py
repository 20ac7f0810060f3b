"""Numerical kernels: the FPU right-hand side and RK4 loop, plus the direct
Fourier sum kept as a reference for the lattice sampler.

Everything here is plain numpy.  ``BACKEND`` and ``numba`` are constants
kept for tools that report the environment (perfbench/worker.py reads both);
there is no backend switch and no compiled path.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"
numba = None


# ---------------------------------------------------------------------------
# Off-grid Fourier-series evaluation (direct summation over modes).
#
# coeffs are unnormalized np.fft.fft coefficients of a real M-point signal;
# the value at point x is Re[(1/M) sum_m c_m exp(i k_m x)].  The summation
# uses the Hermitian half-spectrum, so the cost is O(M) per point.  The
# moving-frame sampler (core.sample_to_lattice) does not use this: it is the
# independent oracle the sampler is tested against.
# ---------------------------------------------------------------------------

def fourier_eval(coeffs, L, points):
    M = coeffs.shape[0]
    half = M // 2
    k = 2.0 * np.pi / L * np.arange(half + 1)
    out = np.empty(points.shape[0])
    # chunk the phase matrix to bound memory at large M*N
    step = max(1, 2**22 // (half + 1))
    for i in range(0, points.shape[0], step):
        pts = points[i:i + step]
        phases = np.exp(1j * np.outer(pts, k))
        acc = (phases[:, 1:half] @ coeffs[1:half]).real * 2.0
        acc += coeffs[0].real
        acc += (phases[:, half] * coeffs[half]).real
        out[i:i + step] = acc / M
    return out


# ---------------------------------------------------------------------------
# FPU lattice right-hand side and fixed-step RK4 loop (periodic indices).
#
#   du_n = q_{n+1} - q_n
#   dq_n = u_n - u_{n-1} + eps^2 (u_n^p - u_{n-1}^p)
#
# fpu_rk4 advances (u, q) in place for nsteps and returns a status:
# 0 on success, 1 if the sup-norm blow-up guard tripped (NaN trips it too).
# ---------------------------------------------------------------------------

def fpu_rhs(u, q, eps2, p):
    du = np.roll(q, -1) - q
    f = u + eps2 * u**p
    dq = f - np.roll(f, 1)
    return du, dq


def fpu_rk4(u, q, eps2, p, dt, nsteps, guard=1.0e6):
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
