"""Numerical kernels: the integer power and periodic differences the package
uses, plus two references that only tests run: the FPU right-hand side with
its RK4 loop (the oracle for the lattice splitting in fpu.py) and the direct
Fourier sum (the oracle for the lattice sampler).

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
# No run uses them: fpu.fpu_integrate runs the order-4 splitting, and tests
# compare it against fine-step fpu_rk4.
#
#   du_n = q_{n+1} - q_n
#   dq_n = u_n - u_{n-1} + eps^2 (u_n^p - u_{n-1}^p)
#
# The state is stacked as y = [u; q].  fpu_rhs writes into a caller-owned
# buffer, periodic differences are a slice difference plus one wrapped
# element, and u^p is repeated multiplication (numpy's u**p calls pow() for
# p >= 3, some 40x slower).  A step therefore allocates and copies nothing.
#
# fpu_rk4 advances (u, q) in place for nsteps and returns a status:
# 0 on success, 1 if the sup-norm blow-up guard tripped (NaN trips it too);
# on a trip (u, q) hold the state of the step that tripped.
# ---------------------------------------------------------------------------

def int_power(u, p, out):
    """out = u^p for an integer p >= 1, as ((u*u)*u)*...; for p = 2 this
    is bit-for-bit u**2."""
    if p == 1:
        np.copyto(out, u)
        return out
    np.multiply(u, u, out=out)
    for _ in range(p - 2):
        np.multiply(out, u, out=out)
    return out


def forward_diff(q, out):
    """out[n] = q[n+1] - q[n], periodic; out must not overlap q."""
    np.subtract(q[1:], q[:-1], out=out[:-1])
    out[-1] = q[0] - q[-1]
    return out


def backward_diff(f, out):
    """out[n] = f[n] - f[n-1], periodic; out must not overlap f."""
    np.subtract(f[1:], f[:-1], out=out[1:])
    out[0] = f[0] - f[-1]
    return out


def fpu_rhs(src, dst, eps2, p, work):
    """dst = rhs(src) for stacked src = [u; q]; work is a length-N scratch."""
    N = work.shape[0]
    u, q = src[:N], src[N:]
    forward_diff(q, dst[:N])
    int_power(u, p, work)
    np.multiply(work, eps2, out=work)
    np.add(u, work, out=work)
    backward_diff(work, dst[N:])


def fpu_rk4(u, q, eps2, p, dt, nsteps, guard=1.0e6):
    N = u.shape[0]
    y = np.concatenate([u, q])
    acc = np.empty_like(y)   # k1 + 2 k2 + 2 k3 + k4, summed left to right
    k = np.empty_like(y)
    stage = np.empty_like(y)
    work = np.empty(N)
    h = 0.5 * dt
    w = dt / 6.0
    status = 0
    for _ in range(nsteps):
        fpu_rhs(y, acc, eps2, p, work)             # acc = k1
        np.multiply(acc, h, out=stage)
        np.add(y, stage, out=stage)                # y + h k1
        fpu_rhs(stage, k, eps2, p, work)           # k = k2
        np.multiply(k, h, out=stage)
        np.add(y, stage, out=stage)                # y + h k2
        np.multiply(k, 2.0, out=k)
        np.add(acc, k, out=acc)                    # k1 + 2 k2
        fpu_rhs(stage, k, eps2, p, work)           # k = k3
        np.multiply(k, dt, out=stage)
        np.add(y, stage, out=stage)                # y + dt k3
        np.multiply(k, 2.0, out=k)
        np.add(acc, k, out=acc)                    # k1 + 2 k2 + 2 k3
        fpu_rhs(stage, k, eps2, p, work)           # k = k4
        np.add(acc, k, out=acc)
        np.multiply(acc, w, out=acc)
        np.add(y, acc, out=y)                      # y + (dt/6) (...)
        if not (np.abs(y[:N], out=work).max() <= guard):
            status = 1
            break
    u[:] = y[:N]
    q[:] = y[N:]
    return status
