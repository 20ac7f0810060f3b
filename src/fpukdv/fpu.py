"""Time integration of the FPU first-order system on the periodic lattice.

    du_n/dt = q_{n+1} - q_n
    dq_n/dt = u_n - u_{n-1} + eps^2 (u_n^p - u_{n-1}^p)

Two integrators: classical RK4 (default, the in-place loop in kernels.py) and
a symmetric Strang splitting whose linear half-steps are solved exactly in
Fourier space, for long conservation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import (
    BlowUpError,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
)

BLOWUP_GUARD = 1.0e6
DT_CAP = 0.25


@dataclass(frozen=True)
class FpuRunConfig:
    params: ModelParams
    integrator: str = "rk4"
    t_end: float = 0.0
    sample_stride: int = 1

    def __post_init__(self):
        if self.integrator not in ("rk4", "splitting"):
            raise InvalidInputError(f"unknown integrator {self.integrator!r}")
        if self.t_end < 0.0:
            raise InvalidInputError("t_end must be nonnegative")
        if self.sample_stride < 1:
            raise InvalidInputError("sample_stride must be >= 1")
        if self.params.dt_lattice > DT_CAP:
            raise InvalidInputError(
                f"dt_lattice = {self.params.dt_lattice} exceeds the stability cap {DT_CAP}"
            )


def fpu_rhs(state: LatticeState, epsilon: float, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side with periodic index arithmetic.

    An allocating wrapper over the in-place ``kernels.fpu_rhs`` that the RK4
    loop runs, so both evaluate the same formula.
    """
    N = state.N
    y = np.concatenate([state.u, state.q])
    dy = np.empty_like(y)
    kernels.fpu_rhs(y, dy, epsilon**2, p, np.empty(N))
    return dy[:N], dy[N:]


def fpu_energy(state: LatticeState, epsilon: float, p: int) -> float:
    """H = (1/2) sum(q^2 + u^2 + 2 eps^2/(p+1) u^(p+1))."""
    u, q = state.u, state.q
    return float(
        0.5 * np.sum(q * q + u * u + (2.0 * epsilon**2 / (p + 1)) * u ** (p + 1))
    )


class _SplittingStepper:
    """Strang splitting: exact linear flow (FFT) around a nonlinear kick."""

    def __init__(self, N: int, dt: float):
        kappa = 2.0 * np.pi * np.fft.rfftfreq(N)
        omega = 2.0 * np.sin(kappa / 2.0)
        half = 0.5 * dt
        self.cos = np.cos(omega * half)
        # sin(w h)/w with the w = 0 limit h
        self.sinc = np.where(omega == 0.0, half, np.sin(omega * half) / np.where(omega == 0.0, 1.0, omega))
        self.alpha = np.exp(1j * kappa) - 1.0
        self.beta = np.exp(-1j * kappa) * self.alpha
        self.dt = dt

    def _linear_half(self, u: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        uh = np.fft.rfft(u)
        qh = np.fft.rfft(q)
        un = self.cos * uh + self.sinc * self.alpha * qh
        qn = self.cos * qh + self.sinc * self.beta * uh
        return np.fft.irfft(un, n=u.shape[0]), np.fft.irfft(qn, n=u.shape[0])

    def steps(self, u, q, eps2, p, nsteps):
        f = np.empty_like(u)
        df = np.empty_like(u)
        for _ in range(nsteps):
            u, q = self._linear_half(u, q)
            # kick q += dt * eps^2 (u_n^p - u_{n-1}^p); q is a fresh irfft output
            np.multiply(kernels.int_power(u, p, f), eps2, out=f)
            np.multiply(kernels.backward_diff(f, df), self.dt, out=df)
            np.add(q, df, out=q)
            u, q = self._linear_half(u, q)
            if not (np.max(np.abs(u)) <= BLOWUP_GUARD):
                return u, q, 1
        return u, q, 0


def fpu_integrate(
    state: LatticeState,
    cfg: FpuRunConfig,
    observer: Callable[[LatticeState], None] | None = None,
) -> LatticeState:
    """Advance to cfg.t_end, invoking observer every sample_stride steps.

    The observer (if any) also sees the initial state.  Deterministic for a
    fixed config.
    """
    params = cfg.params
    dt = params.dt_lattice
    n_total = int(round(cfg.t_end / dt))
    if abs(n_total * dt - cfg.t_end) > 1.0e-9 * max(1.0, cfg.t_end):
        raise InvalidInputError("t_end must be an integer multiple of dt_lattice")
    eps2 = params.epsilon**2
    u = state.u.copy()
    q = state.q.copy()
    t = state.t
    if observer is not None:
        observer(LatticeState(u=u.copy(), q=q.copy(), t=t))
    stepper = _SplittingStepper(u.shape[0], dt) if cfg.integrator == "splitting" else None
    done = 0
    while done < n_total:
        n = min(cfg.sample_stride, n_total - done)
        if stepper is None:
            status = kernels.fpu_rk4(u, q, eps2, params.p, dt, n, BLOWUP_GUARD)
        else:
            u, q, status = stepper.steps(u, q, eps2, params.p, n)
        done += n
        t = state.t + done * dt
        if status != 0:
            raise BlowUpError(f"FPU solution exceeded the sup-norm guard at t = {t}")
        if observer is not None:
            observer(LatticeState(u=u.copy(), q=q.copy(), t=t))
    return LatticeState(u=u, q=q, t=t)


def traveling_wave_initializer(
    p: int,
    c: float,
    epsilon: float,
    L: float,
    M: int,
    N: int,
) -> tuple[LatticeState, FieldProfile]:
    """KdV-soliton surrogate of the lattice traveling wave (O(eps^(3/2)) accurate).

    Returns the sampled ansatz state and the underlying soliton profile.
    This is the leading-order approximation of the exact lattice wave, not
    the wave itself.
    """
    from .ansatz import initial_lattice_data
    from .kdv import SolitonSpec, soliton_profile

    W0 = soliton_profile(SolitonSpec(p=p, c=c, center=L / 2.0), L, M)
    state, _ = initial_lattice_data(W0, epsilon, p, N)
    return state, W0
