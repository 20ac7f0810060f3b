"""Time integration of the FPU first-order system on the periodic lattice.

    du_n/dt = q_{n+1} - q_n
    dq_n/dt = u_n - u_{n-1} + eps^2 (u_n^p - u_{n-1}^p)

One integrator: Blanes & Moan's order-4 symplectic splitting S6, stepped on
the normal modes of the linear chain, which its exact linear flow turns by a
phase per mode; each nonlinear kick and the flow after it are one update of
those modes.  The two transforms of each kick go through
``core.irfft_into`` and ``core.rfft_into``: numpy's pocketfft ufuncs called
directly, np.fft's numbers bit for bit without its per-call overhead.  Tests
check the splitting against the textbook RK4 loop in kernels.py, which no run
imports.  ``lattice_samples`` samples a run on the clock of
``core.uniform_samples``.  Initial states are built in ``harness`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BLOWUP_GUARD,
    BlowUpError,
    InvalidInputError,
    LatticeState,
    ModelParams,
    int_power,
    irfft_into,
    rfft_into,
    rfft_wavenumbers,
    uniform_samples,
)


@dataclass(frozen=True)
class FpuRunConfig:
    params: ModelParams
    t_end: float

    def __post_init__(self):
        if not 0.0 <= self.t_end < math.inf:
            raise InvalidInputError(f"t_end must be in [0, inf), got {self.t_end}")


def fpu_energy(state: LatticeState, epsilon: float, p: int) -> float:
    """H = (1/2) sum(q^2 + u^2 + 2 eps^2/(p+1) u^(p+1))."""
    u, q = state.u, state.q
    up1 = int_power(u, p + 1, np.empty_like(u))
    return float(0.5 * np.sum(q * q + u * u + (2.0 * epsilon**2 / (p + 1)) * up1))


# Blanes & Moan's six-stage order-4 splitting S6 (J. Comput. Appl. Math. 142
# (2002) 313): one step is a1 b1 a2 b2 a3 b3 a4 b3 a3 b2 a2 b1 a1, where a is
# the exact linear flow and b the nonlinear kick, each for that fraction of dt.
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A4 = 1.0 - 2.0 * (_A1 + _A2 + _A3)
_B1, _B2 = 0.209515106613362, -0.143851773179818
_B3 = 0.5 - _B1 - _B2


class _S6Stepper:
    """The S6 splitting on the normal modes of the linear chain.

    With kappa = 2 pi m / N, g = e^{i kappa/2} and omega = 2 sin(kappa/2),
    the modes z+- = (u^ +- g q^)/2 of the rfft half-spectra turn by
    e^{+-i omega h} under the linear flow, u^ = z+ + z-, q^ = (z+ - z-)/g,
    and a kick adds +-i omega b dt eps^2 rfft(u^p)/2 to z+-.  Each kick is
    taken with the flow after it as one pair (D, E): z <- E z + D rfft(u^p).
    A run turns z by a1 on entry and back by a1 before exit, so that every
    step's sixth kick is followed by the 2 a1 flow that joins it to the next.
    """

    def __init__(self, N: int, dt: float, eps2: float, p: int):
        kappa = rfft_wavenumbers(N, N)  # unit site spacing
        iw = np.array([[1j], [-1j]]) * (2.0 * np.sin(kappa / 2.0))  # +-i omega, (2, N//2+1)
        self.g = np.exp(0.5j * kappa)
        self.entry = np.exp(_A1 * dt * iw)
        self.pairs = []
        for b, a in zip((_B1, _B2, _B3, _B3, _B2, _B1), (_A2, _A3, _A4, _A3, _A2, 2.0 * _A1)):
            E = np.exp(a * dt * iw)
            self.pairs.append((E * iw * (0.5 * b * dt * eps2), E))
        self.N, self.p = N, p

    def steps(self, u, q, nsteps):
        """Advance grid arrays (u, q) by nsteps; returns (u, q).

        Raises BlowUpError when the NaN-safe sup-norm guard trips; it is
        checked on the grid u of each step's first kick and on the result.
        """
        if nsteps == 0:
            return u, q
        N, p, g = self.N, self.p, self.g
        uh, gq = np.fft.rfft(u), g * np.fft.rfft(q)
        z = self.entry * np.stack(((uh + gq) / 2.0, (uh - gq) / 2.0))
        w, f = np.empty(N), np.empty(N)
        fh, dz = np.empty_like(uh), np.empty_like(z)
        for _ in range(nsteps):
            for j, (D, E) in enumerate(self.pairs):
                irfft_into(np.add(z[0], z[1], out=uh), w)
                if j == 0 and not (np.abs(w, out=f).max() <= BLOWUP_GUARD):
                    raise BlowUpError("FPU solution exceeded the sup-norm guard")
                rfft_into(int_power(w, p, f), fh)
                np.multiply(E, z, out=z)
                np.multiply(D, fh, out=dz)
                np.add(z, dz, out=z)
        z *= self.entry.conj()
        u = np.fft.irfft(z[0] + z[1], n=N)
        if not np.abs(u).max() <= BLOWUP_GUARD:
            raise BlowUpError("FPU solution exceeded the sup-norm guard")
        return u, np.fft.irfft((z[0] - z[1]) / g, n=N)


def fpu_integrate(state: LatticeState, cfg: FpuRunConfig) -> LatticeState:
    """Advance the state, on its own N sites, by the duration cfg.t_end in
    one chunk of steps of size cfg.params.dt_lattice.  Deterministic for a
    fixed config; a blow-up raises BlowUpError."""
    params = cfg.params
    dt = params.dt_lattice
    n_total = int(round(cfg.t_end / dt))
    if abs(n_total * dt - cfg.t_end) > 1.0e-9 * max(1.0, cfg.t_end):
        raise InvalidInputError("t_end must be an integer multiple of dt_lattice")
    stepper = _S6Stepper(state.N, dt, params.epsilon**2, params.p)
    u, q = stepper.steps(state.u.copy(), state.q.copy(), n_total)
    return LatticeState(u=u, q=q)


def lattice_samples(state: LatticeState, params: ModelParams, t_end: float, n_samples: int):
    """Yield (t_i, state at t_i) for t_i = i * (t_end / n_samples), i = 0..n_samples,
    starting with the given state.

    ``core.uniform_samples`` keeps the time: each interval is one
    ``fpu_integrate`` call of equal steps of size <= params.dt_lattice.
    """
    def advance(state, n, dt):
        return fpu_integrate(state, FpuRunConfig(replace(params, dt_lattice=dt), t_end=n * dt))

    return uniform_samples(advance, state, t_end, n_samples, params.dt_lattice)
