"""Time integration of the FPU first-order system on the periodic lattice.

    du_n/dt = q_{n+1} - q_n
    dq_n/dt = u_n - u_{n-1} + eps^2 (u_n^p - u_{n-1}^p)

One integrator: Blanes & Moan's order-4 symplectic splitting S6, whose linear
flows are solved exactly in Fourier space and whose nonlinear kicks act on the
momentum spectrum only.  The RK4 loop in kernels.py is kept as a reference for
tests; no run uses it.  ``lattice_samples`` samples a run on the clock of
``core.uniform_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import (
    BlowUpError,
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
    uniform_samples,
)

BLOWUP_GUARD = 1.0e6


@dataclass(frozen=True)
class FpuRunConfig:
    params: ModelParams
    t_end: float = 0.0

    def __post_init__(self):
        if self.t_end < 0.0:
            raise InvalidInputError("t_end must be nonnegative")


def fpu_energy(state: LatticeState, epsilon: float, p: int) -> float:
    """H = (1/2) sum(q^2 + u^2 + 2 eps^2/(p+1) u^(p+1))."""
    u, q = state.u, state.q
    up1 = kernels.int_power(u, p + 1, np.empty_like(u))
    return float(0.5 * np.sum(q * q + u * u + (2.0 * epsilon**2 / (p + 1)) * up1))


# Blanes & Moan's six-stage order-4 splitting S6 (J. Comput. Appl. Math. 142
# (2002) 313): one step is a1 b1 a2 b2 a3 b3 a4 b3 a3 b2 a2 b1 a1, where a is
# the exact linear flow and b the nonlinear kick, each for that fraction of dt.
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A4 = 1.0 - 2.0 * (_A1 + _A2 + _A3)
_B1, _B2 = 0.209515106613362, -0.143851773179818
_B3 = 0.5 - _B1 - _B2


class _S6Stepper:
    """The S6 splitting on the rfft half-spectra (u^, q^).

    With kappa = 2 pi m / N the linear part is u^' = alpha q^, q^' = beta u^
    (alpha = e^{i kappa} - 1, beta = e^{-i kappa} alpha, alpha beta = -omega^2),
    solved exactly; a kick is q^ += b dt eps^2 beta rfft(u^p), u = irfft(u^).
    Inside one chunk the closing a1 flow of a step and the opening a1 flow of
    the next run as one 2 a1 flow.
    """

    def __init__(self, N: int, dt: float, eps2: float, p: int):
        kappa = 2.0 * np.pi * np.fft.rfftfreq(N)
        omega = 2.0 * np.sin(kappa / 2.0)
        alpha = np.exp(1j * kappa) - 1.0
        beta = np.exp(-1j * kappa) * alpha
        flow = {a: self._flow(omega, alpha, beta, a * dt) for a in (_A1, _A2, _A3, _A4, 2.0 * _A1)}
        kick = {b: b * dt * eps2 * beta for b in (_B1, _B2, _B3)}
        self.kicks = tuple(kick[b] for b in (_B1, _B2, _B3, _B3, _B2, _B1))
        # the flows after kicks 1-5; the one after kick 6 closes the step
        self.inner = tuple(flow[a] for a in (_A2, _A3, _A4, _A3, _A2))
        self.first, self.joint = flow[_A1], flow[2.0 * _A1]
        self.N = N
        self.p = p

    @staticmethod
    def _flow(omega, alpha, beta, h):
        """(cos(w h), sinc alpha, sinc beta) with sinc = sin(w h)/w, limit h at w = 0.

        cos is stored complex: numpy multiplies complex by complex faster
        than it casts a real factor."""
        sinc = np.where(omega == 0.0, h, np.sin(omega * h) / np.where(omega == 0.0, 1.0, omega))
        return np.cos(omega * h).astype(complex), sinc * alpha, sinc * beta

    @staticmethod
    def _linear(uh, qh, flow, su, sq):
        """(u^, q^) <- exact linear flow, in place; su and sq are scratch."""
        cos, sa, sb = flow
        np.multiply(sa, qh, out=su)
        np.multiply(sb, uh, out=sq)
        np.multiply(cos, uh, out=uh)
        np.add(uh, su, out=uh)
        np.multiply(cos, qh, out=qh)
        np.add(qh, sq, out=qh)

    def steps(self, u, q, nsteps):
        """Advance grid arrays (u, q) by nsteps; returns (u, q, status).

        status is 1 if the NaN-safe sup-norm guard tripped, 0 otherwise.  It
        is checked on the grid u of each step's first kick and on the result.
        """
        if nsteps == 0:
            return u, q, 0
        N, p = self.N, self.p
        uh, qh = np.fft.rfft(u), np.fft.rfft(q)
        fh, sq = np.empty_like(uh), np.empty_like(uh)
        w, f = np.empty(N), np.empty(N)
        self._linear(uh, qh, self.first, fh, sq)
        for i in range(nsteps):
            closing = self.first if i == nsteps - 1 else self.joint
            for j, (kick, flow) in enumerate(zip(self.kicks, (*self.inner, closing))):
                np.fft.irfft(uh, n=N, out=w)
                if j == 0 and not (np.abs(w, out=f).max() <= BLOWUP_GUARD):
                    return w, np.fft.irfft(qh, n=N), 1
                np.fft.rfft(kernels.int_power(w, p, f), out=fh)
                np.multiply(kick, fh, out=fh)
                np.add(qh, fh, out=qh)
                self._linear(uh, qh, flow, fh, sq)
        u, q = np.fft.irfft(uh, n=N), np.fft.irfft(qh, n=N)
        return u, q, 0 if np.abs(u).max() <= BLOWUP_GUARD else 1


def fpu_integrate(state: LatticeState, cfg: FpuRunConfig) -> LatticeState:
    """Advance the state by the duration cfg.t_end in one chunk of steps of
    size cfg.params.dt_lattice.  Deterministic for a fixed config."""
    params = cfg.params
    if state.N != params.N:
        raise ConfigurationError(f"state has {state.N} sites, the run expects N = {params.N}")
    dt = params.dt_lattice
    n_total = int(round(cfg.t_end / dt))
    if abs(n_total * dt - cfg.t_end) > 1.0e-9 * max(1.0, cfg.t_end):
        raise InvalidInputError("t_end must be an integer multiple of dt_lattice")
    stepper = _S6Stepper(state.N, dt, params.epsilon**2, params.p)
    u, q, status = stepper.steps(state.u.copy(), state.q.copy(), n_total)
    if status != 0:
        raise BlowUpError(f"FPU solution exceeded the sup-norm guard in a run of {cfg.t_end}")
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
