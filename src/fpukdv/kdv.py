"""Pseudo-spectral integration of 2*W_tau + (1/12)*W_xxx + (W^p)_x = 0.

The linear part W_tau = (i k^3 / 24) W is propagated exactly; the nonlinear
part -(1/2)(W^p)_x is a dealiased pseudospectral product inside a
fourth-order exponential (ETDRK4) scheme with contour-quadrature
coefficients (Kassam & Trefethen, SISC 2005; Cox & Matthews, JCP 2002).
The integrator steps the rfft half-spectrum (modes 0..M/2) that a
``FieldProfile`` stores, so a run starts from a copy of ``W.coeffs`` and ends
in one ``FieldProfile.from_coeffs``.  Each stage runs in scratch arrays the
integrator allocates once, and transforms through ``core.irfft_into`` and
``core.rfft_into`` (numpy's pocketfft ufuncs called directly: np.fft's
numbers bit for bit, without its per-call overhead).  Integrators are
``lru_cache``d per process (``_integrator``), so one integrator must not be
stepped from two threads at once.  ``kdv_samples`` samples a run on the
clock of ``core.uniform_samples``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    BLOWUP_GUARD,
    BlowUpError,
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
    check_power,
    dealias_mask,
    dealiased_rfft,
    derivative,
    grid_points,
    int_power,
    irfft_into,
    rfft_into,
    rfft_wavenumbers,
    sobolev_norm,
    spectral_tail_fraction,
    uniform_samples,
)

# A tracked sample is flagged under-resolved when the top third of the
# spectrum holds more than this fraction of its H^s energy.
TAIL_TOL = 1.0e-8


@dataclass(frozen=True)
class KdvRunConfig:
    p: int
    L: float
    M: int
    dtau: float

    def __post_init__(self):
        if not isinstance(self.M, numbers.Integral) or self.M < 256 or self.M & (self.M - 1):
            raise InvalidInputError(f"M must be an integer power of two >= 256, got {self.M}")
        if not 0.0 < self.dtau < math.inf:
            raise InvalidInputError(f"dtau must be in (0, inf), got {self.dtau}")
        check_power(self.p)


@dataclass(frozen=True)
class SolitonSpec:
    p: int
    c: float
    center: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise InvalidInputError(f"wave speed c must be positive and finite, got {self.c}")
        check_power(self.p)

    @property
    def amplitude(self) -> float:
        return (self.c * (self.p + 1)) ** (1.0 / (self.p - 1))

    @property
    def width(self) -> float:
        return (self.p - 1) * math.sqrt(6.0 * self.c)


def soliton_profile(spec: SolitonSpec, L: float, M: int) -> FieldProfile:
    """Traveling-wave profile a*sech^(2/(p-1))(b*(x - center)) on [0, L).

    Solves the steady ODE (1/12) W'' + W^p = 2c W, so the profile advances
    with speed c in the slow time tau.
    """
    x = grid_points(L, M)
    d = (x - spec.center + L / 2.0) % L - L / 2.0
    w = spec.amplitude * (1.0 / np.cosh(spec.width * d)) ** (2.0 / (spec.p - 1))
    return FieldProfile.from_values(w, L)


def steady_residual(W: FieldProfile, p: int, c: float) -> np.ndarray:
    """(1/12) W'' + W^p - 2c W on the grid (zero for the exact soliton)."""
    wp = int_power(W.values, p, np.empty(W.M))
    return derivative(W, 2).values / 12.0 + wp - 2.0 * c * W.values


def time_derivative(W: FieldProfile, N: np.ndarray) -> FieldProfile:
    """W_tau = -(1/24) W_xxx - (1/2) (W^p)_x from W and the dealiased
    spectrum N^ of W^p: G^ = -(1/24) (ik)^3 W^ - (1/2) ik N^."""
    ik = 1j * W.wavenumbers()
    return FieldProfile.from_coeffs(-(ik**3 / 24.0) * W.coeffs - 0.5 * ik * N, W.L)


class NonlinearFields(NamedTuple):
    """The fields of W, besides W itself, that the ansatz and its residuals
    read: W^(p-1) on the grid, the dealiased spectrum N^ of W^p, and
    G = W_tau."""

    wpm1: np.ndarray
    N: np.ndarray
    G: FieldProfile


def nonlinear_fields(W: FieldProfile, p: int) -> NonlinearFields:
    """W^(p-1), N^ = (W^p)^ and G = W_tau, each formed once."""
    w = W.values
    wpm1 = int_power(w, p - 1, np.empty(W.M))
    N = dealiased_rfft(wpm1 * w)
    return NonlinearFields(wpm1, N, time_derivative(W, N))


class KdvIntegrator:
    """ETDRK4 stepper; owns precomputed propagators for one (M, L, dtau).

    The step carries the profile's rfft half-spectrum (modes 0..M/2).  Its
    wavenumber is zeroed at Nyquist, so the odd symbols ik and i k^3 vanish
    there and the Nyquist coefficient stays real and constant.

    The nonlinear multiplier -(1/2) ik (with the 2/3-rule mask) is folded
    into the phi-coefficients g0..g3, so a stage is irfft, W^p and rfft.
    Every stage writes into scratch arrays allocated once here, so a step
    allocates nothing.  That scratch is per-call state, so an integrator
    (cached per process by ``_integrator``) must not be shared across threads.
    """

    def __init__(self, cfg: KdvRunConfig):
        self.cfg = cfg
        M, L, h = cfg.M, cfg.L, cfg.dtau
        k = rfft_wavenumbers(L, M)
        k[-1] = 0.0  # odd symbols vanish at Nyquist, as in core.derivative
        ik = 1j * k
        lin = 1j * k**3 / 24.0
        hlin = h * lin
        self.exp_full = np.exp(hlin)
        self.exp_half = np.exp(0.5 * h * lin)
        # contour quadrature for the phi-functions on 32 points of the full
        # unit circle (complex coefficients: the linear operator is dispersive),
        # summed one point at a time so that no (M/2+1) x 32 table is formed
        f = np.zeros((4, M // 2 + 1), dtype=complex)
        for r in np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32):
            z = hlin + r
            ez, z2, z3 = np.exp(z), z**2, z**3
            f[0] += (np.exp(z / 2.0) - 1.0) / z
            f[1] += (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3
            f[2] += (2.0 + z + ez * (z - 2.0)) / z3
            f[3] += (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3
        f *= h / 32  # the mean over the points; h / 32 is exact
        f0, f1, f2, f3 = f
        # -(1/2) d/dx with the 2/3-rule dealiasing, folded into the phi-coefficients
        nl_mult = -0.5 * ik * dealias_mask(M)
        self.g0 = f0 * nl_mult
        self.g1 = f1 * nl_mult
        self.g2 = 2.0 * f2 * nl_mult
        self.g3 = f3 * nl_mult
        # scratch: grid values, W^p, the four stage spectra and three stage vectors
        self._w = np.empty(M)
        self._wp = np.empty(M)
        self._n = [np.empty(M // 2 + 1, dtype=complex) for _ in range(4)]
        self._ehv = np.empty(M // 2 + 1, dtype=complex)
        self._s1 = np.empty(M // 2 + 1, dtype=complex)
        self._s2 = np.empty(M // 2 + 1, dtype=complex)

    def _power_spectrum(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = rfft(w^p) for w = irfft(v); raises BlowUpError when
        sup|w| > BLOWUP_GUARD (NaN included)."""
        w, wp = self._w, self._wp
        irfft_into(v, w)
        np.multiply(w, w, out=wp)
        # sup|w| <= guard tested on w*w, the first product of W^p = ((w*w)*w)*...;
        # the max is NaN if any w is, and NaN fails the comparison
        if not (wp.max() <= BLOWUP_GUARD**2):
            raise BlowUpError("KdV solution exceeded the sup-norm guard")
        for _ in range(self.cfg.p - 2):
            np.multiply(wp, w, out=wp)
        return rfft_into(wp, out)

    def _step(self, v: np.ndarray, out: np.ndarray) -> None:
        """out = one ETDRK4 step from v; out must not overlap v."""
        n0, n1, n2, n3 = self._n
        ehv, s1, s2 = self._ehv, self._s1, self._s2
        self._power_spectrum(v, n0)
        np.multiply(self.exp_half, v, out=ehv)
        np.multiply(self.g0, n0, out=s1)
        np.add(ehv, s1, out=s1)                         # v1 = E_h v + g0 N0
        self._power_spectrum(s1, n1)
        np.multiply(self.g0, n1, out=s2)
        np.add(ehv, s2, out=s2)                         # v2 = E_h v + g0 N1
        self._power_spectrum(s2, n2)
        np.multiply(n2, 2.0, out=s2)
        np.subtract(s2, n0, out=s2)
        np.multiply(self.g0, s2, out=s2)
        np.multiply(self.exp_half, s1, out=s1)
        np.add(s1, s2, out=s1)                          # v3 = E_h v1 + g0 (2 N2 - N0)
        self._power_spectrum(s1, n3)
        np.multiply(self.exp_full, v, out=out)
        np.multiply(self.g1, n0, out=s2)
        np.add(out, s2, out=out)
        np.add(n1, n2, out=s2)
        np.multiply(self.g2, s2, out=s2)
        np.add(out, s2, out=out)
        np.multiply(self.g3, n3, out=s2)
        np.add(out, s2, out=out)                        # E v + g1 N0 + g2 (N1 + N2) + g3 N3

    def run(self, W: FieldProfile, n_steps: int) -> FieldProfile:
        cfg = self.cfg
        if W.M != cfg.M or W.L != cfg.L:
            raise ConfigurationError(f"profile (M = {W.M}, L = {W.L}) does not match "
                                     f"the run (M = {cfg.M}, L = {cfg.L})")
        v = W.coeffs.copy()
        out = np.empty_like(v)
        for _ in range(n_steps):
            self._step(v, out)
            v, out = out, v
        return FieldProfile.from_coeffs(v, W.L)


@lru_cache(maxsize=32)
def _integrator(cfg: KdvRunConfig) -> KdvIntegrator:
    return KdvIntegrator(cfg)


def kdv_integrate(W: FieldProfile, cfg: KdvRunConfig, n_steps: int) -> FieldProfile:
    return _integrator(cfg).run(W, n_steps)


def kdv_samples(W: FieldProfile, cfg: KdvRunConfig, tau_end: float, n_samples: int):
    """Yield (tau_i, W at tau_i) for tau_i = i * (tau_end / n_samples),
    i = 0..n_samples, starting with W.

    ``core.uniform_samples`` keeps the time: each interval is one
    ``kdv_integrate`` call of equal steps of size <= cfg.dtau.
    """
    return uniform_samples(lambda W, n, dt: kdv_integrate(W, replace(cfg, dtau=dt), n),
                           W, tau_end, n_samples, cfg.dtau)


def kdv_invariants(W: FieldProfile, p: int) -> tuple[float, float, float]:
    """(mass, momentum, energy) by spectral quadrature.

    mass = int W, momentum = int W^2,
    energy = int [ (1/24) (W_x)^2 - (1/(p+1)) W^(p+1) ].
    """
    dx = W.L / W.M
    mass = float(dx * np.sum(W.values))
    momentum = float(dx * np.sum(W.values**2))
    wx = derivative(W, 1).values
    wp1 = int_power(W.values, p + 1, np.empty(W.M))
    energy = float(dx * np.sum(wx**2 / 24.0 - wp1 / (p + 1)))
    return mass, momentum, energy


@dataclass(frozen=True)
class KdvSample:
    """One tracked sample; its fields are the kdv CSV's columns, in order."""

    tau: float
    mass: float
    momentum: float
    energy: float
    Hs_norm: float
    sup_norm: float
    resolution_flag: bool


def track_norm_growth(
    W0: FieldProfile,
    cfg: KdvRunConfig,
    s: float,
    tau_end: float,
    n_samples: int,
) -> list[KdvSample]:
    """Invariants, H^s norm and sup norm at the n_samples + 1 sample times of
    ``kdv_samples`` (tau = 0 included); each sample's resolution flag
    compares the spectral tail with ``TAIL_TOL``."""
    return [KdvSample(tau, *kdv_invariants(W, cfg.p), sobolev_norm(W, s),
                      float(np.max(np.abs(W.values))), spectral_tail_fraction(W, s) > TAIL_TOL)
            for tau, W in kdv_samples(W0, cfg, tau_end, n_samples)]
