"""Pseudo-spectral integration of 2*W_tau + (1/12)*W_xxx + (W^p)_x = 0.

The linear part W_tau = (i k^3 / 24) W is propagated exactly; the nonlinear
part -(1/2)(W^p)_x is a dealiased pseudospectral product inside a
fourth-order exponential (ETDRK4) scheme with contour-quadrature
coefficients (Kassam & Trefethen, SISC 2005; Cox & Matthews, JCP 2002).
The integrator steps the rfft half-spectrum (modes 0..M/2) that a
``FieldProfile`` stores, so a run starts from ``W.coeffs`` and ends in one
``FieldProfile.from_coeffs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BlowUpError,
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
    dealias_mask,
    derivative,
    pointwise_power,
    sobolev_norm,
    spectral_tail_fraction,
)
from .kernels import int_power

BLOWUP_GUARD = 1.0e6


@dataclass(frozen=True)
class KdvRunConfig:
    p: int
    L: float
    M: int
    dtau: float
    tau_end: float = 0.0

    def __post_init__(self):
        if self.M < 256 or self.M & (self.M - 1) != 0:
            raise InvalidInputError(f"M must be a power of two >= 256, got {self.M}")
        if self.dtau <= 0.0:
            raise InvalidInputError("dtau must be positive")
        if self.tau_end < 0.0:
            raise InvalidInputError("tau_end must be nonnegative")
        if self.p < 2:
            raise InvalidInputError(f"p must be >= 2, got {self.p}")


@dataclass(frozen=True)
class SolitonSpec:
    p: int
    c: float
    center: float = 0.0

    def __post_init__(self):
        if self.c <= 0.0:
            raise InvalidInputError(f"wave speed c must be positive, got {self.c}")
        if self.p < 2:
            raise InvalidInputError(f"p must be >= 2, got {self.p}")

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
    x = np.arange(M) * (L / M)
    d = (x - spec.center + L / 2.0) % L - L / 2.0
    w = spec.amplitude * (1.0 / np.cosh(spec.width * d)) ** (2.0 / (spec.p - 1))
    return FieldProfile.from_values(w, L, 0.0)


def steady_residual(W: FieldProfile, p: int, c: float) -> np.ndarray:
    """(1/12) W'' + W^p - 2c W on the grid (zero for the exact soliton)."""
    return derivative(W, 2).values / 12.0 + W.values**p - 2.0 * c * W.values


def time_derivative(W: FieldProfile, p: int) -> FieldProfile:
    """W_tau = -(1/24) W_xxx - (1/2) (W^p)_x, evaluated spectrally (W^p dealiased)."""
    wp = pointwise_power(W, p)
    d3 = derivative(W, 3)
    dwp = derivative(wp, 1)
    return FieldProfile.from_coeffs(-d3.coeffs / 24.0 - 0.5 * dwp.coeffs, W.L, W.tau)


class KdvIntegrator:
    """ETDRK4 stepper; owns precomputed propagators for one (M, L, dtau).

    The step carries the profile's rfft half-spectrum (modes 0..M/2).  Its
    wavenumber is zeroed at Nyquist, so the odd symbols ik and i k^3 vanish
    there and the Nyquist coefficient stays real and constant.
    """

    def __init__(self, cfg: KdvRunConfig):
        self.cfg = cfg
        M, L, h = cfg.M, cfg.L, cfg.dtau
        k = 2.0 * np.pi * np.fft.rfftfreq(M, d=L / M)
        k[-1] = 0.0  # odd symbols vanish at Nyquist, as in core.derivative
        ik = 1j * k
        lin = 1j * k**3 / 24.0
        self.exp_full = np.exp(h * lin)
        self.exp_half = np.exp(0.5 * h * lin)
        # contour quadrature for the phi-functions on 32 points of the full
        # unit circle (complex coefficients: the linear operator is dispersive)
        r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        lr = h * lin[:, None] + r[None, :]
        elr = np.exp(lr)
        self.f0 = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
        self.f1 = h * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
        self.f2 = h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
        self.f3 = h * np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1)
        # -(1/2) d/dx with the 2/3-rule dealiasing folded in
        self.nl_mult = -0.5 * ik * dealias_mask(M)

    def _nonlinear(self, v: np.ndarray) -> np.ndarray:
        w = np.fft.irfft(v, n=self.cfg.M)
        if not (np.max(np.abs(w)) <= BLOWUP_GUARD):
            raise BlowUpError("KdV solution exceeded the sup-norm guard")
        wp = int_power(w, self.cfg.p, np.empty_like(w))
        return self.nl_mult * np.fft.rfft(wp)

    def step_coeffs(self, v: np.ndarray) -> np.ndarray:
        n0 = self._nonlinear(v)
        v1 = self.exp_half * v + self.f0 * n0
        n1 = self._nonlinear(v1)
        v2 = self.exp_half * v + self.f0 * n1
        n2 = self._nonlinear(v2)
        v3 = self.exp_half * v1 + self.f0 * (2.0 * n2 - n0)
        n3 = self._nonlinear(v3)
        return self.exp_full * v + self.f1 * n0 + 2.0 * self.f2 * (n1 + n2) + self.f3 * n3

    def run(self, W: FieldProfile, n_steps: int) -> FieldProfile:
        cfg = self.cfg
        if W.M != cfg.M or W.L != cfg.L:
            raise ConfigurationError(f"profile (M = {W.M}, L = {W.L}) does not match "
                                     f"the run (M = {cfg.M}, L = {cfg.L})")
        v = W.coeffs
        for _ in range(n_steps):
            v = self.step_coeffs(v)
        return FieldProfile.from_coeffs(v, W.L, W.tau + n_steps * cfg.dtau)


@lru_cache(maxsize=32)
def _integrator(cfg: KdvRunConfig) -> KdvIntegrator:
    return KdvIntegrator(cfg)


def kdv_integrate(W: FieldProfile, cfg: KdvRunConfig, n_steps: int) -> FieldProfile:
    return _integrator(cfg).run(W, n_steps)


def kdv_invariants(W: FieldProfile, p: int) -> tuple[float, float, float]:
    """(mass, momentum, energy) by spectral quadrature.

    mass = int W, momentum = int W^2,
    energy = int [ (1/24) (W_x)^2 - (1/(p+1)) W^(p+1) ].
    """
    dx = W.L / W.M
    mass = float(dx * np.sum(W.values))
    momentum = float(dx * np.sum(W.values**2))
    wx = derivative(W, 1).values
    energy = float(dx * np.sum(wx**2 / 24.0 - W.values ** (p + 1) / (p + 1)))
    return mass, momentum, energy


@dataclass(frozen=True)
class KdvSample:
    tau: float
    mass: float
    momentum: float
    energy: float
    hs_norm: float
    sup_norm: float
    resolution_flag: bool


def track_norm_growth(
    W0: FieldProfile,
    cfg: KdvRunConfig,
    s: float,
    n_samples: int = 50,
    tail_tol: float = 1.0e-8,
) -> list[KdvSample]:
    """Integrate to cfg.tau_end recording invariants and the H^s norm.

    Each sample carries a resolution flag set when the top third of the
    spectrum holds more than ``tail_tol`` of the H^s energy.
    """
    n_total = int(round(cfg.tau_end / cfg.dtau))
    if abs(n_total * cfg.dtau - cfg.tau_end) > 1.0e-9 * max(1.0, cfg.tau_end):
        raise InvalidInputError("tau_end must be an integer multiple of dtau")
    stride = max(1, n_total // max(1, n_samples))
    integ = _integrator(cfg)

    def sample(W: FieldProfile) -> KdvSample:
        mass, momentum, energy = kdv_invariants(W, cfg.p)
        return KdvSample(
            tau=W.tau,
            mass=mass,
            momentum=momentum,
            energy=energy,
            hs_norm=sobolev_norm(W, s),
            sup_norm=float(np.max(np.abs(W.values))),
            resolution_flag=spectral_tail_fraction(W, s) > tail_tol,
        )

    out = [sample(W0)]
    W = W0
    done = 0
    while done < n_total:
        n = min(stride, n_total - done)
        W = integ.run(W, n)
        done += n
        out.append(sample(W))
    return out
