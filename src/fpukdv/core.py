"""Shared domain types, spectral grids, norms and the lattice sampling operator.

Conventions:
  * periodic continuum domain [0, L), M uniform grid points, spacing L/M;
  * M is even, and a profile stores its unnormalized ``np.fft.rfft``
    half-spectrum c_0..c_{M/2} (k_m = 2*pi*m/L >= 0), so a value is
    (1/M) [c_0 + 2 Re sum_{0<m<M/2} c_m exp(i k_m x) + c_{M/2} cos(k_{M/2} x)];
  * a real grid function has real c_0 and c_{M/2}, so
    ``FieldProfile.from_coeffs`` drops their imaginary parts.  This is the
    package's one Nyquist rule: an odd derivative vanishes there, and a
    translate by delta keeps c_{M/2} cos(k_{M/2} delta);
  * the half-spectrum is the profile: derivatives, translates, the ansatz
    and its residuals (Fourier multipliers on it) and the integrators work
    on it, and the grid values are formed on demand, by one irfft the first
    time ``FieldProfile.values`` is read;
  * the periodic lattice has N sites with N*epsilon = L, so the moving
    frame xi = epsilon*(n - t) wraps consistently;
  * both solvers keep time by one rule, ``uniform_samples``: a run over
    [0, t_end] is sampled at t_i = i * (t_end / n_samples), i = 0..n_samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import forward_diff, int_power


class InvalidInputError(ValueError):
    """Operation received a value outside its domain."""


class ConfigurationError(ValueError):
    """Inconsistent run configuration (e.g. lattice/domain wrap mismatch)."""


class BlowUpError(RuntimeError):
    """A solution exceeded the sup-norm overflow guard."""


class BudgetViolationError(ValueError):
    """Requested perturbation exceeds the eps^(3/2) initial-data budget."""


# Default lattice time step of the order-4 splitting (fpu.py): at eps = 0.1,
# N = 640 its error against a fine-step RK4 is below that of RK4 at dt = 0.05.
DT_LATTICE = 0.5

# Sup-norm overflow guard of both integrators; a NaN trips it too.
BLOWUP_GUARD = 1.0e6


@dataclass(frozen=True)
class ModelParams:
    """Physical and discretization parameters shared across modules."""

    p: int
    epsilon: float
    L: float
    N: int
    dt_lattice: float = DT_LATTICE

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2:
            raise InvalidInputError(f"p must be an integer >= 2, got {self.p}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if abs(self.N * self.epsilon - self.L) > 1.0e-9 * max(1.0, self.L):
            raise ConfigurationError(
                f"N*epsilon = {self.N * self.epsilon} must equal L = {self.L} "
                "(moving-frame wrap consistency)"
            )
        if self.dt_lattice <= 0.0:
            raise InvalidInputError("the lattice time step must be positive")


@dataclass(frozen=True)
class LatticeState:
    """FPU phase point: strain u and momentum-like q.  The run that holds a
    state keeps its time."""

    u: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if u.shape != q.shape or u.ndim != 1:
            raise InvalidInputError("u and q must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(q))):
            raise InvalidInputError("lattice state contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "q", q)

    @property
    def N(self) -> int:
        return self.u.shape[0]

    def udot(self) -> np.ndarray:
        """Time derivative of u implied by the first lattice equation."""
        return forward_diff(self.q, np.empty_like(self.q))


class FieldProfile:
    """Periodic continuum profile: its rfft half-spectrum ``coeffs`` and
    period ``L``.  The grid ``values`` are formed on demand, by one irfft the
    first time they are read (``from_values`` and a direct ``values=`` seed
    them).  Immutable."""

    __slots__ = ("coeffs", "L", "_values")

    def __init__(self, coeffs: np.ndarray, L: float, values: np.ndarray | None = None):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldProfile is immutable; cannot set {name!r}")

    def __reduce__(self):  # pickle and copy through __init__, not __setattr__
        return type(self), (self.coeffs, self.L, self._values)

    @classmethod
    def from_values(cls, values, L) -> "FieldProfile":
        values = np.asarray(values, dtype=float)
        if values.shape[0] % 2 != 0:
            raise InvalidInputError(f"M must be even, got {values.shape[0]} grid points")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("profile values contain non-finite entries")
        return cls(np.fft.rfft(values), float(L), values)

    @classmethod
    def from_coeffs(cls, coeffs, L) -> "FieldProfile":
        coeffs = np.array(coeffs, dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("profile coefficients contain non-finite entries")
        coeffs[[0, -1]] = coeffs[[0, -1]].real  # irfft ignores their imaginary parts
        return cls(coeffs, float(L))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            object.__setattr__(self, "_values", np.fft.irfft(self.coeffs, n=self.M))
        return self._values

    @property
    def M(self) -> int:
        return 2 * (self.coeffs.shape[0] - 1)

    def grid(self) -> np.ndarray:
        return np.arange(self.M) * (self.L / self.M)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.rfftfreq(self.M, d=self.L / self.M)

    def validate(self, rtol=1.0e-12) -> None:
        """Check that values and coeffs are one rfft pair."""
        back = np.fft.irfft(self.coeffs, n=self.M)
        scale = max(np.max(np.abs(self.values)), 1.0e-300)
        if np.max(np.abs(back - self.values)) > rtol * scale:
            raise InvalidInputError("values and coefficients are inconsistent")


@dataclass(frozen=True)
class ErrorRecord:
    """Time-stamped approximation-error diagnostics for one sample time."""

    t: float
    err_u: float
    err_du: float
    energy_quantity: float
    res1_norm: float
    res2_norm: float
    H_lattice: float
    coercivity_lhs: float
    coercivity_ok: bool


# ---------------------------------------------------------------------------
# sampling in time
# ---------------------------------------------------------------------------

def uniform_samples(advance, x, t_end: float, n_samples: int, dt_max: float):
    """Yield (t_i, x_i) for t_i = i * (t_end / n_samples), i = 0..n_samples,
    starting with (0.0, x).

    The one clock of both solvers: each interval is split into n equal steps
    of size <= dt_max, and x_i = advance(x_{i-1}, n, dt) with dt = interval / n,
    so every sample lands on its t_i whatever dt_max is.
    """
    if n_samples < 1 or not t_end > 0.0:
        raise InvalidInputError(f"sampling needs t_end > 0 and n_samples >= 1, "
                                f"got t_end = {t_end}, n_samples = {n_samples}")
    interval = t_end / n_samples
    n = max(1, math.ceil(interval / dt_max - 1.0e-12))
    dt = interval / n
    yield 0.0, x
    for i in range(1, n_samples + 1):
        x = advance(x, n, dt)
        yield i * interval, x


# ---------------------------------------------------------------------------
# profile operations
# ---------------------------------------------------------------------------

def derivative(W: FieldProfile, order: int = 1) -> FieldProfile:
    """Spectral derivative; odd orders vanish at Nyquist (see from_coeffs)."""
    c = W.coeffs * (1j * W.wavenumbers()) ** order
    return FieldProfile.from_coeffs(c, W.L)


def translate(W: FieldProfile, delta: float) -> FieldProfile:
    """Profile V with V(xi) = W(xi + delta), done by spectral phase shift."""
    c = W.coeffs * np.exp(1j * W.wavenumbers() * delta)
    return FieldProfile.from_coeffs(c, W.L)


def dealias_mask(M: int) -> np.ndarray:
    """2/3-rule mask over the half-spectrum modes 0..M/2."""
    return np.arange(M // 2 + 1) <= M / 3.0


def pointwise_power(W: FieldProfile, p: int) -> FieldProfile:
    """W^p as a profile, integer power computed on the grid (sign kept) and
    dealiased by the 2/3 rule."""
    c = np.where(dealias_mask(W.M), np.fft.rfft(int_power(W.values, p, np.empty(W.M))), 0.0)
    return FieldProfile.from_coeffs(c, W.L)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def l2_norm(x) -> float:
    """Plain (unweighted) l2 norm, the lattice norm used throughout."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("l2_norm: non-finite entry")
    return float(np.sqrt(np.dot(x, x)))


def grid_l2_norm(W: FieldProfile) -> float:
    """L-periodic quadrature L2 norm of the continuum profile."""
    return float(np.sqrt(W.L / W.M * np.dot(W.values, W.values)))


def _hs_density(W: FieldProfile, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, (1 + k^2)^s |c|^2) per half-spectrum mode; each 0 < m < M/2 is
    counted twice, for itself and its conjugate -m."""
    k = W.wavenumbers()
    dens = (1.0 + k * k) ** s * np.abs(W.coeffs) ** 2
    dens[1:-1] *= 2.0
    return k, dens


def sobolev_norm(W: FieldProfile, s: float) -> float:
    """Discrete H^s norm via the spectral multiplier (1 + k^2)^(s/2).

    Fractional s uses the same multiplier formula.
    """
    if s < 0:
        raise InvalidInputError(f"Sobolev index must be >= 0, got {s}")
    _, dens = _hs_density(W, s)
    return float(np.sqrt(W.L / W.M**2 * np.sum(dens)))


def spectral_tail_fraction(W: FieldProfile, s: float) -> float:
    """Fraction of the H^s energy carried by the top third of the spectrum."""
    k, dens = _hs_density(W, s)
    total = np.sum(dens)
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[k > (2.0 / 3.0) * k[-1]]) / total)


# ---------------------------------------------------------------------------
# continuum-to-lattice sampling
# ---------------------------------------------------------------------------

def sample_to_lattice(W: FieldProfile, epsilon: float, shift: float, N: int) -> np.ndarray:
    """Moving-frame sampling x_n = W(epsilon*(n - shift) mod L).

    Since N*epsilon = L, the points are a uniform N-point grid rotated by
    ``shift`` sites, so the Fourier series of W is evaluated there exactly
    (up to round-off) by one fold: the half-spectrum weights, phase-shifted
    by exp(-2 pi i m shift / N), are summed over m mod N and inverted with a
    length-N FFT.  Cost O(M + N log N).
    """
    if abs(N * epsilon - W.L) > 1.0e-9 * max(1.0, W.L):
        raise ConfigurationError(
            f"N*epsilon = {N * epsilon} does not match the profile period L = {W.L}"
        )
    w = W.coeffs.copy()
    w[1:-1] *= 2.0
    w *= np.exp(-2j * np.pi * np.arange(w.shape[0]) * ((shift % N) / N))
    folded = np.pad(w, (0, -w.shape[0] % N)).reshape(-1, N).sum(axis=0)
    return np.fft.ifft(folded).real * (N / W.M)
