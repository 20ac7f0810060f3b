"""Shared domain types, spectral grids, norms and the lattice sampling operator.

Conventions:
  * periodic continuum domain [0, L), M uniform grid points, spacing L/M;
  * spectral coefficients are unnormalized ``np.fft.fft`` output, so a
    profile value is Re[(1/M) sum_m c_m exp(i k_m x)] with k_m = 2*pi*m'/L;
  * the periodic lattice has N sites with N*epsilon = L, so the moving
    frame xi = epsilon*(n - t) wraps consistently.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ModelParams:
    """Physical and discretization parameters shared across modules."""

    p: int
    epsilon: float
    s: int
    L: float
    N: int
    dt_lattice: float = DT_LATTICE
    dtau_kdv: float = 1.0e-3

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2:
            raise InvalidInputError(f"p must be an integer >= 2, got {self.p}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.s < 0:
            raise InvalidInputError(f"s must be >= 0, got {self.s}")
        if abs(self.N * self.epsilon - self.L) > 1.0e-9 * max(1.0, self.L):
            raise ConfigurationError(
                f"N*epsilon = {self.N * self.epsilon} must equal L = {self.L} "
                "(moving-frame wrap consistency)"
            )
        if self.dt_lattice <= 0.0 or self.dtau_kdv <= 0.0:
            raise InvalidInputError("time steps must be positive")


@dataclass(frozen=True)
class LatticeState:
    """FPU phase point: strain u, momentum-like q, physical time t."""

    u: np.ndarray
    q: np.ndarray
    t: float

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


@dataclass(frozen=True)
class FieldProfile:
    """Periodic continuum profile stored as grid values + FFT coefficients."""

    values: np.ndarray
    coeffs: np.ndarray
    tau: float
    L: float

    @classmethod
    def from_values(cls, values, L, tau=0.0) -> "FieldProfile":
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("profile values contain non-finite entries")
        return cls(values=values, coeffs=np.fft.fft(values), tau=float(tau), L=float(L))

    @classmethod
    def from_coeffs(cls, coeffs, L, tau=0.0) -> "FieldProfile":
        coeffs = np.asarray(coeffs, dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("profile coefficients contain non-finite entries")
        values = np.fft.ifft(coeffs).real
        return cls(values=values, coeffs=coeffs, tau=float(tau), L=float(L))

    @property
    def M(self) -> int:
        return self.values.shape[0]

    def grid(self) -> np.ndarray:
        return np.arange(self.M) * (self.L / self.M)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.L / self.M)

    def validate(self, rtol=1.0e-12) -> None:
        """Check values/coeffs FFT consistency and Hermitian symmetry."""
        back = np.fft.ifft(self.coeffs)
        scale = max(np.max(np.abs(self.values)), 1.0e-300)
        if np.max(np.abs(back.real - self.values)) > rtol * scale:
            raise InvalidInputError("values and coefficients are inconsistent")
        herm = np.conj(self.coeffs[(-np.arange(self.M)) % self.M])
        if np.max(np.abs(self.coeffs - herm)) > rtol * max(np.max(np.abs(self.coeffs)), 1.0e-300):
            raise InvalidInputError("coefficients are not Hermitian-symmetric")


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
    coercivity_lhs: float = 0.0
    coercivity_ok: bool = True


# ---------------------------------------------------------------------------
# profile operations
# ---------------------------------------------------------------------------

def derivative(W: FieldProfile, order: int = 1) -> FieldProfile:
    """Spectral derivative; Nyquist mode zeroed for odd orders."""
    ik = 1j * W.wavenumbers()
    c = W.coeffs * ik**order
    if order % 2 == 1 and W.M % 2 == 0:
        c = c.copy()
        c[W.M // 2] = 0.0
    return FieldProfile.from_coeffs(c, W.L, W.tau)


def translate(W: FieldProfile, delta: float) -> FieldProfile:
    """Profile V with V(xi) = W(xi + delta), done by spectral phase shift."""
    c = W.coeffs * np.exp(1j * W.wavenumbers() * delta)
    if W.M % 2 == 0:
        # keep the translated profile real: the Nyquist mode picks up cos only
        c = c.copy()
        kny = np.pi * W.M / W.L
        c[W.M // 2] = W.coeffs[W.M // 2].real * np.cos(kny * delta)
    return FieldProfile.from_coeffs(c, W.L, W.tau)


def dealias_mask(M: int) -> np.ndarray:
    """2/3-rule mask over FFT-ordered modes."""
    m = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    return m <= M / 3.0


def pointwise_power(W: FieldProfile, p: int) -> FieldProfile:
    """W^p as a profile, integer power computed on the grid (sign kept) and
    dealiased by the 2/3 rule."""
    c = np.where(dealias_mask(W.M), np.fft.fft(int_power(W.values, p, np.empty(W.M))), 0.0)
    return FieldProfile.from_coeffs(c, W.L, W.tau)


def combine(profiles_and_weights, like: FieldProfile) -> FieldProfile:
    """Weighted sum of profiles sharing the grid of ``like``."""
    c = np.zeros(like.M, dtype=complex)
    for w, prof in profiles_and_weights:
        c += w * prof.coeffs
    return FieldProfile.from_coeffs(c, like.L, like.tau)


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


def sobolev_norm(W: FieldProfile, s: float) -> float:
    """Discrete H^s norm via the spectral multiplier (1 + k^2)^(s/2).

    Fractional s uses the same multiplier formula.
    """
    if s < 0:
        raise InvalidInputError(f"Sobolev index must be >= 0, got {s}")
    k = W.wavenumbers()
    weights = (1.0 + k * k) ** s
    return float(np.sqrt(W.L / W.M**2 * np.sum(weights * np.abs(W.coeffs) ** 2)))


def spectral_tail_fraction(W: FieldProfile, s: float) -> float:
    """Fraction of the H^s energy carried by the top third of the spectrum."""
    k = W.wavenumbers()
    dens = (1.0 + k * k) ** s * np.abs(W.coeffs) ** 2
    total = np.sum(dens)
    if total == 0.0:
        return 0.0
    kmax = np.max(np.abs(k))
    return float(np.sum(dens[np.abs(k) > (2.0 / 3.0) * kmax]) / total)


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
    half = W.M // 2
    w = W.coeffs[:half + 1].copy()
    w[1:half] *= 2.0
    w *= np.exp(-2j * np.pi * np.arange(half + 1) * ((shift % N) / N))
    folded = np.pad(w, (0, -w.shape[0] % N)).reshape(-1, N).sum(axis=0)
    return np.fft.ifft(folded).real * (N / W.M)
