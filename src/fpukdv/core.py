"""Shared domain types and input rules, spectral grids, integer powers,
norms and the lattice sampling operator.

Conventions:
  * periodic continuum domain [0, L), M uniform grid points, spacing L/M
    (``grid_points``);
  * M is even, and a profile stores its unnormalized ``np.fft.rfft``
    half-spectrum c_0..c_{M/2} (k_m = 2*pi*m/L >= 0, ``rfft_wavenumbers``),
    so a value is
    (1/M) [c_0 + 2 Re sum_{0<m<M/2} c_m exp(i k_m x) + c_{M/2} cos(k_{M/2} x)];
  * a real grid function has real c_0 and c_{M/2}, so
    ``FieldProfile.from_coeffs`` drops their imaginary parts.  This is the
    package's one Nyquist rule: an odd derivative vanishes there, and a
    translate by delta keeps c_{M/2} cos(k_{M/2} delta);
  * a product of profiles becomes a spectrum only under the package's one
    dealiasing rule, the 2/3 rule of ``dealias_mask`` (which zeroes c_{M/2}
    too): through ``dealiased_rfft``, or in the ETDRK4 stage with the mask
    folded into the step's coefficients;
  * the half-spectrum is the profile: derivatives, the ansatz and its
    residuals (Fourier multipliers on it, lattice shifts included) and the
    integrators work on it, and the grid values are formed on demand, by
    one irfft the first time ``FieldProfile.values`` is read, and cached;
  * the periodic lattice has N sites with N*epsilon = L, so the moving
    frame xi = epsilon*(n - t) wraps consistently; ``lattice_size`` is the
    one statement of that rule, and ``sample_to_lattice`` the one sampler:
    one call takes the profiles of one grid together, one row per profile;
  * both solvers keep time by one rule, ``uniform_samples``: a run over
    [0, t_end] is sampled at t_i = i * (t_end / n_samples), i = 0..n_samples,
    each interval in the equal steps of ``sample_steps``;
  * both step loops transform through ``rfft_into`` and ``irfft_into``, which
    call the pocketfft ufuncs of numpy >= 2.0 that ``np.fft.rfft`` and
    ``np.fft.irfft`` end in, with the same factors, so they give the same
    numbers bit for bit without np.fft's per-call argument handling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath


class InvalidInputError(ValueError):
    """Operation received a value outside its domain."""


class ConfigurationError(ValueError):
    """Inconsistent run configuration (e.g. lattice/domain wrap mismatch)."""


class BlowUpError(RuntimeError):
    """A solution exceeded the sup-norm overflow guard."""


class BudgetViolationError(InvalidInputError):
    """Requested perturbation exceeds the eps^(3/2) initial-data budget."""


# Sup-norm overflow guard of both integrators; a NaN trips it too.
BLOWUP_GUARD = 1.0e6


def check_power(p) -> None:
    """The one rule for the nonlinearity power: an integer p >= 2."""
    if not isinstance(p, numbers.Integral) or p < 2:
        raise InvalidInputError(f"p must be an integer >= 2, got {p}")


def check_epsilon(epsilon: float) -> None:
    """The one rule for the small parameter: epsilon in (0, 1); NaN fails it."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")


def lattice_size(L: float, epsilon: float) -> int:
    """The site count N of the periodic lattice, N*epsilon = L to within
    1e-9*max(1, L), so that the moving frame xi = epsilon*(n - t) wraps."""
    ratio = L / epsilon
    if not (math.isfinite(ratio) and abs(round(ratio) * epsilon - L) <= 1.0e-9 * max(1.0, L)):
        raise ConfigurationError(f"L/epsilon = {ratio} is not an integer site count")
    return round(ratio)


def grid_points(L: float, M: int) -> np.ndarray:
    """The M uniform grid points x_j = j L / M of [0, L)."""
    return np.arange(M) * (L / M)


def rfft_wavenumbers(L: float, M: int) -> np.ndarray:
    """The wavenumbers k_m = 2 pi m / L, m = 0..M/2, of the rfft
    half-spectrum of an M-point grid on [0, L)."""
    return 2.0 * np.pi * np.fft.rfftfreq(M, d=L / M)


@dataclass(frozen=True)
class ModelParams:
    """What the lattice integrator reads besides the state: the power p,
    epsilon and the largest time step (``harness.lattice_step`` picks it
    for a run).  The site count is the state's."""

    p: int
    epsilon: float
    dt_lattice: float

    def __post_init__(self):
        check_power(self.p)
        check_epsilon(self.epsilon)
        if not 0.0 < self.dt_lattice < math.inf:
            raise InvalidInputError(f"dt_lattice must be in (0, inf), got {self.dt_lattice}")


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
        return np.roll(self.q, -1) - self.q


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Periodic continuum profile: rfft half-spectrum ``coeffs``, period ``L``.
    Immutable; the grid ``values`` are one irfft, formed when first read and
    cached (``from_values`` seeds the cache), and pickle and copy carry them."""

    coeffs: np.ndarray
    L: float

    @classmethod
    def from_values(cls, values, L) -> "FieldProfile":
        values = np.asarray(values, dtype=float)
        if values.shape[0] % 2 != 0:
            raise InvalidInputError(f"M must be even, got {values.shape[0]} grid points")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("profile values contain non-finite entries")
        W = cls(np.fft.rfft(values), float(L))
        vars(W)["values"] = values  # the grid given, not its irfft round trip
        return W

    @classmethod
    def from_coeffs(cls, coeffs, L) -> "FieldProfile":
        coeffs = np.array(coeffs, dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("profile coefficients contain non-finite entries")
        coeffs[[0, -1]] = coeffs[[0, -1]].real  # irfft ignores their imaginary parts
        return cls(coeffs, float(L))

    @cached_property
    def values(self) -> np.ndarray:
        return np.fft.irfft(self.coeffs, n=self.M)

    @property
    def M(self) -> int:
        return 2 * (self.coeffs.shape[0] - 1)

    def grid(self) -> np.ndarray:
        return grid_points(self.L, self.M)

    def wavenumbers(self) -> np.ndarray:
        return rfft_wavenumbers(self.L, self.M)


@dataclass(frozen=True)
class ErrorRecord:
    """Error diagnostics at one sample time; its fields are the error-scan CSV's columns."""

    t: float
    err_u: float
    err_du: float
    E: float
    res1_l2: float
    res2_l2: float
    H: float
    coercivity_ok: bool


# ---------------------------------------------------------------------------
# sampling in time
# ---------------------------------------------------------------------------

def sample_steps(t_end: float, n_samples: int, dt_max: float) -> tuple[int, float]:
    """(n, dt) of ``uniform_samples``: each of the n_samples intervals of
    [0, t_end] is n equal steps of size dt = interval / n <= dt_max."""
    interval = t_end / n_samples
    n = max(1, math.ceil(interval / dt_max - 1.0e-12))
    return n, interval / n


def uniform_samples(advance, x, t_end: float, n_samples: int, dt_max: float):
    """Yield (t_i, x_i) for t_i = i * (t_end / n_samples), i = 0..n_samples,
    starting with (0.0, x).

    The one clock of both solvers: each interval is split into n equal steps
    of size <= dt_max, and x_i = advance(x_{i-1}, n, dt) with (n, dt) from
    ``sample_steps``, so every sample lands on its t_i whatever dt_max is.
    """
    if n_samples < 1 or not 0.0 < t_end < math.inf:
        raise InvalidInputError(f"sampling needs 0 < t_end < inf and n_samples >= 1, "
                                f"got t_end = {t_end}, n_samples = {n_samples}")
    interval = t_end / n_samples
    n, dt = sample_steps(t_end, n_samples, dt_max)
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


def int_power(u, p, out):
    """out = u^p for an integer p >= 1, as ((u*u)*u)*...; for p = 2 this
    is bit-for-bit u**2 (numpy's u**p calls pow() for p >= 3, ~40x slower)."""
    if p == 1:
        np.copyto(out, u)
        return out
    np.multiply(u, u, out=out)
    for _ in range(p - 2):
        np.multiply(out, u, out=out)
    return out


def rfft_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = np.fft.rfft(x) bit for bit, for real x of length n and complex
    out of length n // 2 + 1 (the ufunc does not check out's length)."""
    ufunc = _pocketfft_umath.rfft_n_even if x.shape[-1] % 2 == 0 else _pocketfft_umath.rfft_n_odd
    return ufunc(x, 1.0, out=out)


def irfft_into(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = np.fft.irfft(X, n=len(out)) bit for bit: 1/n is the factor
    np.fft.irfft passes."""
    return _pocketfft_umath.irfft(X, 1.0 / out.shape[-1], out=out)


def dealias_mask(M: int) -> np.ndarray:
    """2/3-rule mask over the half-spectrum modes 0..M/2."""
    return np.arange(M // 2 + 1) <= M / 3.0


def dealiased_rfft(values: np.ndarray) -> np.ndarray:
    """rfft half-spectrum of a grid product, its modes above M/3 zeroed."""
    return np.where(dealias_mask(values.shape[0]), np.fft.rfft(values), 0.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def l2_norm(x) -> float:
    """Plain (unweighted) l2 norm, the lattice norm used throughout."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("l2_norm: non-finite entry")
    return float(np.sqrt(np.dot(x, x)))


def _hs_density(W: FieldProfile, s: float) -> np.ndarray:
    """(1 + k^2)^s |c|^2 per half-spectrum mode; each 0 < m < M/2 is
    counted twice, for itself and its conjugate -m."""
    k = W.wavenumbers()
    dens = (1.0 + k * k) ** s * np.abs(W.coeffs) ** 2
    dens[1:-1] *= 2.0
    return dens


def sobolev_norm(W: FieldProfile, s: float) -> float:
    """Discrete H^s norm via the spectral multiplier (1 + k^2)^(s/2).

    Fractional s uses the same multiplier formula.
    """
    if not 0.0 <= s < math.inf:
        raise InvalidInputError(f"Sobolev index must be in [0, inf), got {s}")
    return float(np.sqrt(W.L / W.M**2 * np.sum(_hs_density(W, s))))


def spectral_tail_fraction(W: FieldProfile, s: float) -> float:
    """Fraction of the H^s energy carried by the top third of the spectrum,
    the modes m > M/3 that the 2/3 rule of ``dealias_mask`` drops."""
    dens = _hs_density(W, s)
    total = np.sum(dens)
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[~dealias_mask(W.M)]) / total)


# ---------------------------------------------------------------------------
# continuum-to-lattice sampling
# ---------------------------------------------------------------------------

def sample_to_lattice(profiles, epsilon: float, shift: float, N: int) -> np.ndarray:
    """Moving-frame sampling x_n = W(epsilon*(n - shift) mod L), one row per
    profile W of ``profiles``, which share one grid (L, M).

    Since N*epsilon = L, the points are a uniform N-point grid rotated by
    ``shift`` sites, so the Fourier series of W is evaluated there exactly
    (up to round-off) by one fold: the half-spectrum weights, phase-shifted
    by exp(-2 pi i m shift / N), are summed over m mod N in one batched fold,
    and each folded row is inverted with its own length-N FFT into the
    output.  Cost O(M + N log N) per row.
    """
    L, M = profiles[0].L, profiles[0].M
    if any((W.L, W.M) != (L, M) for W in profiles):
        raise ConfigurationError("profiles sampled together must share one grid (L, M)")
    if N != lattice_size(L, epsilon):
        raise ConfigurationError(f"N*epsilon = {N * epsilon} does not match "
                                 f"the profile period L = {L}")
    K = M // 2 + 1  # modes per row, zero-padded to whole fold bins of N
    w = np.zeros((len(profiles), -(-K // N) * N), dtype=complex)
    for row, W in zip(w, profiles):
        row[:K] = W.coeffs
    w[:, 1:K - 1] *= 2.0
    w[:, :K] *= np.exp(-2j * np.pi * np.arange(K) * ((shift % N) / N))
    x = np.empty((len(w), N))
    for row, folded in zip(x, w.reshape(len(w), -1, N).sum(axis=1)):
        np.multiply(np.fft.ifft(folded).real, N / M, out=row)
    return x
