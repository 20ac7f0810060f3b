"""Multi-scale approximation: momentum expansion, lattice initial data,
and the approximation/error decomposition of an FPU state.

The momentum correction is the resummed six-term expansion

    P = -W + (1/2) e W' - (1/8) e^2 W'' - (1/2) e^2 W^p
        + (1/48) e^3 W''' + (1/4) e^3 p W^(p-1) W',

which makes the first lattice equation hold to formal order e^5.  All
slow-time derivatives are eliminated analytically through the KdV equation
before discretization; nothing is finite-differenced in tau.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BudgetViolationError,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    pointwise_power,
    sample_to_lattice,
)


def _momentum_series(
    V: np.ndarray, N: np.ndarray, D: np.ndarray, z: np.ndarray, epsilon: float, p: int
) -> np.ndarray:
    """The six terms of the expansion above with W replaced by V, on
    half-spectra: the four V terms are the symbol -1 + z/2 - z^2/8 + z^3/48,
    z = i e k, acting on V^, and

        -(1/2) e^2 N^ + (1/4) e^3 p D^

    is added.  P itself is (V, N, D) = (W, W^p, W^(p-1) W'); its
    tau-derivative is (W_tau, p W^(p-1) W_tau, d/dtau[W^(p-1) W']).
    """
    series = -1.0 + z * (0.5 + z * (-0.125 + z / 48.0))
    return series * V - 0.5 * epsilon**2 * N + 0.25 * epsilon**3 * p * D


def build_p_epsilon(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """The six-term momentum correction, computed spectrally (dealiased W^p)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    ik = 1j * W.wavenumbers()
    grad = np.fft.rfft(W.values ** (p - 1) * np.fft.irfft(ik * W.coeffs, n=W.M))
    c = _momentum_series(W.coeffs, pointwise_power(W, p).coeffs, grad, epsilon * ik, epsilon, p)
    return FieldProfile.from_coeffs(c, W.L)


def seeded_perturbation(N: int, size: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic random (du, dq) with sqrt(|du|^2 + |dq|^2) = size exactly."""
    rng = np.random.default_rng(seed)
    du = rng.standard_normal(N)
    dq = rng.standard_normal(N)
    nrm = np.sqrt(np.dot(du, du) + np.dot(dq, dq))
    if nrm == 0.0 or size == 0.0:
        return np.zeros(N), np.zeros(N)
    return du * (size / nrm), dq * (size / nrm)


def initial_lattice_data(
    W0: FieldProfile,
    epsilon: float,
    p: int,
    N: int,
    perturbation: tuple[np.ndarray, np.ndarray] | None = None,
) -> LatticeState:
    """Sample the ansatz at t = 0, optionally adding an l2-bounded perturbation."""
    u = sample_to_lattice(W0, epsilon, 0.0, N)
    q = sample_to_lattice(build_p_epsilon(W0, epsilon, p), epsilon, 0.0, N)
    if perturbation is not None:
        du, dq = perturbation
        size = float(np.sqrt(np.dot(du, du) + np.dot(dq, dq)))
        budget = epsilon**1.5
        if size > budget * (1.0 + 1.0e-12):
            raise BudgetViolationError(
                f"perturbation l2 size {size} exceeds the eps^(3/2) budget {budget}"
            )
        u = u + du
        q = q + dq
    return LatticeState(u=u, q=q)


def decompose(
    state: LatticeState,
    W_at_t: FieldProfile,
    P_at_t: FieldProfile,
    epsilon: float,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Error parts (U, Q) of the state relative to the moving-frame ansatz (W, P)."""
    N = state.N
    U = state.u - sample_to_lattice(W_at_t, epsilon, t, N)
    Q = state.q - sample_to_lattice(P_at_t, epsilon, t, N)
    return U, Q
