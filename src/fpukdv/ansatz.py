"""Multi-scale approximation: momentum expansion, lattice initial data,
and the approximation/error decomposition of an FPU state.  The ansatz is
sampled by ``core.sample_to_lattice``: (W0, P0) in one call for the initial
data, and ``decompose`` takes the sampled (W, P_eps) of one error record.

The momentum correction is the resummed six-term expansion

    P = -W + (1/2) e W' - (1/8) e^2 W'' - (1/2) e^2 W^p
        + (1/48) e^3 W''' + (1/4) e^3 p W^(p-1) W',

which makes the first lattice equation hold to formal order e^5.  Since
W^(p-1) W' = (W^p)'/p, it is two Fourier symbols acting on two spectra, W^
and the dealiased N^ = (W^p)^ (z = i e k):

    P^ = s(z) W^ + (1/4) e^2 (z - 2) N^,   s(z) = -1 + z/2 - z^2/8 + z^3/48.

``build_p_epsilon`` takes N^ from ``kdv.nonlinear_fields``; on G = W_tau and
the dealiased p W^(p-1) G it gives P_tau.  All slow-time derivatives are
eliminated analytically through the KdV equation before discretization;
nothing is finite-differenced in tau.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BudgetViolationError,
    FieldProfile,
    LatticeState,
    check_epsilon,
    sample_to_lattice,
)
from .kdv import nonlinear_fields


def build_p_epsilon(W: FieldProfile, N: np.ndarray, epsilon: float) -> FieldProfile:
    """P_eps from W and the dealiased spectrum N^ of W^p; on (W_tau, the
    dealiased p W^(p-1) W_tau) it is P_tau, since
    d/dtau[W^(p-1) W'] = (W^(p-1) W_tau)'."""
    check_epsilon(epsilon)
    z = 1j * epsilon * W.wavenumbers()
    s = -1.0 + z * (0.5 + z * (-0.125 + z / 48.0))
    return FieldProfile.from_coeffs(s * W.coeffs + 0.25 * epsilon**2 * (z - 2.0) * N, W.L)


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
    P0 = build_p_epsilon(W0, nonlinear_fields(W0, p).N, epsilon)
    u, q = sample_to_lattice((W0, P0), epsilon, 0.0, N)
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


def decompose(state: LatticeState, w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error parts (U, Q) = (state.u - w, state.q - q) of the state, given
    the sampled ansatz: w = W and q = P_eps at its lattice points."""
    return state.u - w, state.q - q
