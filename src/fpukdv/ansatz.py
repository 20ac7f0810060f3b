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
    combine,
    derivative,
    l2_norm,
    pointwise_power,
    sample_to_lattice,
)


def build_p_epsilon(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """The six-term momentum correction, computed spectrally (dealiased products)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    dW = derivative(W, 1)
    d2W = derivative(W, 2)
    d3W = derivative(W, 3)
    wp = pointwise_power(W, p)
    grad_term = FieldProfile.from_values(W.values ** (p - 1) * dW.values, W.L, W.tau)
    return combine(
        [
            (-1.0, W),
            (0.5 * epsilon, dW),
            (-0.125 * epsilon**2, d2W),
            (-0.5 * epsilon**2, wp),
            (epsilon**3 / 48.0, d3W),
            (0.25 * epsilon**3 * p, grad_term),
        ],
        like=W,
    )


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
    enforce_budget: bool = True,
) -> tuple[LatticeState, dict]:
    """Sample the ansatz at t = 0, optionally adding an l2-bounded perturbation.

    Returns the state and the achieved initial error norms
    (err_u = |u - sample(W0)|, err_du = |udot + e sample(W0')|).
    """
    u = sample_to_lattice(W0, epsilon, 0.0, N)
    q = sample_to_lattice(build_p_epsilon(W0, epsilon, p), epsilon, 0.0, N)
    if perturbation is not None:
        du, dq = perturbation
        size = float(np.sqrt(np.dot(du, du) + np.dot(dq, dq)))
        budget = epsilon**1.5
        if enforce_budget and size > budget * (1.0 + 1.0e-12):
            raise BudgetViolationError(
                f"perturbation l2 size {size} exceeds the eps^(3/2) budget {budget}"
            )
        u = u + du
        q = q + dq
    state = LatticeState(u=u, q=q, t=0.0)
    dw_sample = sample_to_lattice(derivative(W0, 1), epsilon, 0.0, N)
    achieved = {
        "err_u": l2_norm(state.u - sample_to_lattice(W0, epsilon, 0.0, N)),
        "err_du": l2_norm(state.udot() + epsilon * dw_sample),
    }
    return state, achieved


def decompose(
    state: LatticeState,
    W_at_t: FieldProfile,
    epsilon: float,
    p: int,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Error parts (U, Q) of the state relative to the moving-frame ansatz."""
    N = state.N
    U = state.u - sample_to_lattice(W_at_t, epsilon, t, N)
    Q = state.q - sample_to_lattice(build_p_epsilon(W_at_t, epsilon, p), epsilon, t, N)
    return U, Q


def recompose(
    U: np.ndarray,
    Q: np.ndarray,
    W_at_t: FieldProfile,
    epsilon: float,
    p: int,
    t: float,
) -> LatticeState:
    N = U.shape[0]
    u = sample_to_lattice(W_at_t, epsilon, t, N) + U
    q = sample_to_lattice(build_p_epsilon(W_at_t, epsilon, p), epsilon, t, N) + Q
    return LatticeState(u=u, q=q, t=t)
