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


def _momentum_series(
    V: FieldProfile,
    dV: FieldProfile,
    power: FieldProfile,
    grad: FieldProfile,
    epsilon: float,
    p: int,
) -> FieldProfile:
    """The six terms of the expansion above with W replaced by V:

        -V + (1/2) e V' - (1/8) e^2 V'' - (1/2) e^2 N
           + (1/48) e^3 V''' + (1/4) e^3 p D,

    where N = ``power`` and D = ``grad``.  P itself is (V, N, D) =
    (W, W^p, W^(p-1) W'); its tau-derivative is
    (W_tau, p W^(p-1) W_tau, d/dtau[W^(p-1) W']).
    """
    return combine(
        [
            (-1.0, V),
            (0.5 * epsilon, dV),
            (-0.125 * epsilon**2, derivative(V, 2)),
            (-0.5 * epsilon**2, power),
            (epsilon**3 / 48.0, derivative(V, 3)),
            (0.25 * epsilon**3 * p, grad),
        ],
        like=V,
    )


def build_p_epsilon(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """The six-term momentum correction, computed spectrally (dealiased products)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
    dW = derivative(W, 1)
    grad = FieldProfile.from_values(W.values ** (p - 1) * dW.values, W.L, W.tau)
    return _momentum_series(W, dW, pointwise_power(W, p), grad, epsilon, p)


def build_p_epsilon_tau(
    W: FieldProfile,
    dW: FieldProfile,
    G: FieldProfile,
    epsilon: float,
    p: int,
) -> FieldProfile:
    """d/dtau of the momentum expansion, given W' and G = W_tau (from the KdV equation)."""
    dG = derivative(G, 1)
    wpm1 = W.values ** (p - 1)
    power_tau = FieldProfile.from_values(p * wpm1 * G.values, W.L, W.tau)
    grad_tau = FieldProfile.from_values(
        (p - 1) * W.values ** (p - 2) * dW.values * G.values + wpm1 * dG.values,
        W.L,
        W.tau,
    )
    return _momentum_series(G, dG, power_tau, grad_tau, epsilon, p)


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
) -> tuple[LatticeState, dict]:
    """Sample the ansatz at t = 0, optionally adding an l2-bounded perturbation.

    Returns the state and the achieved initial error norms
    (err_u = |u - sample(W0)|, err_du = |udot + e sample(W0')|).
    """
    u = w0 = sample_to_lattice(W0, epsilon, 0.0, N)
    q =sample_to_lattice(build_p_epsilon(W0, epsilon, p), epsilon, 0.0, N)
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
    state = LatticeState(u=u, q=q, t=0.0)
    dw_sample = sample_to_lattice(derivative(W0, 1), epsilon, 0.0, N)
    achieved = {
        "err_u": l2_norm(state.u - w0),
        "err_du": l2_norm(state.udot() + epsilon * dw_sample),
    }
    return state, achieved


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
