"""Residuals of the lattice ansatz, the energy-type quantity, coercivity,
and the approximation-error norms.

Both residuals are assembled as continuum profiles (all tau-derivatives
eliminated through the KdV equation) and then sampled at the moving-frame
lattice points, which keeps the measurable e^(9/2) scaling clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import build_p_epsilon, decompose
from .core import (
    FieldProfile,
    LatticeState,
    combine,
    derivative,
    l2_norm,
    pointwise_power,
    sample_to_lattice,
    translate,
)
from .fpu import fpu_energy
from .kdv import time_derivative


@dataclass(frozen=True)
class ResidualSnapshot:
    t: float
    res1: np.ndarray
    res2: np.ndarray
    res1_l2: float
    res2_l2: float


@dataclass(frozen=True)
class EnergyQuantity:
    t: float
    E: float
    coercivity_ok: bool
    epsilon0: float
    coercivity_lhs: float = 0.0


def residual_profile_1(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """Res1 as a continuum profile: e W' - e^3 W_tau + P(.+e) - P(.).

    This is the defect of the truncated first lattice equation, of formal
    order e^5 for a KdV solution snapshot (W_tau taken from the KdV equation).
    """
    P = build_p_epsilon(W, epsilon, p)
    return combine(
        [
            (epsilon, derivative(W, 1)),
            (-(epsilon**3), time_derivative(W, p)),
            (1.0, translate(P, epsilon)),
            (-1.0, P),
        ],
        like=W,
    )


def _p_epsilon_tau_derivative(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """d/dtau of the momentum expansion, with W_tau from the KdV equation."""
    G = time_derivative(W, p)
    dG = derivative(G, 1)
    d2G = derivative(G, 2)
    d3G = derivative(G, 3)
    wpm1_G = FieldProfile.from_values(W.values ** (p - 1) * G.values, W.L, W.tau)
    chain3 = FieldProfile.from_values(
        (p - 1) * W.values ** (p - 2) * derivative(W, 1).values * G.values
        + W.values ** (p - 1) * dG.values,
        W.L,
        W.tau,
    )
    return combine(
        [
            (-1.0, G),
            (0.5 * epsilon, dG),
            (-0.125 * epsilon**2, d2G),
            (-0.5 * epsilon**2 * p, wpm1_G),
            (epsilon**3 / 48.0, d3G),
            (0.25 * epsilon**3 * p, chain3),
        ],
        like=W,
    )


def residual_profile_2(W: FieldProfile, epsilon: float, p: int) -> FieldProfile:
    """Res2 profile: e P' - e^3 P_tau + W - W(.-e) + e^2 [W^p - W^p(.-e)]."""
    P = build_p_epsilon(W, epsilon, p)
    wp = pointwise_power(W, p)
    return combine(
        [
            (epsilon, derivative(P, 1)),
            (-(epsilon**3), _p_epsilon_tau_derivative(W, epsilon, p)),
            (1.0, W),
            (-1.0, translate(W, -epsilon)),
            (epsilon**2, wp),
            (-(epsilon**2), translate(wp, -epsilon)),
        ],
        like=W,
    )


def residual_1(W: FieldProfile, epsilon: float, p: int, t: float, N: int) -> np.ndarray:
    """Per-site Res1 at lattice points eps*(n - t)."""
    return sample_to_lattice(residual_profile_1(W, epsilon, p), epsilon, t, N)


def residual_2(W: FieldProfile, epsilon: float, p: int, t: float, N: int) -> np.ndarray:
    return sample_to_lattice(residual_profile_2(W, epsilon, p), epsilon, t, N)


def residual_snapshot(W: FieldProfile, epsilon: float, p: int, t: float, N: int) -> ResidualSnapshot:
    r1 = residual_1(W, epsilon, p, t, N)
    r2 = residual_2(W, epsilon, p, t, N)
    return ResidualSnapshot(t=t, res1=r1, res2=r2, res1_l2=l2_norm(r1), res2_l2=l2_norm(r2))


def nonlinear_remainder(
    W: FieldProfile,
    U: np.ndarray,
    epsilon: float,
    p: int,
    t: float,
) -> np.ndarray:
    """Binomial remainder e^2 sum_{k>=2} C(p,k) [W^(p-k) U^k - shifted]."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    N = U.shape[0]
    out = np.zeros(N)
    for k in range(2, p + 1):
        if p - k == 0:
            wpk = np.ones(N)
        else:
            wpk = sample_to_lattice(
                FieldProfile.from_values(W.values ** (p - k), W.L, W.tau), epsilon, t, N
            )
        term = wpk * U**k
        out += math.comb(p, k) * (term - np.roll(term, 1))
    return epsilon**2 * out


def coercivity_threshold(W: FieldProfile, p: int) -> float:
    """eps0 = min{1, (2p)^(-1/2) (sup|W|)^(-(p-1)/2)}."""
    sup = float(np.max(np.abs(W.values)))
    if sup == 0.0:
        return 1.0
    return min(1.0, (2.0 * p) ** -0.5 * sup ** (-(p - 1) / 2.0))


def energy_quantity(
    U: np.ndarray,
    Q: np.ndarray,
    W: FieldProfile,
    epsilon: float,
    p: int,
    t: float,
    slack: float = 1.0e-12,
) -> EnergyQuantity:
    """E = (1/2) sum[Q^2 + U^2 + e^2 p W^(p-1) U^2] with the coercivity check.

    Coercivity |Q|^2 + |U|^2 <= 4E is guaranteed for eps < eps0; odd p
    admits the sharper factor 2, which is what gets checked then.
    """
    N = U.shape[0]
    wpm1 = sample_to_lattice(
        FieldProfile.from_values(W.values ** (p - 1), W.L, W.tau), epsilon, t, N
    )
    E = 0.5 * float(np.sum(Q * Q + U * U + epsilon**2 * p * wpm1 * U * U))
    lhs = float(np.sum(Q * Q + U * U))
    eps0 = coercivity_threshold(W, p)
    factor = 2.0 if p % 2 == 1 else 4.0
    ok = lhs <= factor * E + slack
    return EnergyQuantity(t=t, E=E, coercivity_ok=ok, epsilon0=eps0, coercivity_lhs=lhs)


def error_norms(
    state: LatticeState,
    W: FieldProfile,
    epsilon: float,
    p: int,
    t: float,
    with_residuals: bool = True,
):
    """ErrorRecord for one sample time; udot is taken from the q-differences."""
    from .core import ErrorRecord

    N = state.N
    err_u = l2_norm(state.u - sample_to_lattice(W, epsilon, t, N))
    err_du = l2_norm(state.udot() + epsilon * sample_to_lattice(derivative(W, 1), epsilon, t, N))
    U, Q = decompose(state, W, epsilon, p, t)
    eq = energy_quantity(U, Q, W, epsilon, p, t)
    if with_residuals:
        snap = residual_snapshot(W, epsilon, p, t, N)
        res1_l2, res2_l2 = snap.res1_l2, snap.res2_l2
    else:
        res1_l2 = res2_l2 = 0.0
    return ErrorRecord(
        t=t,
        err_u=err_u,
        err_du=err_du,
        energy_quantity=eq.E,
        res1_norm=res1_l2,
        res2_norm=res2_l2,
        H_lattice=fpu_energy(state, epsilon, p),
        coercivity_lhs=eq.coercivity_lhs,
        coercivity_ok=eq.coercivity_ok,
    )


def check_energy_derivative_bound(
    times: np.ndarray,
    E_values: np.ndarray,
    delta: float,
    epsilon: float,
    p: int,
) -> dict:
    """Smallest constant C making the energy-derivative estimate hold.

    |dE/dt| <= C E^(1/2) [ (d + d^(2p-1)) e^(9/2)
                           + e^3 (d^(p-1) + d^(2p-2)) E^(1/2)
                           + e^2 (d^(p-2) + E^((p-2)/2)) E ]

    dE/dt is centered-differenced at the sampling stride; E = 0 windows
    fall back to a one-sided bound (the bracket is evaluated anyway).
    """
    times = np.asarray(times, dtype=float)
    E = np.asarray(E_values, dtype=float)
    if times.shape[0] < 3:
        raise ValueError("need at least 3 samples for centered differences")
    dEdt = np.gradient(E, times)
    sqE = np.sqrt(np.maximum(E, 0.0))
    bracket = (
        (delta + delta ** (2 * p - 1)) * epsilon**4.5
        + epsilon**3 * (delta ** (p - 1) + delta ** (2 * p - 2)) * sqE
        + epsilon**2 * (delta ** (p - 2) + sqE ** (p - 2)) * E
    )
    rhs = sqE * bracket
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0.0, np.abs(dEdt) / np.where(rhs > 0.0, rhs, 1.0), 0.0)
    interior = slice(1, -1)  # one-sided gradient endpoints are noisier
    return {
        "C_empirical": float(np.max(ratio[interior])) if times.shape[0] > 2 else float(np.max(ratio)),
        "max_abs_dEdt": float(np.max(np.abs(dEdt))),
        "max_E": float(np.max(E)),
    }
