"""Residuals of the lattice ansatz, the energy-type quantity, coercivity,
and the approximation-error norms.

Both residuals are assembled as continuum profiles (all tau-derivatives
eliminated through the KdV equation) and then sampled at the moving-frame
lattice points, which keeps the measurable e^(9/2) scaling clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import build_p_epsilon, build_p_epsilon_tau, decompose
from .core import (
    ErrorRecord,
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
    coercivity_lhs: float = 0.0


def residual_profiles(
    W: FieldProfile, P: FieldProfile, epsilon: float, p: int
) -> tuple[FieldProfile, FieldProfile]:
    """(Res1, Res2) as continuum profiles, given W and its momentum P:

        Res1 = e W' - e^3 W_tau + P(.+e) - P(.),
        Res2 = e P' - e^3 P_tau + W - W(.-e) + e^2 [W^p - W^p(.-e)].

    Res1 is the defect of the truncated first lattice equation, of formal
    order e^5 for a KdV solution snapshot.  W', W^p and W_tau (from the KdV
    equation) are built once and shared by both.
    """
    dW = derivative(W, 1)
    wp = pointwise_power(W, p)
    G = time_derivative(W, p)
    res1 = combine(
        [
            (epsilon, dW),
            (-(epsilon**3), G),
            (1.0, translate(P, epsilon)),
            (-1.0, P),
        ],
        like=W,
    )
    res2 = combine(
        [
            (epsilon, derivative(P, 1)),
            (-(epsilon**3), build_p_epsilon_tau(W, dW, G, epsilon, p)),
            (1.0, W),
            (-1.0, translate(W, -epsilon)),
            (epsilon**2, wp),
            (-(epsilon**2), translate(wp, -epsilon)),
        ],
        like=W,
    )
    return res1, res2


def residual_snapshot(
    W: FieldProfile, P: FieldProfile, epsilon: float, p: int, t: float, N: int
) -> ResidualSnapshot:
    """Per-site Res1 and Res2 at the lattice points eps*(n - t)."""
    res1, res2 = residual_profiles(W, P, epsilon, p)
    r1 = sample_to_lattice(res1, epsilon, t, N)
    r2 = sample_to_lattice(res2, epsilon, t, N)
    return ResidualSnapshot(t=t, res1=r1, res2=r2, res1_l2=l2_norm(r1), res2_l2=l2_norm(r2))


def energy_quantity(
    U: np.ndarray,
    Q: np.ndarray,
    W: FieldProfile,
    epsilon: float,
    p: int,
    t: float,
) -> EnergyQuantity:
    """E = (1/2) sum[Q^2 + U^2 + e^2 p W^(p-1) U^2] with the coercivity check.

    Coercivity |Q|^2 + |U|^2 <= 4E is guaranteed for
    eps < eps0 = min{1, (2p)^(-1/2) (sup|W|)^(-(p-1)/2)}; odd p admits the
    sharper factor 2, which is what gets checked then (with a 1e-12 absolute
    slack for round-off).
    """
    N = U.shape[0]
    wpm1 = sample_to_lattice(
        FieldProfile.from_values(W.values ** (p - 1), W.L), epsilon, t, N
    )
    E = 0.5 * float(np.sum(Q * Q + U * U + epsilon**2 * p * wpm1 * U * U))
    lhs = float(np.sum(Q * Q + U * U))
    factor = 2.0 if p % 2 == 1 else 4.0
    ok = lhs <= factor * E + 1.0e-12
    return EnergyQuantity(t=t, E=E, coercivity_ok=ok, coercivity_lhs=lhs)


def error_norms(state: LatticeState, W: FieldProfile, epsilon: float, p: int, t: float):
    """ErrorRecord for one sample time; udot is taken from the q-differences.

    P is built once and shared by the error parts and the residuals.
    """
    N = state.N
    P = build_p_epsilon(W, epsilon, p)
    U, Q = decompose(state, W, P, epsilon, t)
    err_du = l2_norm(state.udot() + epsilon * sample_to_lattice(derivative(W, 1), epsilon, t, N))
    eq = energy_quantity(U, Q, W, epsilon, p, t)
    snap = residual_snapshot(W, P, epsilon, p, t, N)
    return ErrorRecord(
        t=t,
        err_u=l2_norm(U),
        err_du=err_du,
        energy_quantity=eq.E,
        res1_norm=snap.res1_l2,
        res2_norm=snap.res2_l2,
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

    dE/dt is centered-differenced over the sample times; E = 0 windows
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
