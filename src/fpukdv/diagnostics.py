"""Residuals of the lattice ansatz, the energy-type quantity, coercivity,
and the approximation-error norms.

Both residuals are formed as continuum profiles (all tau-derivatives
eliminated through the KdV equation), each as one expression over
half-spectra in which derivatives and lattice shifts are Fourier
multipliers, and then sampled at the moving-frame lattice points, which
keeps the measurable e^(9/2) scaling clean.  Each formula is one function
that takes the fields it reads: ``residual_profiles`` takes W's nonlinear
fields (``kdv.nonlinear_fields``) and P (``ansatz.build_p_epsilon``, which
also gives P_tau).  One ``error_norms`` record forms the fields and P once
and makes the record's one ``core.sample_to_lattice`` call, on
(W, P, W', Res1, Res2) at the frame (eps, t, N); the parts it hands them
to (``ansatz.decompose``, ``energy_quantity``, ``residual_snapshot``) take
those lattice values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import build_p_epsilon, decompose
from .core import (
    ErrorRecord,
    FieldProfile,
    LatticeState,
    dealiased_rfft,
    derivative,
    int_power,
    l2_norm,
    sample_to_lattice,
)
from .fpu import fpu_energy
from .kdv import NonlinearFields, nonlinear_fields


@dataclass(frozen=True)
class EnergyQuantity:
    E: float
    coercivity_ok: bool
    coercivity_lhs: float


def residual_profiles(
    W: FieldProfile, fields: NonlinearFields, P: FieldProfile, epsilon: float, p: int
) -> tuple[FieldProfile, FieldProfile]:
    """(Res1, Res2) as continuum profiles, given W, its nonlinear fields
    (W^(p-1), N^ = (W^p)^, G = W_tau) and its momentum P:

        Res1 = e W' - e^3 W_tau + P(.+e) - P(.),
        Res2 = e P' - e^3 P_tau + W - W(.-e) + e^2 [W^p - W^p(.-e)].

    Res1 is the defect of the truncated first lattice equation, of formal
    order e^5 for a KdV solution snapshot.  On half-spectra, with z = i e k:

        Res1^ = z W^ - e^3 G^ + (e^z - 1) P^,
        Res2^ = z P^ - e^3 P_tau^ + (1 - e^-z) (W^ + e^2 N^),

    where P_tau is the momentum series of (G, p W^(p-1) G), that product
    dealiased like N.  The shift symbols are taken by expm1, which keeps
    e^z - 1 accurate where e k is small.
    """
    z = 1j * epsilon * W.wavenumbers()
    G = fields.G
    P_tau = build_p_epsilon(G, dealiased_rfft(p * fields.wpm1 * G.values), epsilon)
    res1 = z * W.coeffs - epsilon**3 * G.coeffs + np.expm1(z) * P.coeffs
    res2 = (z * P.coeffs - epsilon**3 * P_tau.coeffs
            - np.expm1(-z) * (W.coeffs + epsilon**2 * fields.N))
    return FieldProfile.from_coeffs(res1, W.L), FieldProfile.from_coeffs(res2, W.L)


def residual_snapshot(sampled) -> tuple[float, float]:
    """l2 norms of the sampled residuals (Res1, Res2)."""
    return tuple(l2_norm(res) for res in sampled)


def energy_quantity(U: np.ndarray, Q: np.ndarray, w: np.ndarray, epsilon: float,
                    p: int) -> EnergyQuantity:
    """E = (1/2) sum[Q^2 + U^2 + e^2 p w^(p-1) U^2] with the coercivity check,
    w = W at the lattice points of (U, Q).

    Coercivity |Q|^2 + |U|^2 <= 4E is guaranteed for
    eps < eps0 = min{1, (2p)^(-1/2) (sup|W|)^(-(p-1)/2)}; odd p admits the
    sharper factor 2, which is what gets checked then (with a 1e-12 absolute
    slack for round-off).
    """
    wpm1 = int_power(w, p - 1, np.empty_like(w))
    E = 0.5 * float(np.sum(Q * Q + U * U + epsilon**2 * p * wpm1 * U * U))
    lhs = float(np.sum(Q * Q + U * U))
    factor = 2.0 if p % 2 == 1 else 4.0
    ok = lhs <= factor * E + 1.0e-12
    return EnergyQuantity(E=E, coercivity_ok=ok, coercivity_lhs=lhs)


def error_norms(state: LatticeState, W: FieldProfile, epsilon: float, p: int, t: float):
    """ErrorRecord for one sample time; udot is taken from the q-differences.

    The nonlinear fields of W are formed once, and P from them once; the
    record's profiles (W, P, W', Res1, Res2) are sampled in one call at
    the lattice points eps*(n - t), and the parts take those values.
    """
    fields = nonlinear_fields(W, p)
    P = build_p_epsilon(W, fields.N, epsilon)
    w, q, dw, *res = sample_to_lattice(
        (W, P, derivative(W, 1), *residual_profiles(W, fields, P, epsilon, p)),
        epsilon, t, state.N)
    U, Q = decompose(state, w, q)
    eq = energy_quantity(U, Q, w, epsilon, p)
    res1_l2, res2_l2 = residual_snapshot(res)
    return ErrorRecord(
        t=t,
        err_u=l2_norm(U),
        err_du=l2_norm(state.udot() + epsilon * dw),
        E=eq.E,
        res1_l2=res1_l2,
        res2_l2=res2_l2,
        H=fpu_energy(state, epsilon, p),
        coercivity_ok=eq.coercivity_ok,
    )
