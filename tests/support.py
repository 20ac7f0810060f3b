"""Helpers that only tests call: a grid norm, a two-point exponent, the
dealiased integer power of a profile, the spectral translate of a profile,
the rfft-pair check of a profile, the empirical constant of the paper's
energy-derivative estimate, a call counter for package functions, and the
sampled soliton ansatz on a lattice."""

import math
import sys

import numpy as np

from fpukdv import kdv
from fpukdv.ansatz import initial_lattice_data
from fpukdv.core import (
    FieldProfile,
    InvalidInputError,
    LatticeState,
    dealias_mask,
    int_power,
    lattice_size,
)


def soliton_lattice_data(p: int, c: float, epsilon: float, L: float = 64.0,
                         M: int = 1024) -> tuple[LatticeState, FieldProfile]:
    """(state, W0): the sampled ansatz at t = 0 of the soliton W0 of speed c
    centred at L/2, on the N = L/epsilon lattice sites."""
    W0 = kdv.soliton_profile(kdv.SolitonSpec(p=p, c=c, center=L / 2.0), L, M)
    return initial_lattice_data(W0, epsilon, p, lattice_size(L, epsilon)), W0


def count_calls(monkeypatch, fn) -> list:
    """Rebind fn to a counting wrapper in every fpukdv module that holds it
    under its name, so a call anywhere in the package counts; the returned
    list gains the first argument of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "fpukdv" or key.startswith("fpukdv."):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def validate(W: FieldProfile, rtol=1.0e-12) -> None:
    """Check that values and coeffs are one rfft pair."""
    back = np.fft.irfft(W.coeffs, n=W.M)
    scale = max(np.max(np.abs(W.values)), 1.0e-300)
    if np.max(np.abs(back - W.values)) > rtol * scale:
        raise InvalidInputError("values and coefficients are inconsistent")


def translate(W: FieldProfile, delta: float) -> FieldProfile:
    """Profile V with V(xi) = W(xi + delta), done by spectral phase shift."""
    c = W.coeffs * np.exp(1j * W.wavenumbers() * delta)
    return FieldProfile.from_coeffs(c, W.L)


def grid_l2_norm(W: FieldProfile) -> float:
    """L-periodic quadrature L2 norm of the continuum profile."""
    return float(np.sqrt(W.L / W.M * np.dot(W.values, W.values)))


def pairwise_exponent(point_a, point_b) -> float:
    """Exponent implied by two (epsilon, value) points."""
    (e1, v1), (e2, v2) = point_a, point_b
    return float(math.log(v2 / v1) / math.log(e2 / e1))


def pointwise_power(W: FieldProfile, p: int) -> FieldProfile:
    """W^p as a profile, integer power computed on the grid (sign kept) and
    dealiased by the 2/3 rule."""
    c = np.where(dealias_mask(W.M), np.fft.rfft(int_power(W.values, p, np.empty(W.M))), 0.0)
    return FieldProfile.from_coeffs(c, W.L)


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
        raise InvalidInputError("need at least 3 samples for centered differences")
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
        "C_empirical": float(np.max(ratio[interior])),
        "max_abs_dEdt": float(np.max(np.abs(dEdt))),
        "max_E": float(np.max(E)),
    }
