import sys

import numpy as np
import pytest

from fpukdv.ansatz import build_p_epsilon, initial_lattice_data, seeded_perturbation
from fpukdv.core import (
    ErrorRecord,
    FieldProfile,
    derivative,
    l2_norm,
    pointwise_power,
    sample_to_lattice,
    translate,
)
from fpukdv.diagnostics import (
    check_energy_derivative_bound,
    energy_quantity,
    error_norms,
    residual_profiles,
    residual_snapshot,
)
from fpukdv.fpu import fpu_energy
from fpukdv.harness import fit_scaling_exponent
from fpukdv.kdv import SolitonSpec, soliton_profile, time_derivative
from fpukdv.kernels import forward_diff


class TestResiduals:
    @pytest.mark.parametrize("p,M,eps_list", [
        (2, 1024, (0.2, 0.1, 0.05)),
        (3, 2048, (0.1, 0.05, 0.025)),
    ])
    def test_order_nine_halves_scaling(self, p, M, eps_list):
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, M)
        pts1, pts2 = [], []
        for eps in eps_list:
            N = round(64.0 / eps)
            snap = residual_snapshot(W, build_p_epsilon(W, eps, p), eps, p, 0.0, N)
            pts1.append((eps, snap.res1_l2))
            pts2.append((eps, snap.res2_l2))
        assert fit_scaling_exponent(pts1).slope == pytest.approx(4.5, abs=0.3)
        assert fit_scaling_exponent(pts2).slope == pytest.approx(4.5, abs=0.3)

    def test_snapshot_consistent_with_parts(self, soliton_p2):
        eps, N = 0.1, 640
        P = build_p_epsilon(soliton_p2, eps, 2)
        snap = residual_snapshot(soliton_p2, P, eps, 2, 3.0, N)
        res1, res2 = residual_profiles(soliton_p2, P, eps, 2)
        assert snap.res1_l2 == pytest.approx(l2_norm(sample_to_lattice(res1, eps, 3.0, N)))
        assert snap.res2_l2 == pytest.approx(l2_norm(sample_to_lattice(res2, eps, 3.0, N)))

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_res1_matches_lattice_difference(self, p, eps):
        # Res1 = e W' - e^3 W_tau + P(. + e) - P(.), and on the lattice the
        # shift by e is one site, so its sampling is e S(W') - e^3 S(W_tau)
        # plus the forward difference of S(P): no Fourier shift symbol.
        # M = 4096 because P's un-dealiased W^(p-1) W' term reaches the
        # Nyquist mode at M = 1024, and a shifted profile keeps only the
        # cosine part of that mode (sin(k_{M/2} x) vanishes on the grid, so
        # the half-spectrum cannot hold it); there the p >= 3 cases miss by
        # 1e-8 to 1e-6.
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, 4096)
        t, N = 3.7, round(64.0 / eps)
        P = build_p_epsilon(W, eps, p)

        def S(V):
            return sample_to_lattice(V, eps, t, N)

        sP = S(P)
        expected = (eps * S(derivative(W, 1)) - eps**3 * S(time_derivative(W, p))
                    + forward_diff(sP, np.empty(N)))
        got = S(residual_profiles(W, P, eps, p)[0])
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(sP))

    def test_zero_profile_zero_residual(self):
        W = FieldProfile.from_values(np.zeros(1024), 64.0)
        snap = residual_snapshot(W, build_p_epsilon(W, 0.1, 2), 0.1, 2, 0.0, 640)
        assert snap.res1_l2 == 0.0
        assert snap.res2_l2 == 0.0


class TestCoercivity:
    def test_quadratic_form_value(self, soliton_p2):
        # direct evaluation against an independent loop
        eps, N, p = 0.1, 640, 2
        rng = np.random.default_rng(8)
        U = rng.standard_normal(N)
        Q = rng.standard_normal(N)
        w = sample_to_lattice(soliton_p2, eps, 5.0, N)
        direct = 0.5 * sum(Q[n] ** 2 + U[n] ** 2 + eps**2 * p * w[n] ** (p - 1) * U[n] ** 2
                           for n in range(N))
        eq = energy_quantity(U, Q, soliton_p2, eps, p, 5.0)
        assert eq.E == pytest.approx(direct, rel=1e-12)

    def test_coercivity_holds_below_threshold(self, soliton_p2):
        eps, N = 0.1, 640  # below eps0 = 0.2887
        rng = np.random.default_rng(9)
        U, Q = rng.standard_normal(N), rng.standard_normal(N)
        eq = energy_quantity(U, Q, soliton_p2, eps, 2, 0.0)
        assert eq.coercivity_ok
        assert eq.coercivity_lhs <= 4.0 * eq.E + 1e-9

    def test_coercivity_fails_above_threshold(self, soliton_p2):
        # eps far above eps0 with U concentrated in the negative-W^{p-1}
        # region of an adversarial profile breaks the 4E bound
        W = FieldProfile.from_values(-3.0 * np.ones(80), 64.0)
        N = 80
        U = np.ones(N)
        Q = np.zeros(N)
        eq = energy_quantity(U, Q, W, 0.8, 2, 0.0)
        assert not eq.coercivity_ok

    def test_odd_p_sharper_factor(self, soliton_p2):
        # for p = 3 the W^(p-1) weight is nonnegative, so |Q|^2+|U|^2 <= 2E
        W = soliton_profile(SolitonSpec(p=3, c=1.0, center=32.0), 64.0, 1024)
        rng = np.random.default_rng(10)
        N = 640
        U, Q = rng.standard_normal(N), rng.standard_normal(N)
        eq = energy_quantity(U, Q, W, 0.1, 3, 0.0)
        assert eq.coercivity_ok
        assert eq.coercivity_lhs <= 2.0 * eq.E + 1e-9


class TestErrorNorms:
    def test_exact_ansatz_state(self, soliton_p2):
        eps, N = 0.1, 640
        state = initial_lattice_data(soliton_p2, eps, 2, N)
        rec = error_norms(state, soliton_p2, eps, 2, 0.0)
        assert rec.err_u < 1e-12
        assert rec.energy_quantity < 1e-20
        assert rec.coercivity_ok
        assert rec.res1_norm > 0.0

    def test_perturbation_shows_up(self, soliton_p2):
        eps, N = 0.1, 640
        pert = seeded_perturbation(N, 0.5 * eps**1.5, seed=11)
        state = initial_lattice_data(soliton_p2, eps, 2, N, perturbation=pert)
        rec = error_norms(state, soliton_p2, eps, 2, 0.0)
        assert rec.err_u == pytest.approx(l2_norm(pert[0]), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_three_build_reference(self, p):
        # the shared-field record reproduces the record composed term by
        # term, with P built three times.  The fields that do not involve P
        # are bit-equal; the others sum the same terms in another order.
        # Each residual norm is an O(eps^5) cancellation of O(1) terms, so
        # round-off moves it by up to ~2.2e-16 * eps^-5 ~ 2e-11 relative.
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, 1024)
        eps, N, t = 0.1, 640, 37.0
        pert = seeded_perturbation(N, 0.5 * eps**1.5, seed=12)
        state = initial_lattice_data(W, eps, p, N, perturbation=pert)
        got = error_norms(state, W, eps, p, t)
        ref = _reference_record(state, W, eps, p, t)
        for name in ("t", "err_u", "err_du", "H_lattice", "coercivity_ok"):
            assert getattr(got, name) == getattr(ref, name), name
        for name, rel in (("energy_quantity", 1e-14), ("coercivity_lhs", 1e-14),
                          ("res1_norm", 1e-11), ("res2_norm", 1e-11)):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=rel, abs=0.0), name

    def test_builds_each_field_once(self, soliton_p2, monkeypatch):
        calls = {"build_p_epsilon": 0, "time_derivative": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        # rebind every fpukdv module attribute that holds either function
        originals = {"build_p_epsilon": build_p_epsilon, "time_derivative": time_derivative}
        for key, mod in list(sys.modules.items()):
            if key == "fpukdv" or key.startswith("fpukdv."):
                for name, fn in originals.items():
                    if getattr(mod, name, None) is fn:
                        monkeypatch.setattr(mod, name, counting(name, fn))
        eps, N = 0.1, 640
        state = initial_lattice_data(soliton_p2, eps, 2, N)
        calls.update(build_p_epsilon=0, time_derivative=0)
        error_norms(state, soliton_p2, eps, 2, 5.0)
        assert calls == {"build_p_epsilon": 1, "time_derivative": 1}


def combine(profiles_and_weights, like):
    """Weighted sum of profiles sharing the grid of ``like``."""
    c = np.zeros_like(like.coeffs)
    for w, prof in profiles_and_weights:
        c += w * prof.coeffs
    return FieldProfile.from_coeffs(c, like.L)


def _reference_p_epsilon(W, eps, p):
    dW = derivative(W, 1)
    grad_term = FieldProfile.from_values(W.values ** (p - 1) * dW.values, W.L)
    return combine([(-1.0, W), (0.5 * eps, dW), (-0.125 * eps**2, derivative(W, 2)),
                    (-0.5 * eps**2, pointwise_power(W, p)), (eps**3 / 48.0, derivative(W, 3)),
                    (0.25 * eps**3 * p, grad_term)], like=W)


def _reference_p_tau(W, eps, p):
    G = time_derivative(W, p)
    dG = derivative(G, 1)
    wpm1_G = FieldProfile.from_values(W.values ** (p - 1) * G.values, W.L)
    chain3 = FieldProfile.from_values(
        (p - 1) * W.values ** (p - 2) * derivative(W, 1).values * G.values
        + W.values ** (p - 1) * dG.values, W.L)
    return combine([(-1.0, G), (0.5 * eps, dG), (-0.125 * eps**2, derivative(G, 2)),
                    (-0.5 * eps**2 * p, wpm1_G), (eps**3 / 48.0, derivative(G, 3)),
                    (0.25 * eps**3 * p, chain3)], like=W)


def _reference_record(state, W, eps, p, t):
    """The record composed term by term: W sampled twice, P built three times
    (error parts, Res1, Res2) and W_tau twice (Res1, P_tau)."""
    N = state.N
    P1 = _reference_p_epsilon(W, eps, p)
    res1 = combine([(eps, derivative(W, 1)), (-(eps**3), time_derivative(W, p)),
                    (1.0, translate(P1, eps)), (-1.0, P1)], like=W)
    P2 = _reference_p_epsilon(W, eps, p)
    wp = pointwise_power(W, p)
    res2 = combine([(eps, derivative(P2, 1)), (-(eps**3), _reference_p_tau(W, eps, p)),
                    (1.0, W), (-1.0, translate(W, -eps)),
                    (eps**2, wp), (-(eps**2), translate(wp, -eps))], like=W)
    U = state.u - sample_to_lattice(W, eps, t, N)
    Q = state.q - sample_to_lattice(_reference_p_epsilon(W, eps, p), eps, t, N)
    eq = energy_quantity(U, Q, W, eps, p, t)
    return ErrorRecord(
        t=t,
        err_u=l2_norm(state.u - sample_to_lattice(W, eps, t, N)),
        err_du=l2_norm(state.udot() + eps * sample_to_lattice(derivative(W, 1), eps, t, N)),
        energy_quantity=eq.E,
        res1_norm=l2_norm(sample_to_lattice(res1, eps, t, N)),
        res2_norm=l2_norm(sample_to_lattice(res2, eps, t, N)),
        H_lattice=fpu_energy(state, eps, p),
        coercivity_lhs=eq.coercivity_lhs,
        coercivity_ok=eq.coercivity_ok,
    )


class TestEnergyDerivativeBound:
    def test_constant_energy_gives_zero_constant(self):
        times = np.linspace(0.0, 10.0, 21)
        E = np.full(21, 0.5)
        out = check_energy_derivative_bound(times, E, delta=1.0, epsilon=0.1, p=2)
        assert out["C_empirical"] == 0.0
        assert out["max_E"] == 0.5

    def test_linear_growth_constant_matches_hand_value(self):
        # E(t) = a t + E0 with flat bracket: C = a / (sqrt(E) * bracket) at
        # the interior maximum of the ratio
        times = np.linspace(0.0, 10.0, 101)
        a, E0 = 1e-6, 1e-4
        E = E0 + a * times
        eps, p, delta = 0.1, 2, 1.0
        out = check_energy_derivative_bound(times, E, delta=delta, epsilon=eps, p=p)
        sqE = np.sqrt(E)
        bracket = (delta + delta**3) * eps**4.5 + eps**3 * 2.0 * delta * sqE + eps**2 * 2.0 * E
        expected = np.max((a / (sqE * bracket))[1:-1])
        assert out["C_empirical"] == pytest.approx(expected, rel=1e-10)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            check_energy_derivative_bound(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                          delta=1.0, epsilon=0.1, p=2)
