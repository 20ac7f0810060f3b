import numpy as np
import pytest

from fpukdv.ansatz import build_p_epsilon, initial_lattice_data, seeded_perturbation
from fpukdv.core import (
    ErrorRecord,
    FieldProfile,
    derivative,
    dealiased_rfft,
    l2_norm,
    sample_to_lattice,
)
from fpukdv.diagnostics import (
    energy_quantity,
    error_norms,
    residual_profiles,
    residual_snapshot,
)
from fpukdv.fpu import fpu_energy
from fpukdv.harness import fit_scaling_exponent
from fpukdv.kdv import SolitonSpec, nonlinear_fields, soliton_profile

from support import (
    check_energy_derivative_bound,
    count_calls,
    pointwise_power,
    translate,
)


class TestResiduals:
    @pytest.mark.parametrize("p,M,eps_list", [
        (2, 1024, (0.2, 0.1, 0.05)),
        (3, 2048, (0.1, 0.05, 0.025)),
    ])
    def test_order_nine_halves_scaling(self, p, M, eps_list):
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, M)
        fields = nonlinear_fields(W, p)
        pts1, pts2 = [], []
        for eps in eps_list:
            N = round(64.0 / eps)
            P = build_p_epsilon(W, fields.N, eps)
            res1_l2, res2_l2 = residual_snapshot(
                sample_to_lattice(residual_profiles(W, fields, P, eps, p), eps, 0.0, N))
            pts1.append((eps, res1_l2))
            pts2.append((eps, res2_l2))
        assert fit_scaling_exponent(pts1).slope == pytest.approx(4.5, abs=0.3)
        assert fit_scaling_exponent(pts2).slope == pytest.approx(4.5, abs=0.3)

    def test_snapshot_consistent_with_parts(self, soliton_p2):
        eps, N = 0.1, 640
        fields = nonlinear_fields(soliton_p2, 2)
        P = build_p_epsilon(soliton_p2, fields.N, eps)
        res1, res2 = residual_profiles(soliton_p2, fields, P, eps, 2)
        res1_l2, res2_l2 = residual_snapshot(sample_to_lattice((res1, res2), eps, 3.0, N))
        assert res1_l2 == pytest.approx(l2_norm(sample_to_lattice((res1,), eps, 3.0, N)[0]))
        assert res2_l2 == pytest.approx(l2_norm(sample_to_lattice((res2,), eps, 3.0, N)[0]))

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_res1_matches_lattice_difference(self, p, eps):
        # Res1 = e W' - e^3 W_tau + P(. + e) - P(.), and on the lattice the
        # shift by e is one site, so its sampling is e S(W') - e^3 S(W_tau)
        # plus the forward difference of S(P): no Fourier shift symbol.
        # M = 4096 because at M = 1024 the p >= 3 solitons carry Nyquist
        # content of their own (2.5e-5 of the largest mode at p = 4), and a
        # shifted profile keeps only the cosine part of that mode
        # (sin(k_{M/2} x) vanishes on the grid, so the half-spectrum cannot
        # hold it); there the p >= 3 cases miss by up to 1.4e-6.
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, 4096)
        t, N = 3.7, round(64.0 / eps)
        fields = nonlinear_fields(W, p)
        P = build_p_epsilon(W, fields.N, eps)

        def S(V):
            return sample_to_lattice((V,), eps, t, N)[0]

        sP = S(P)
        expected = (eps * S(derivative(W, 1)) - eps**3 * S(fields.G)
                    + np.roll(sP, -1) - sP)
        got = S(residual_profiles(W, fields, P, eps, p)[0])
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(sP))

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_p_epsilon_matches_grid_product_form(self, p, eps):
        # the six-term P with its W^(p-1) W' term as the grid product equals
        # the two-symbol form, in which that term is (W^p)'/p of the
        # dealiased W^p, once the grid resolves W^p (bound fixed beforehand)
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, 4096)
        P = build_p_epsilon(W, nonlinear_fields(W, p).N, eps)
        ref = _reference_p_epsilon(W, eps, p)
        assert np.max(np.abs(P.values - ref.values)) <= 1e-9 * np.max(np.abs(P.values))

    def test_zero_profile_zero_residual(self):
        W = FieldProfile.from_values(np.zeros(1024), 64.0)
        fields = nonlinear_fields(W, 2)
        P = build_p_epsilon(W, fields.N, 0.1)
        res1_l2, res2_l2 = residual_snapshot(
            sample_to_lattice(residual_profiles(W, fields, P, 0.1, 2), 0.1, 0.0, 640))
        assert res1_l2 == 0.0
        assert res2_l2 == 0.0


class TestCoercivity:
    def test_quadratic_form_value(self, soliton_p2):
        # direct evaluation against an independent loop
        eps, N, p = 0.1, 640, 2
        rng = np.random.default_rng(8)
        U = rng.standard_normal(N)
        Q = rng.standard_normal(N)
        (w,) = sample_to_lattice((soliton_p2,), eps, 5.0, N)
        direct = 0.5 * sum(Q[n] ** 2 + U[n] ** 2 + eps**2 * p * w[n] ** (p - 1) * U[n] ** 2
                           for n in range(N))
        eq = energy_quantity(U, Q, w, eps, p)
        assert eq.E == pytest.approx(direct, rel=1e-12)

    def test_coercivity_holds_below_threshold(self, soliton_p2):
        eps, N = 0.1, 640  # below eps0 = 0.2887
        rng = np.random.default_rng(9)
        U, Q = rng.standard_normal(N), rng.standard_normal(N)
        eq = energy_quantity(U, Q, sample_to_lattice((soliton_p2,), eps, 0.0, N)[0], eps, 2)
        assert eq.coercivity_ok
        assert eq.coercivity_lhs <= 4.0 * eq.E + 1e-9

    def test_coercivity_fails_above_threshold(self, soliton_p2):
        # eps far above eps0 with U concentrated in the negative-W^{p-1}
        # region of an adversarial profile breaks the 4E bound
        W = FieldProfile.from_values(-3.0 * np.ones(80), 64.0)
        N = 80
        U = np.ones(N)
        Q = np.zeros(N)
        eq = energy_quantity(U, Q, sample_to_lattice((W,), 0.8, 0.0, N)[0], 0.8, 2)
        assert not eq.coercivity_ok

    def test_odd_p_sharper_factor(self, soliton_p2):
        # for p = 3 the W^(p-1) weight is nonnegative, so |Q|^2+|U|^2 <= 2E
        W = soliton_profile(SolitonSpec(p=3, c=1.0, center=32.0), 64.0, 1024)
        rng = np.random.default_rng(10)
        N = 640
        U, Q = rng.standard_normal(N), rng.standard_normal(N)
        eq = energy_quantity(U, Q, sample_to_lattice((W,), 0.1, 0.0, N)[0], 0.1, 3)
        assert eq.coercivity_ok
        assert eq.coercivity_lhs <= 2.0 * eq.E + 1e-9


class TestErrorNorms:
    def test_exact_ansatz_state(self, soliton_p2):
        eps, N = 0.1, 640
        state = initial_lattice_data(soliton_p2, eps, 2, N)
        rec = error_norms(state, soliton_p2, eps, 2, 0.0)
        assert rec.err_u < 1e-12
        assert rec.E < 1e-20
        assert rec.coercivity_ok
        assert rec.res1_l2 > 0.0

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
        for name in ("t", "err_u", "err_du", "H", "coercivity_ok"):
            assert getattr(got, name) == getattr(ref, name), name
        for name, rel in (("E", 1e-14), ("res1_l2", 1e-11), ("res2_l2", 1e-11)):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=rel, abs=0.0), name

    def test_samples_the_record_in_one_call(self, soliton_p2, monkeypatch):
        # W, P, W', Res1 and Res2 go to the lattice together: W is sampled
        # once, and the frame (eps, t, N) enters the record in one place
        eps, N = 0.1, 640
        state = initial_lattice_data(soliton_p2, eps, 2, N)
        calls = count_calls(monkeypatch, sample_to_lattice)
        error_norms(state, soliton_p2, eps, 2, 5.0)
        assert [len(profiles) for profiles in calls] == [5]

    def test_forms_the_nonlinear_fields_once(self, soliton_p2, monkeypatch):
        # one build per record, shared by P, the error parts and both residuals
        calls = count_calls(monkeypatch, nonlinear_fields)
        eps, N = 0.1, 640
        state = initial_lattice_data(soliton_p2, eps, 2, N)
        calls.clear()
        error_norms(state, soliton_p2, eps, 2, 5.0)
        assert len(calls) == 1


def combine(profiles_and_weights, like):
    """Weighted sum of profiles sharing the grid of ``like``."""
    c = np.zeros_like(like.coeffs)
    for w, prof in profiles_and_weights:
        c += w * prof.coeffs
    return FieldProfile.from_coeffs(c, like.L)


def _reference_p_epsilon(W, eps, p, product_rule=False):
    """The six-term P, its W^(p-1) W' term the grid product, or with
    ``product_rule`` the derivative (W^p)'/p of the dealiased W^p."""
    dW = derivative(W, 1)
    if product_rule:
        grad_term = FieldProfile.from_coeffs(derivative(pointwise_power(W, p), 1).coeffs / p, W.L)
    else:
        grad_term = FieldProfile.from_values(W.values ** (p - 1) * dW.values, W.L)
    return combine([(-1.0, W), (0.5 * eps, dW), (-0.125 * eps**2, derivative(W, 2)),
                    (-0.5 * eps**2, pointwise_power(W, p)), (eps**3 / 48.0, derivative(W, 3)),
                    (0.25 * eps**3 * p, grad_term)], like=W)


def _reference_p_tau(W, eps, p):
    # the product p W^(p-1) G dealiased, and d/dtau[W^(p-1) W'] = (p W^(p-1) G)'/p
    G = nonlinear_fields(W, p).G
    dG = derivative(G, 1)
    p_wpm1_G = FieldProfile.from_coeffs(dealiased_rfft(p * W.values ** (p - 1) * G.values), W.L)
    return combine([(-1.0, G), (0.5 * eps, dG), (-0.125 * eps**2, derivative(G, 2)),
                    (-0.5 * eps**2, p_wpm1_G), (eps**3 / 48.0, derivative(G, 3)),
                    (0.25 * eps**3, derivative(p_wpm1_G, 1))], like=W)


def _reference_record(state, W, eps, p, t):
    """The record composed term by term: each lattice value sampled by its
    own one-profile call, P built three times (error parts, Res1, Res2) and
    W_tau twice (Res1, P_tau)."""
    N = state.N
    P1 = _reference_p_epsilon(W, eps, p, product_rule=True)
    res1 = combine([(eps, derivative(W, 1)), (-(eps**3), nonlinear_fields(W, p).G),
                    (1.0, translate(P1, eps)), (-1.0, P1)], like=W)
    P2 = _reference_p_epsilon(W, eps, p, product_rule=True)
    wp = pointwise_power(W, p)
    res2 = combine([(eps, derivative(P2, 1)), (-(eps**3), _reference_p_tau(W, eps, p)),
                    (1.0, W), (-1.0, translate(W, -eps)),
                    (eps**2, wp), (-(eps**2), translate(wp, -eps))], like=W)

    def S(V):
        return sample_to_lattice((V,), eps, t, N)[0]

    U = state.u - S(W)
    Q = state.q - S(_reference_p_epsilon(W, eps, p, product_rule=True))
    eq = energy_quantity(U, Q, S(W), eps, p)
    return ErrorRecord(
        t=t,
        err_u=l2_norm(state.u - S(W)),
        err_du=l2_norm(state.udot() + eps * S(derivative(W, 1))),
        E=eq.E,
        res1_l2=l2_norm(S(res1)),
        res2_l2=l2_norm(S(res2)),
        H=fpu_energy(state, eps, p),
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
