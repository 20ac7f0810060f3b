import math

import numpy as np
import pytest

from fpukdv.ansatz import (
    build_p_epsilon,
    decompose,
    initial_lattice_data,
    seeded_perturbation,
)
from fpukdv.core import (
    BudgetViolationError,
    FieldProfile,
    InvalidInputError,
    l2_norm,
)
from fpukdv.diagnostics import residual_profiles
from fpukdv.harness import fit_scaling_exponent


class TestMomentumExpansion:
    def test_single_mode_closed_form(self):
        # W = sin(kx): every term of the expansion has a closed form
        L, M, eps, p = 64.0, 1024, 0.1, 2
        x = np.arange(M) * (L / M)
        k = 2.0 * np.pi / L
        W = FieldProfile.from_values(np.sin(k * x), L)
        P = build_p_epsilon(W, eps, p)
        expected = (
            -np.sin(k * x)
            + 0.5 * eps * k * np.cos(k * x)
            + 0.125 * eps**2 * k**2 * np.sin(k * x)
            - 0.5 * eps**2 * np.sin(k * x) ** 2
            - eps**3 / 48.0 * k**3 * np.cos(k * x)
            + 0.25 * eps**3 * p * np.sin(k * x) * k * np.cos(k * x)
        )
        assert np.max(np.abs(P.values - expected)) < 1e-13

    def test_leading_order_is_minus_w(self, soliton_p2):
        # P + W = O(eps): halving eps halves the difference
        diffs = [np.max(np.abs(build_p_epsilon(soliton_p2, e, 2).values
                               + soliton_p2.values))
                 for e in (0.1, 0.05)]
        assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.1)

    def test_rejects_bad_epsilon(self, soliton_p2):
        with pytest.raises(InvalidInputError):
            build_p_epsilon(soliton_p2, 0.0, 2)


class TestTruncationDefect:
    @pytest.mark.parametrize("p", [2, 3])
    def test_order_five_scaling(self, p):
        from fpukdv.kdv import SolitonSpec, soliton_profile

        # p = 3 has a wider inverse width b, so it needs the finer grid and
        # smaller epsilons to sit inside the asymptotic regime
        W = soliton_profile(SolitonSpec(p=p, c=1.0, center=32.0), 64.0, 2048)
        eps = [0.1, 0.05, 0.025]
        fit = fit_scaling_exponent(
            [(e, np.max(np.abs(residual_profiles(W, build_p_epsilon(W, e, p), e, p)[0].values)))
             for e in eps])
        assert fit.slope == pytest.approx(5.0, abs=0.3)


class TestSeededPerturbation:
    def test_exact_size_and_determinism(self):
        du1, dq1 = seeded_perturbation(100, 0.03, seed=42)
        du2, dq2 = seeded_perturbation(100, 0.03, seed=42)
        assert np.array_equal(du1, du2) and np.array_equal(dq1, dq2)
        assert math.sqrt(np.dot(du1, du1) + np.dot(dq1, dq1)) == pytest.approx(0.03, rel=1e-14)

    def test_zero_size(self):
        du, dq = seeded_perturbation(10, 0.0, seed=1)
        assert not du.any() and not dq.any()

    def test_seed_changes_draw(self):
        du1, _ = seeded_perturbation(100, 0.03, seed=1)
        du2, _ = seeded_perturbation(100, 0.03, seed=2)
        assert not np.array_equal(du1, du2)


class TestInitialData:
    def test_unperturbed_err_u_zero(self, soliton_p2):
        state, achieved = initial_lattice_data(soliton_p2, 0.1, 2, 640)
        assert achieved["err_u"] == 0.0
        assert state.t == 0.0
        assert state.N == 640

    def test_err_du_within_budget(self, soliton_p2):
        # |udot(0) + eps W'| <= eps^(3/2) for unperturbed ansatz data
        for eps in (0.1, 0.05):
            N = round(64.0 / eps)
            _, achieved = initial_lattice_data(soliton_p2, eps, 2, N)
            assert achieved["err_du"] <= eps**1.5

    def test_budget_enforced(self, soliton_p2):
        eps, N = 0.1, 640
        pert = seeded_perturbation(N, 2.0 * eps**1.5, seed=0)
        with pytest.raises(BudgetViolationError):
            initial_lattice_data(soliton_p2, eps, 2, N, perturbation=pert)

    def test_perturbation_is_applied(self, soliton_p2):
        eps, N = 0.1, 640
        pert = seeded_perturbation(N, 0.5 * eps**1.5, seed=3)
        state, achieved = initial_lattice_data(soliton_p2, eps, 2, N, perturbation=pert)
        assert achieved["err_u"] == pytest.approx(l2_norm(pert[0]), rel=1e-12)


class TestDecomposition:
    def test_exact_ansatz_state_has_zero_error_parts(self, soliton_p2):
        eps, N = 0.1, 640
        state, _ = initial_lattice_data(soliton_p2, eps, 2, N)
        U, Q = decompose(state, soliton_p2, build_p_epsilon(soliton_p2, eps, 2), eps, 0.0)
        assert l2_norm(U) < 1e-12
        assert l2_norm(Q) < 1e-12
