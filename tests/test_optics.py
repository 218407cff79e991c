import math

import numpy as np
import pytest

import _oracles
from conftest import random_density_matrix, random_pure_state
from ebqkd import chsh
from ebqkd.measurement import qber_for_basis
from ebqkd.optics import (
    ChannelKind,
    ChannelModel,
    SourceModel,
    apply_channel,
    bell_state,
    generate,
    werner_state,
)
from ebqkd.qstate import BellLabel, TwoQubitState

SQ2 = math.sqrt(2.0)
HV = 0.0
DA = math.pi / 4


class TestSourceModel:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            SourceModel(BellLabel.PHI_PLUS, epsilon_rad=-0.1)
        with pytest.raises(ValueError):
            SourceModel(BellLabel.PHI_PLUS, hom_visibility=1.2)

    def test_perfect_visibility_gives_pure_singlet(self):
        state = generate(SourceModel(BellLabel.PSI_MINUS, math.pi / 4, 1.0))
        singlet = np.array([0, 1, -1, 0]) / SQ2
        np.testing.assert_allclose(state.rho, np.outer(singlet, singlet), atol=1e-15)

    def test_zero_visibility_fully_dephased(self):
        state = generate(SourceModel(BellLabel.PSI_MINUS, math.pi / 4, 0.0))
        np.testing.assert_allclose(state.rho, np.diag([0, 0.5, 0.5, 0]), atol=1e-15)

    def test_phi_plus_v09_coherence(self):
        state = generate(SourceModel(BellLabel.PHI_PLUS, math.pi / 4, 0.9))
        assert state.rho[0, 3].real == pytest.approx(0.45, abs=1e-12)
        # constructor already enforced positivity; double-check numerically
        assert np.linalg.eigvalsh(state.rho).min() >= -1e-12

    def test_coherence_monotone_in_visibility(self):
        for label in BellLabel:
            coherences = []
            for v in np.linspace(0, 1, 11):
                rho = generate(SourceModel(label, 0.6, v)).rho
                off = abs(rho[0, 3]) + abs(rho[1, 2])
                coherences.append(off)
            assert all(b >= a - 1e-15 for a, b in zip(coherences, coherences[1:]))

    def test_outputs_valid_density_operators(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            label = rng.choice(list(BellLabel))
            state = generate(
                SourceModel(label, rng.uniform(0, math.pi / 2), rng.uniform(0, 1))
            )
            evals = np.linalg.eigvalsh(state.rho)
            assert evals.min() >= -1e-9
            assert abs(np.trace(state.rho).real - 1.0) < 1e-12


class TestApplyChannel:
    def test_identity(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        out = apply_channel(singlet, ChannelModel.identity())
        np.testing.assert_allclose(out.rho, singlet.rho)

    def test_depolarizing_zero_is_identity(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        out = apply_channel(singlet, ChannelModel.depolarizing(0.0))
        np.testing.assert_allclose(out.rho, singlet.rho, atol=1e-15)

    def test_full_werner_mixing(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        out = apply_channel(singlet, ChannelModel.depolarizing(1.0, arm="both"))
        np.testing.assert_allclose(out.rho, np.eye(4) / 4, atol=1e-15)

    def test_one_arm_formula(self):
        state = bell_state(BellLabel.PHI_PLUS, math.pi / 6)
        p = 0.3
        out = apply_channel(state, ChannelModel.depolarizing(p, arm="a"))
        bob_marginal = np.einsum("ajal->jl", state.rho.reshape(2, 2, 2, 2))
        expected = (1 - p) * state.rho + p * np.kron(np.eye(2) / 2, bob_marginal)
        np.testing.assert_allclose(out.rho, expected, atol=1e-12)

    @pytest.mark.parametrize("arm", ["a", "b", "both"])
    def test_matches_partial_trace_oracle(self, arm):
        rng = np.random.default_rng(["abc".index(arm[0]), 19])
        for _ in range(100):
            rho = random_density_matrix(rng)
            p = rng.uniform(0, 1)
            out = apply_channel(TwoQubitState(rho), ChannelModel.depolarizing(p, arm=arm))
            np.testing.assert_allclose(out.rho, _oracles.depolarize(rho, p, arm), atol=1e-14)

    def test_one_arm_on_maximal_equals_werner(self):
        maximal = bell_state(BellLabel.PHI_PLUS)
        one_arm = apply_channel(maximal, ChannelModel.depolarizing(0.4, arm="a"))
        werner = apply_channel(maximal, ChannelModel.depolarizing(0.4, arm="both"))
        np.testing.assert_allclose(one_arm.rho, werner.rho, atol=1e-12)

    def test_werner_08_reaches_expected_s(self):
        w = werner_state(BellLabel.PHI_PLUS, 0.8)
        est = chsh.s_analytic(w, chsh.canonical_settings(BellLabel.PHI_PLUS))
        assert est.s == pytest.approx(2 * SQ2 * 0.8, abs=1e-12)

    def test_intercept_tag_leaves_state(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        out = apply_channel(singlet, ChannelModel.intercept_resend(0.7))
        np.testing.assert_allclose(out.rho, singlet.rho)
        assert ChannelModel.intercept_resend(0.7).eve_fraction == 0.7
        assert ChannelModel.identity().eve_fraction == 0.0

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            ChannelModel(ChannelKind.DEPOLARIZING, 1.5)
        with pytest.raises(ValueError):
            ChannelModel(ChannelKind.DEPOLARIZING, 0.5, arm="c")

    def test_outputs_remain_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = TwoQubitState(random_pure_state(rng))
            ch = ChannelModel.depolarizing(rng.uniform(0, 1), arm=rng.choice(["a", "b", "both"]))
            out = apply_channel(state, ch)
            assert np.linalg.eigvalsh(out.rho).min() >= -1e-9
            assert abs(np.trace(out.rho).real - 1.0) < 1e-12


class TestDisturbanceLaws:
    """Both disturbance mechanisms land on S = 2 sqrt(2) (1 - 2 delta)."""

    @pytest.mark.parametrize("w", [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_werner_sweep(self, w):
        state = werner_state(BellLabel.PHI_PLUS, w)
        est = chsh.s_analytic(state, chsh.canonical_settings(BellLabel.PHI_PLUS))
        assert est.s == pytest.approx(2 * SQ2 * w, abs=1e-9)
        for basis in (HV, DA):
            assert qber_for_basis(state, BellLabel.PHI_PLUS, basis) == pytest.approx(
                (1 - w) / 2, abs=1e-9
            )
        delta = sum(qber_for_basis(state, BellLabel.PHI_PLUS, b) for b in (HV, DA)) / 2
        assert est.s == pytest.approx(2 * SQ2 * (1 - 2 * delta), abs=1e-9)

    @pytest.mark.parametrize("eps", np.linspace(0.1, math.pi / 4, 7))
    def test_imbalance_sweep(self, eps):
        state = bell_state(BellLabel.PHI_PLUS, eps)
        assert qber_for_basis(state, BellLabel.PHI_PLUS, HV) == pytest.approx(0.0, abs=1e-9)
        assert qber_for_basis(state, BellLabel.PHI_PLUS, DA) == pytest.approx(
            (1 - math.sin(2 * eps)) / 2, abs=1e-9
        )
        est = chsh.s_analytic(state, chsh.canonical_settings(BellLabel.PHI_PLUS))
        delta = (0.0 + (1 - math.sin(2 * eps)) / 2) / 2
        assert est.s == pytest.approx(2 * SQ2 * (1 - 2 * delta), abs=1e-9)

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("v", [0.6, 0.85, 1.0])
    def test_visibility_sweep_all_labels(self, label, v):
        state = generate(SourceModel(label, math.pi / 4, v))
        est = chsh.s_analytic(state, chsh.canonical_settings(label))
        delta = sum(qber_for_basis(state, label, b) for b in (HV, DA)) / 2
        assert est.s == pytest.approx(2 * SQ2 * (1 - 2 * delta), abs=1e-9)
