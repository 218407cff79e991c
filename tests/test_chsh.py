import dataclasses
import math
import re

import numpy as np
import pytest

from _oracles import chsh_max_bloch_grid, chsh_max_linear_grid
from conftest import random_density_matrix
from ebqkd import chsh
from ebqkd.chsh import (
    ChshEstimate,
    ChshSettings,
    IncompleteTableError,
    TSIRELSON,
    bloch_to_polarization_angle,
    canonical_settings,
    correlation_matrix,
    correlator_analytic,
    s_analytic,
    s_from_counts,
    s_optimal,
)
from ebqkd.measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    expected_table,
)
from ebqkd.optics import bell_state, werner_state
from ebqkd.qstate import BellLabel, TwoQubitState

SQ2 = math.sqrt(2.0)


def setting(pol_deg):
    return AnalyzerSetting.from_polarization(pol_deg)


class TestSettings:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ChshSettings(setting(0), setting(0), setting(22.5), setting(67.5))

    @pytest.mark.parametrize("plates", [
        (0.0, 22.5, 11.25, 11.2500004),
        (0.0, 22.5, 11.25, 101.25),
        (90.0, 22.5, 0.0, 33.75),
    ], ids=["within-1e-6", "b-prime-90-on", "alice-bob-one-axis"])
    def test_rejects_settings_with_one_key(self, plates):
        # Settings one hwp_key apart are one row of the counts table.
        with pytest.raises(ValueError, match="four distinct analyzer settings"):
            ChshSettings(*map(AnalyzerSetting, plates))

    def test_rejects_even_sign_parity(self):
        with pytest.raises(ValueError):
            ChshSettings(setting(0), setting(45), setting(22.5), setting(67.5), signs=(1, 1, 1, 1))

    def test_canonical_angles(self):
        s = canonical_settings(BellLabel.PHI_PLUS)
        assert [x.polarization_angle_deg for x in s.all_settings()] == [0, 45, 22.5, 67.5]
        assert s.signs == (1, -1, 1, 1)

    @pytest.mark.parametrize("label,signs", [
        (BellLabel.PHI_PLUS, (1, -1, 1, 1)),
        (BellLabel.PHI_MINUS, (1, -1, -1, -1)),
        (BellLabel.PSI_PLUS, (-1, 1, 1, 1)),
        (BellLabel.PSI_MINUS, (-1, 1, -1, -1)),
    ])
    def test_derived_signs(self, label, signs):
        assert canonical_settings(label).signs == signs

    def test_derived_signs_match_the_module_docstring_table(self):
        # Rows such as "phi+   (+, -, +, +)" or "psi- (singlet)   (-, +, -, -)".
        row = re.compile(r"(phi|psi)([+-]) .*\(([+-]), ([+-]), ([+-]), ([+-])\)")
        table = {}
        for m in filter(None, map(row.fullmatch, chsh.__doc__.splitlines())):
            label = BellLabel[f"{m[1].upper()}_{'PLUS' if m[2] == '+' else 'MINUS'}"]
            table[label] = tuple(1 if c == "+" else -1 for c in m.groups()[2:])
        assert table == {label: canonical_settings(label).signs for label in BellLabel}

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_canonical_settings_are_shared_and_frozen(self, label):
        s = canonical_settings(label)
        assert canonical_settings(label) is s
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.signs = (1, 1, 1, -1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.a.hwp_angle_deg = 5.0
        assert isinstance(s.signs, tuple)


class TestCorrelator:
    def test_singlet_parallel(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        assert correlator_analytic(singlet, setting(0), setting(0)) == pytest.approx(-1.0)

    def test_singlet_orthogonal_axes(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        assert correlator_analytic(singlet, setting(0), setting(45)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_canonical_correlator_magnitudes(self):
        state = werner_state(BellLabel.PHI_PLUS, 0.8)
        est = s_analytic(state, canonical_settings(BellLabel.PHI_PLUS))
        for e in est.correlators:
            assert abs(e) == pytest.approx(0.8 / SQ2, abs=1e-12)


class TestSAnalytic:
    def test_maximal_phi_plus_canonical(self):
        est = s_analytic(
            bell_state(BellLabel.PHI_PLUS), canonical_settings(BellLabel.PHI_PLUS)
        )
        assert est.s == pytest.approx(2 * SQ2, abs=1e-12)
        assert est.sigma_s == 0.0

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_every_label_reaches_tsirelson(self, label):
        est = s_analytic(bell_state(label), canonical_settings(label))
        assert est.s == pytest.approx(2 * SQ2, abs=1e-12)

    def test_product_state_respects_classical_bound(self):
        product = bell_state(BellLabel.PHI_PLUS, 0.0)
        rng = np.random.default_rng(31)
        for _ in range(100):
            angles = rng.uniform(0, 180, size=4)
            settings = ChshSettings(
                setting(angles[0]), setting(angles[1]), setting(angles[2]), setting(angles[3])
            )
            assert abs(s_analytic(product, settings).s) <= 2.0 + 1e-9

    def test_paper_operating_point(self):
        # Werner weight 1 - 2*0.02 puts the linear law at delta = 2%;
        # the reported measurement 2.64 +/- 0.12 covers that value.
        state = werner_state(BellLabel.PHI_PLUS, 1 - 2 * 0.02)
        est = s_analytic(state, canonical_settings(BellLabel.PHI_PLUS))
        assert est.s == pytest.approx(2.71529003975634, abs=1e-9)
        assert abs(est.s - 2.64) < 0.12


class TestSOptimal:
    def test_maximal_bell_state(self):
        opt = s_optimal(bell_state(BellLabel.PHI_PLUS))
        assert opt.estimate.s == pytest.approx(2 * SQ2, abs=1e-12)

    def test_maximally_mixed(self):
        assert s_optimal(TwoQubitState(np.eye(4) / 4)).estimate.s == pytest.approx(0.0, abs=1e-12)

    def test_imbalanced_closed_form(self):
        eps = math.pi / 6
        opt = s_optimal(bell_state(BellLabel.PHI_PLUS, eps))
        assert opt.estimate.s == pytest.approx(2 * math.sqrt(1 + math.sin(2 * eps) ** 2), abs=1e-12)
        assert opt.estimate.s == pytest.approx(2 * math.sqrt(1.75), abs=1e-12)

    def test_achieving_directions_reproduce_s(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            state = TwoQubitState(random_density_matrix(rng))
            opt = s_optimal(state)
            a, ap = opt.alice_directions
            b, bp = opt.bob_directions
            signs = (1, -1, 1, 1)
            t = correlation_matrix(state)
            s = sum(
                sign * float(u @ t @ v)
                for sign, (u, v) in zip(signs, ((a, b), (a, bp), (ap, b), (ap, bp)))
            )
            assert s == pytest.approx(opt.estimate.s, abs=1e-9)

    def test_dominates_any_settings(self):
        rng = np.random.default_rng(57)
        for _ in range(1000):
            state = TwoQubitState(random_density_matrix(rng))
            angles = rng.uniform(0, 180, size=4)
            try:
                settings = ChshSettings(
                    setting(angles[0]), setting(angles[1]), setting(angles[2]), setting(angles[3])
                )
            except ValueError:
                continue  # rare angle collision
            assert s_optimal(state).estimate.s >= abs(s_analytic(state, settings).s) - 1e-9

    def test_tsirelson_bound_random_states(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            state = TwoQubitState(random_density_matrix(rng))
            assert s_optimal(state).estimate.s <= TSIRELSON + 1e-9

    def test_grid_oracle_equivalence(self):
        """Horodecki formula equals a 2-degree brute-force frame scan."""
        rng = np.random.default_rng(2024)
        for _ in range(50):
            rho = random_density_matrix(rng)
            s_formula = s_optimal(TwoQubitState(rho)).estimate.s
            s_grid = chsh_max_bloch_grid(rho, step_deg=2.0)
            assert s_grid <= s_formula + 1e-9
            assert s_formula - s_grid <= 1e-3

    def test_linear_angle_oracle_on_imbalanced_family(self):
        # For real pure phi(eps) the x-z plane carries the optimum, so a
        # plain analyzer-angle scan must agree too.
        state = bell_state(BellLabel.PHI_PLUS, math.pi / 6)

        def corr(alpha_rad, beta_rad):
            a = AnalyzerSetting.from_polarization(math.degrees(alpha_rad))
            b = AnalyzerSetting.from_polarization(math.degrees(beta_rad))
            return correlator_analytic(state, a, b)

        s_grid = chsh_max_linear_grid(corr, step_deg=2.0)
        s_formula = s_optimal(state).estimate.s
        assert s_grid <= s_formula + 1e-9
        assert s_formula - s_grid <= 1e-2

    def test_y_correlations_invisible_to_linear_analyzers(self):
        # Equal phi+/psi- mixture correlates only along y: Horodecki sees
        # S = 2 while every linear-analyzer correlator vanishes.  This is
        # why the brute-force oracle must scan Bloch frames.
        rho = 0.5 * bell_state(BellLabel.PHI_PLUS).rho + 0.5 * bell_state(BellLabel.PSI_MINUS).rho
        state = TwoQubitState(rho)
        np.testing.assert_allclose(correlation_matrix(state), np.diag([0, -1, 0]), atol=1e-12)
        assert s_optimal(state).estimate.s == pytest.approx(2.0, abs=1e-12)
        assert correlator_analytic(state, setting(30), setting(110)) == pytest.approx(0.0, abs=1e-12)

    def test_bloch_to_polarization_angle(self):
        assert bloch_to_polarization_angle(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)
        assert bloch_to_polarization_angle(np.array([1.0, 0.0, 0.0])) == pytest.approx(45.0)
        with pytest.raises(ValueError):
            bloch_to_polarization_angle(np.array([0.0, 1.0, 0.0]))


class TestSFromCounts:
    def test_expected_counts_match_analytic(self):
        state = bell_state(BellLabel.PHI_PLUS)
        settings = canonical_settings(BellLabel.PHI_PLUS)
        est = s_from_counts(expected_table(state, settings.pairs(), 1_000_000), settings)
        assert est.s == pytest.approx(2 * SQ2, abs=1e-3)
        assert est.sigma_s == pytest.approx(math.sqrt(4 * 0.5 / 1_000_000), rel=1e-3)

    def test_expected_counts_match_analytic_generic_state(self):
        state = werner_state(BellLabel.PSI_PLUS, 0.83)
        settings = canonical_settings(BellLabel.PSI_PLUS)
        est = s_from_counts(expected_table(state, settings.pairs(), 1_000_000), settings)
        assert est.s == pytest.approx(s_analytic(state, settings).s, abs=2e-3)

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("n", [1.0, 157, 1_000_000])
    def test_expected_table_gives_the_analytic_s_and_its_sigma(self, label, n):
        rng = np.random.default_rng(7)
        settings = canonical_settings(label)
        for rank in (1, 2, 3, 4) * 10:
            state = TwoQubitState(random_density_matrix(rng, rank=rank))
            est = s_from_counts(expected_table(state, settings.pairs(), n), settings)
            exact = s_analytic(state, settings)
            assert est.s == pytest.approx(exact.s, rel=0, abs=1e-12)
            np.testing.assert_allclose(est.correlators, exact.correlators, rtol=0, atol=1e-12)
            sigma = math.sqrt(sum(1.0 - e * e for e in exact.correlators) / n)
            assert est.sigma_s == pytest.approx(sigma, rel=1e-12)

    def test_uniform_counts_give_zero(self):
        settings = canonical_settings(BellLabel.PHI_PLUS)
        n = 4000
        rows = tuple(
            CoincidenceRow(a, b, n // 4, n // 4, n // 4, n // 4) for a, b in settings.pairs()
        )
        est = s_from_counts(CoincidenceTable(rows), settings)
        assert est.s == 0.0
        assert est.sigma_s == pytest.approx(2 / math.sqrt(n))

    def test_paper_uncertainty_reproduction(self):
        # Row totals ~157 make the propagated sigma_S come out at 0.12 for
        # S_true = 2.64; the estimate lands within 3 sigma.
        w = 2.64 / (2 * SQ2)
        state = werner_state(BellLabel.PHI_PLUS, w)
        settings = canonical_settings(BellLabel.PHI_PLUS)
        rng = np.random.default_rng(13)
        n_row = 157
        rows = []
        for row in expected_table(state, settings.pairs(), 10**6).rows:
            probs = np.array(row.counts()) / row.total
            rows.append(CoincidenceRow(row.a, row.b, *rng.multinomial(n_row, probs)))
        est = s_from_counts(CoincidenceTable(tuple(rows)), settings)
        assert est.sigma_s == pytest.approx(0.12, abs=0.02)
        assert abs(est.s - 2.64) < 3 * est.sigma_s

    def test_missing_pair_error_names_it(self):
        state = bell_state(BellLabel.PHI_PLUS)
        settings = canonical_settings(BellLabel.PHI_PLUS)
        table = expected_table(state, settings.pairs(), 1000)
        short = CoincidenceTable(table.rows[:3])
        with pytest.raises(IncompleteTableError, match=r"\(45, 67.5\)"):
            s_from_counts(short, settings)

    def test_zero_total_row_error(self):
        settings = canonical_settings(BellLabel.PHI_PLUS)
        rows = tuple(CoincidenceRow(a, b, 0, 0, 0, 0) for a, b in settings.pairs())
        with pytest.raises(IncompleteTableError, match="zero total"):
            s_from_counts(CoincidenceTable(rows), settings)


class TestEstimateInvariants:
    def test_correlator_bounds(self):
        with pytest.raises(ValueError):
            ChshEstimate(s=2.0, correlators=(1.2, 0, 0, 0))

    def test_algebraic_bound(self):
        with pytest.raises(ValueError):
            ChshEstimate(s=4.5, correlators=(1, 1, 1, 1))
