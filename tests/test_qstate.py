import math
import pickle

import numpy as np
import pytest

import _oracles
from conftest import random_density_matrix, random_pure_state
from ebqkd import qstate
from ebqkd.measurement import AnalyzerSetting
from ebqkd.optics import bell_state
from ebqkd.qstate import (
    BellLabel,
    InvariantViolation,
    JointDistribution,
    TwoQubitState,
    born_table,
    joint_probabilities,
)

SQ2 = math.sqrt(2.0)


def setting(pol_deg: float) -> AnalyzerSetting:
    return AnalyzerSetting.from_polarization(pol_deg)


def pure(amplitudes) -> np.ndarray:
    amp = np.asarray(amplitudes, dtype=complex)
    return np.outer(amp, amp.conj())


class TestBellState:
    def test_phi_plus_maximal(self):
        rho = bell_state(BellLabel.PHI_PLUS, math.pi / 4).rho
        np.testing.assert_allclose(rho, pure([1 / SQ2, 0, 0, 1 / SQ2]), atol=1e-15)

    def test_singlet(self):
        rho = bell_state(BellLabel.PSI_MINUS, math.pi / 4).rho
        np.testing.assert_allclose(rho, pure([0, 1 / SQ2, -1 / SQ2, 0]), atol=1e-15)

    def test_zero_entanglement_is_product(self):
        rho = bell_state(BellLabel.PHI_PLUS, 0.0).rho
        np.testing.assert_allclose(rho, pure([1, 0, 0, 0]), atol=1e-15)

    def test_default_is_maximal(self):
        np.testing.assert_allclose(
            bell_state(BellLabel.PSI_PLUS).rho,
            bell_state(BellLabel.PSI_PLUS, math.pi / 4).rho,
        )

    @pytest.mark.parametrize("epsilon", [-0.01, math.pi / 2 + 0.01, 10.0])
    def test_epsilon_out_of_range(self, epsilon):
        with pytest.raises(ValueError):
            bell_state(BellLabel.PHI_PLUS, epsilon)

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_swap_symmetry(self, label):
        """psi- is the antisymmetric singlet, Tr(SWAP rho) = -1; the other three are symmetric."""
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        expected = -1.0 if label is BellLabel.PSI_MINUS else 1.0
        assert np.trace(swap @ bell_state(label).rho) == pytest.approx(expected, abs=1e-12)

    def test_rho_read_only(self):
        state = bell_state(BellLabel.PHI_PLUS)
        with pytest.raises(ValueError):
            state.rho[0, 0] = 1.0


class TestIdealCorrelator:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_closed_form_matches_born_rule_oracle(self, label):
        grid = np.radians(np.arange(0.0, 180.0, 3.75))
        for alpha in grid:
            for beta in grid:
                assert qstate.ideal_correlator(label, alpha, beta) == pytest.approx(
                    _oracles.ideal_correlator(label, alpha, beta), abs=1e-12
                ), (label, math.degrees(alpha), math.degrees(beta))


class TestBellDensity:
    def test_product_state(self):
        rho = bell_state(BellLabel.PHI_PLUS, 0.0).rho
        np.testing.assert_allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_singlet_matrix(self):
        rho = bell_state(BellLabel.PSI_MINUS).rho
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_imbalanced_phi_plus(self):
        # Hand outer product: cos(pi/6)^2 = 3/4, sin(pi/6)^2 = 1/4,
        # cross term cos*sin = sqrt(3)/4.
        rho = bell_state(BellLabel.PHI_PLUS, math.pi / 6).rho
        assert rho[0, 0].real == pytest.approx(0.75, abs=1e-12)
        assert rho[3, 3].real == pytest.approx(0.25, abs=1e-12)
        assert rho[0, 3].real == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
        assert rho[3, 0].real == pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_preserves_trace_and_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            state = TwoQubitState(random_pure_state(rng))
            assert abs(np.trace(state.rho).real - 1.0) < 1e-12
            assert abs(state.purity() - 1.0) < 1e-12


def _off_diagonal(rho: np.ndarray, upper: complex, lower: complex) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex).copy()
    rho[0, 1], rho[1, 0] = upper, lower
    return rho


def _anti_hermitian_step(c: float, imaginary: bool) -> np.ndarray:
    """I/4 plus an anti-Hermitian entry pair whose ``|rho - rho^dagger|`` is exactly ``2 c``."""
    return _off_diagonal(np.eye(4) / 4, 1j * c, 1j * c) if imaginary else _off_diagonal(np.eye(4) / 4, c, -c)


class TestTwoQubitState:
    @pytest.mark.parametrize("rho", [
        _off_diagonal(np.diag([1.0, 0, 0, 0]), 0.5, 0.0),  # no conjugate partner
        _anti_hermitian_step(qstate.HERMITICITY_ATOL, imaginary=False),  # 2x the tolerance
        _anti_hermitian_step(qstate.HERMITICITY_ATOL, imaginary=True),
    ], ids=["no_partner", "real_2x_atol", "imaginary_2x_atol"])
    def test_rejects_non_hermitian(self, rho):
        with pytest.raises(InvariantViolation, match="^density matrix is not Hermitian$"):
            TwoQubitState(rho)

    @pytest.mark.parametrize("imaginary", [False, True])
    def test_accepts_a_hermiticity_defect_of_exactly_the_tolerance(self, imaginary):
        """The rule is allclose's at rtol=0: ``|rho - rho^dagger| <= HERMITICITY_ATOL``."""
        rho = _anti_hermitian_step(qstate.HERMITICITY_ATOL / 2, imaginary)
        assert np.abs(rho - rho.conj().T).max() == qstate.HERMITICITY_ATOL
        np.testing.assert_array_equal(TwoQubitState(rho).rho, rho)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_rejects_non_finite_entries(self, value, where):
        """Never a numpy error (eigvalsh does not converge on inf) nor the Hermiticity message."""
        if where == "diagonal":
            rho = (np.eye(4) / 4).astype(complex)
            rho[2, 2] = value
        else:
            rho = _off_diagonal(np.eye(4) / 4, value, np.conj(value))
        with pytest.raises(InvariantViolation, match="^density matrix has a non-finite entry$"):
            TwoQubitState(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation):
            TwoQubitState(np.eye(4) / 2)

    def test_rejects_negative_eigenvalues(self):
        rho = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            TwoQubitState(rho)

    def test_partial_traces(self):
        # Both marginals are diag(3/4, 1/4): Bloch vectors (0, 0, 1/2).
        c = bell_state(BellLabel.PHI_PLUS, math.pi / 6).bloch
        np.testing.assert_allclose(c[1:, 0], [0, 0, 0.5], atol=1e-12)
        np.testing.assert_allclose(c[0, 1:], [0, 0, 0.5], atol=1e-12)

    def test_bloch_matches_pauli_traces(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density_matrix(rng)
            np.testing.assert_allclose(TwoQubitState(rho).bloch, _oracles.pauli_bloch(rho), atol=1e-14)

    def test_from_bloch_round_trips_rho(self):
        rng = np.random.default_rng(13)
        for rank in (1, 2, 4):
            for _ in range(50):
                state = TwoQubitState(random_density_matrix(rng, rank))
                back = TwoQubitState.from_bloch(state.bloch)
                np.testing.assert_allclose(back.rho, state.rho, atol=1e-14)

    def test_bloch_read_only(self):
        state = bell_state(BellLabel.PHI_PLUS)
        with pytest.raises(ValueError):
            state.bloch[0, 0] = 2.0

    @pytest.mark.parametrize("name", ["rho", "bloch"])
    def test_arrays_cannot_be_made_writeable_again(self, name):
        with pytest.raises(ValueError):
            getattr(bell_state(BellLabel.PHI_PLUS), name).flags.writeable = True

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_keeps_the_arrays_read_only(self, protocol):
        state = TwoQubitState(random_density_matrix(np.random.default_rng(29), 2))
        back = pickle.loads(pickle.dumps(state, protocol))
        for name in ("rho", "bloch"):
            np.testing.assert_array_equal(getattr(back, name), getattr(state, name))
            with pytest.raises(ValueError):
                getattr(back, name).flags.writeable = True

    def test_tampered_pickle_fails_the_checks_when_loaded(self):
        state = bell_state(BellLabel.PHI_PLUS)
        tampered = state.rho.copy()
        tampered[0, 3] = 0.25  # its conjugate partner [3, 0] keeps 0.5
        data = pickle.dumps(state)
        assert data.count(state.rho.tobytes()) == 1
        with pytest.raises(InvariantViolation, match="^density matrix is not Hermitian$"):
            pickle.loads(data.replace(state.rho.tobytes(), tampered.tobytes()))


class TestPortVectors:
    def test_are_read_only(self):
        """The array is shared by every later call with these settings."""
        rows = qstate._port_vectors([AnalyzerSetting(0.0), AnalyzerSetting(22.5)])
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2.0
        with pytest.raises(ValueError):
            rows.flags.writeable = True

    def test_equal_settings_share_one_array_whatever_the_sequence(self):
        plates = (0.0, 11.25, 33.75)
        rows = qstate._port_vectors(tuple(AnalyzerSetting(t) for t in plates))
        assert qstate._port_vectors([AnalyzerSetting(t) for t in plates]) is rows


class TestJointProbabilities:
    def test_singlet_parallel_analyzers(self):
        dist = joint_probabilities(bell_state(BellLabel.PSI_MINUS), setting(0), setting(0))
        np.testing.assert_allclose(dist.as_array(), [0, 0.5, 0.5, 0], atol=1e-12)

    def test_singlet_at_45(self):
        dist = joint_probabilities(bell_state(BellLabel.PSI_MINUS), setting(0), setting(45))
        np.testing.assert_allclose(dist.as_array(), [0.25] * 4, atol=1e-12)

    def test_phi_plus_equal_rotation(self):
        # phi+ is invariant under equal real rotations of both analyzers.
        dist = joint_probabilities(
            bell_state(BellLabel.PHI_PLUS), setting(22.5), setting(22.5)
        )
        np.testing.assert_allclose(dist.as_array(), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_normalization_and_positivity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            state = TwoQubitState(random_density_matrix(rng))
            a = setting(rng.uniform(0, 360))
            b = setting(rng.uniform(0, 360))
            p = joint_probabilities(state, a, b).as_array()
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_singlet_correlator_analytic_law(self):
        """Singlet correlator is -cos 2(a - b) for any angle pair."""
        singlet = bell_state(BellLabel.PSI_MINUS)
        rng = np.random.default_rng(17)
        for _ in range(300):
            a_deg = rng.uniform(0, 360)
            b_deg = rng.uniform(0, 360)
            e = joint_probabilities(singlet, setting(a_deg), setting(b_deg)).correlator()
            expected = -math.cos(2 * math.radians(a_deg - b_deg))
            assert e == pytest.approx(expected, abs=1e-9)

    def test_born_table_matches_kron_oracle(self):
        """Complex mixed states (nonzero y correlations) at arbitrary plate
        angles, 1 to 6 setting pairs, the first repeated last: one row per pair."""
        rng = np.random.default_rng(2026)
        for _ in range(250):
            rho = random_density_matrix(rng)
            plates = rng.uniform(0, 180, size=(int(rng.integers(1, 7)), 2))
            pairs = [(AnalyzerSetting(t), AnalyzerSetting(u)) for t, u in plates]
            pairs.append(pairs[0])
            table = born_table(TwoQubitState(rho).bloch, iter(pairs))
            assert table.shape == (len(pairs), 4)
            for row, (a, b) in zip(table, pairs):
                np.testing.assert_allclose(row, _oracles.joint_probabilities(rho, a, b), rtol=0, atol=1e-14)
        assert born_table(TwoQubitState(rho).bloch, ()).shape == (0, 4)

    @pytest.mark.parametrize("plates", [
        (0.0, 11.25, 22.5),
        (11.25, 22.5, 33.75),
        (0.0,),
        (),
        tuple(np.linspace(0.0, 179.5, 360)),
    ])
    def test_port_vectors_are_byte_identical_to_stacked_rows(self, plates):
        """Signed zeros included: the "-" row of a zero component is -0.0."""
        settings = [AnalyzerSetting(t) for t in plates]
        rows = qstate._port_vectors(settings)
        expected = _oracles.port_vectors_stacked(settings)
        assert rows.shape == expected.shape == (2 * len(plates), 4)
        assert rows.dtype == expected.dtype and rows.flags.c_contiguous
        assert rows.tobytes() == expected.tobytes()

    def test_joint_probabilities_is_a_table_view(self):
        state = TwoQubitState(random_density_matrix(np.random.default_rng(8)))
        a, b = setting(10.0), setting(77.0)
        np.testing.assert_array_equal(
            joint_probabilities(state, a, b).as_array(), born_table(state.bloch, ((a, b),))[0]
        )

    def test_joint_distribution_validates(self):
        with pytest.raises(InvariantViolation):
            JointDistribution(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(InvariantViolation):
            JointDistribution(0.3, 0.3, 0.3, 0.3)
