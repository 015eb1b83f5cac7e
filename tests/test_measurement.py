"""States, operators, probabilities, completeness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtradeoff.errors import DomainError, IncompleteSetError, InvalidStrengthError
from qmtradeoff.measurement import (
    MeasurementOperator,
    MeasurementSet,
    PureState,
    check_completeness,
    outcome_probability,
    two_outcome_family,
)
from qmtradeoff.oracle import _q


def q_value(lam, theta):
    """The package's one q, the oracle's, at the state's polar angle."""
    return _q(lam, math.cos(theta))


class TestPureState:
    def test_poles_and_equator(self):
        up = PureState(theta=0.0, phi=0.0)
        np.testing.assert_array_equal(up.amplitudes(), [1.0 + 0.0j, 0.0 + 0.0j])

        plus = PureState(theta=math.pi / 2, phi=0.0)
        a0, a1 = plus.amplitudes()
        assert a0 == pytest.approx(1.0 / math.sqrt(2.0))
        assert a1 == pytest.approx(1.0 / math.sqrt(2.0))

    def test_phi_wraps(self):
        s = PureState(theta=1.0, phi=2.0 * math.pi + 0.25)
        assert s.phi == pytest.approx(0.25)

    def test_from_amplitudes_normalizes_and_fixes_phase(self):
        raw = np.array([3.0j, 4.0j])
        s = PureState.from_amplitudes(raw)
        a0, a1 = s.amplitudes()
        assert a0 == pytest.approx(0.6)  # global phase stripped
        assert a1 == pytest.approx(0.8)

    def test_from_amplitudes_rejects_zero(self):
        with pytest.raises(DomainError):
            PureState.from_amplitudes(np.zeros(2))

    def test_overlap(self):
        up = PureState(theta=0.0, phi=0.0)
        down = PureState(theta=math.pi, phi=0.0)
        assert up.overlap(down) == pytest.approx(0.0, abs=1e-15)
        assert up.overlap(up) == pytest.approx(1.0)

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            PureState(theta=3.5, phi=0.0)
        with pytest.raises(DomainError):
            PureState(theta=-0.1, phi=0.0)


class TestMeasurementOperator:
    def test_canonical_parts(self):
        op = MeasurementOperator(0.8 * np.diag([1.0, 0.5]))
        assert op.kappa == pytest.approx(0.8)
        assert op.lam == pytest.approx(0.5)

    def test_rejects_amplifying_operator(self):
        with pytest.raises(InvalidStrengthError):
            MeasurementOperator(np.diag([1.5, 0.5]))

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_rejects_overflowing_operator(self, scale):
        with pytest.raises(InvalidStrengthError):
            MeasurementOperator(scale * np.eye(2))
        with pytest.raises(InvalidStrengthError):
            MeasurementOperator(scale * np.array([[0.8, 0.3], [0.1, 0.5]]))

    def test_matrix_copy_is_safe(self):
        m = np.diag([1.0, 0.5]).astype(complex)
        op = MeasurementOperator(m)
        m[0, 0] = 99.0
        assert op.matrix[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            op.matrix[0, 0] = 5.0

    def test_gram(self):
        op = MeasurementOperator(0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(op.gram(), 0.25 * np.eye(2), atol=1e-15)


class TestProbabilities:
    def test_diagonal_operator(self):
        op = MeasurementOperator(0.8 * np.diag([1.0, 0.5]))
        state = PureState(theta=math.pi / 2, phi=0.0)
        # 0.64 * (1/2 + 0.25/2)
        assert outcome_probability(op, state) == pytest.approx(0.4)

    def test_q_value_matches_probability(self):
        op = MeasurementOperator(np.diag([1.0, 0.3]))
        for theta in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
            state = PureState(theta=theta, phi=1.1)
            assert outcome_probability(op, state) == pytest.approx(
                q_value(0.3, theta), abs=1e-14
            )

    def test_q_value_spot_values(self):
        assert q_value(1.0, 0.77) == pytest.approx(1.0, abs=1e-15)
        assert q_value(0.0, math.pi / 2) == pytest.approx(0.5, abs=1e-15)
        # cos^2(pi/3) + 0.25 sin^2(pi/3)
        assert q_value(0.5, 2.0 * math.pi / 3.0) == pytest.approx(0.4375, abs=1e-14)

    def test_orthogonal_state_has_zero_probability(self):
        op = MeasurementOperator(np.diag([1.0, 0.0]))
        down = PureState(theta=math.pi, phi=0.0)
        assert outcome_probability(op, down) == pytest.approx(0.0, abs=1e-30)

    def test_relabeled_probability_identity(self):
        """p = kappa^2 * q(lam, theta') where theta' is the polar angle of
        the state after the canonical right factor acts on it."""
        rng = np.random.default_rng(90)
        for _ in range(25):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m *= 0.5 / np.abs(np.linalg.svd(m, compute_uv=False)).max()
            op = MeasurementOperator(m)
            state = PureState(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
            rotated = PureState.from_amplitudes(op.canonical.v @ np.asarray(state.amplitudes()))
            c, s = math.cos(0.5 * rotated.theta), math.sin(0.5 * rotated.theta)
            expected = op.kappa**2 * (c * c + op.lam**2 * s * s)
            assert outcome_probability(op, state) == pytest.approx(expected, abs=1e-10)

    def test_complete_set_probabilities_sum_to_one(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            mset = two_outcome_family(rng.uniform(0, 1), rng.uniform(0.1, 1))
            state = PureState(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
            total = sum(outcome_probability(op, state) for op in mset.operators)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestCompleteness:
    def test_projective_pair_passes(self):
        ops = [MeasurementOperator(np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])]
        assert check_completeness(ops) < 1e-15

    def test_deficient_set_measured(self):
        ops = [MeasurementOperator(0.9 * np.eye(2))]
        assert check_completeness(ops) == pytest.approx(0.19, abs=1e-12)

    def test_two_outcome_family_is_complete(self):
        for lam0, kappa0 in [(0.5, 1.0), (0.2, 0.7), (0.95, 0.99), (0.0, 0.5)]:
            mset = two_outcome_family(lam0, kappa0)
            total = sum(op.gram() for op in mset.operators)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_two_outcome_family_degenerate_corner(self):
        with pytest.raises(InvalidStrengthError):
            two_outcome_family(1.0, 1.0)  # second operator would vanish

    def test_two_outcome_family_range_checks(self):
        with pytest.raises(InvalidStrengthError):
            two_outcome_family(1.2, 0.5)
        with pytest.raises(InvalidStrengthError):
            two_outcome_family(0.5, 0.0)


class TestMeasurementSet:
    def test_default_labels(self):
        mset = MeasurementSet(operators=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert mset.labels == ("0", "1")

    def test_incomplete_set_rejected(self):
        with pytest.raises(IncompleteSetError):
            MeasurementSet(operators=(np.diag([1.0, 0.0]),))

    def test_json_round_trip(self):
        mset = two_outcome_family(0.5, 0.9)
        clone = MeasurementSet.from_json(mset.to_json())
        assert clone.labels == mset.labels
        for a, b in zip(clone.operators, mset.operators):
            np.testing.assert_array_equal(a.matrix, b.matrix)


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
)
def test_state_amplitude_round_trip(theta, phi):
    s = PureState(theta=theta, phi=phi)
    back = PureState.from_amplitudes(np.array(s.amplitudes()))
    assert back.overlap(s) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)
def test_q_value_bounds(lam, theta):
    q = q_value(lam, theta)
    assert min(lam * lam, 1.0) - 1e-12 <= q <= 1.0 + 1e-12
