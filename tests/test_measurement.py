"""States, operators, probabilities, completeness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtradeoff.errors import DomainError, FormatError, IncompleteSetError, InvalidStrengthError
from qmtradeoff.measurement import (
    OPERATOR_NORM_TOL,
    PROBABILITY_CLAMP,
    MeasurementOperator,
    MeasurementSet,
    PureState,
    _clamp_probability,
    check_completeness,
    outcome_probability,
    two_outcome_family,
)
from qmtradeoff.oracle import _q_coef

from state_reference import from_amplitudes_reference


def q_value(lam, theta):
    """The package's one q, the oracle's, of diag(1, lam) at the state's
    polar angle: its coefficients on x at r = (sin theta, 0, cos theta)."""
    g = _q_coef(MeasurementOperator(np.diag([1.0, lam])))
    return float(g[:4] @ [1.0, math.sin(theta), 0.0, math.cos(theta)])


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

    @pytest.mark.parametrize(
        "theta, phi",
        [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0),
         pytest.param(10**400, 0.0, id="10**400-0.0"),
         pytest.param(1.0, -10**400, id="1.0--10**400")],
    )
    def test_non_finite_angles_rejected(self, theta, phi):
        with pytest.raises(DomainError, match="^state angles must be finite$"):
            PureState(theta=theta, phi=phi)

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

    def test_repr(self):
        op = MeasurementOperator(0.8 * np.diag([1.0, 0.5]))
        assert repr(op) == "MeasurementOperator(kappa=0.8, lam=0.5)"

    def test_matrix_copy_is_safe(self):
        m = np.diag([1.0, 0.5]).astype(complex)
        op = MeasurementOperator(m)
        m[0, 0] = 99.0
        assert op.matrix[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            op.matrix[0, 0] = 5.0


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
            rotated = from_amplitudes_reference(op.canonical.v @ np.asarray(state.amplitudes()))
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
            total = sum(op.matrix.conj().T @ op.matrix for op in mset.operators)
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

    def test_empty_set_rejected(self):
        with pytest.raises(IncompleteSetError, match="^a measurement set needs at least one operator$"):
            MeasurementSet(operators=())

    def test_label_count_must_match(self):
        with pytest.raises(FormatError, match="^1 labels for 2 operators$"):
            MeasurementSet(operators=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=("a",))

    @pytest.mark.parametrize("payload", [{}, {"labels": ["0"]}, [], None, "operators"])
    def test_payload_needs_operators(self, payload):
        with pytest.raises(FormatError, match='^measurement set payload must contain "operators"$'):
            MeasurementSet.from_json(payload)

    @pytest.mark.parametrize("operators", [[], (), "ab", {"a": 1}, None, 0])
    def test_operators_must_be_a_non_empty_list(self, operators):
        with pytest.raises(FormatError, match='^"operators" must be a non-empty list$'):
            MeasurementSet.from_json({"operators": operators})

    def test_json_round_trip(self):
        mset = two_outcome_family(0.5, 0.9)
        clone = MeasurementSet.from_json(mset.to_json())
        assert clone.labels == mset.labels
        for a, b in zip(clone.operators, mset.operators):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize(
        "labels", ["ab", {"a": 0, "b": 1}, [None, None], ["a", 1], ("a", "b"), None]
    )
    def test_labels_must_be_a_list_of_strings(self, labels):
        payload = two_outcome_family(0.5, 0.9).to_json()
        payload["labels"] = labels
        with pytest.raises(FormatError, match='^"labels" must be a list of strings$'):
            MeasurementSet.from_json(payload)

    def test_labels_are_optional(self):
        payload = two_outcome_family(0.5, 0.9).to_json()
        del payload["labels"]
        assert MeasurementSet.from_json(payload).labels == ("0", "1")
        payload["labels"] = []
        assert MeasurementSet.from_json(payload).labels == ("0", "1")


def check_completeness_reference(operators):
    """The NumPy formulation of :func:`check_completeness`: the summed Gram
    matrices against ``np.eye(2)``."""
    total = sum(op.matrix.conj().T @ op.matrix for op in operators)
    return float(np.max(np.abs(total - np.eye(2))))


def outcome_probability_reference(op, state):
    """The NumPy formulation of :func:`outcome_probability`:
    ``<psi| M† M |psi>`` through the Gram matrix, with the same clamp."""
    amp, m = state.amplitudes(), op.matrix
    return _clamp_probability(float(np.real(np.vdot(amp, m.conj().T @ m @ amp))))


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng):
    return PureState(theta=math.acos(rng.uniform(-1.0, 1.0)), phi=rng.uniform(0.0, 2.0 * math.pi))


def completed_pair(m, rng):
    """m and a completing partner W sqrt(I - m† m), W Haar-random."""
    evals, vecs = np.linalg.eigh(np.eye(2) - m.conj().T @ m)
    return m, haar_unitary(rng) @ (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T


def reference_sets(kind, rng):
    """Ten (outcome, partner) matrix pairs of one kind."""
    out = []
    for _ in range(10):
        w, x, kappa = haar_unitary(rng), haar_unitary(rng), rng.uniform(0.2, 1.0)
        if kind == "operators":  # the benchmark's recipe
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g / np.linalg.norm(g, 2) * kappa
        elif kind == "lambda=0":
            m = kappa * w @ np.diag([1.0, 0.0]) @ x
        elif kind == "lambda=1":
            m = kappa * w
        else:  # "power-of-two": the recipe scaled by 2^-k, so incomplete
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = g / np.linalg.norm(g, 2) * 2.0 ** -int(rng.integers(1, 40))
        out.append(completed_pair(m, rng))
    return out


class TestScalarBodies:
    """The scalar bodies of check_completeness and outcome_probability
    against their NumPy formulations above. Both round differently, so the
    bounds are set from the dtype: the completeness deviation and every
    probability (all at most 2 in modulus) to 1e-15 absolute, about 4 ulps."""

    KINDS = ["operators", "lambda=0", "lambda=1", "power-of-two"]
    POLES = [PureState(theta=0.0, phi=1.0), PureState(theta=math.pi, phi=5.0)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_completeness_matches_reference(self, kind):
        rng = np.random.default_rng(3000 + self.KINDS.index(kind))
        for pair in reference_sets(kind, rng):
            for ops in ([MeasurementOperator(pair[0])], [MeasurementOperator(m) for m in pair]):
                dev = check_completeness(ops)
                assert isinstance(dev, float)
                assert abs(dev - check_completeness_reference(ops)) <= 1e-15

    def test_completeness_keeps_incomplete_set_error(self):
        half = MeasurementOperator(np.diag([1.0, 0.5]))
        assert check_completeness([half]) == check_completeness_reference([half]) == 0.75
        with pytest.raises(IncompleteSetError, match="deviates from identity by 7.500e-01"):
            MeasurementSet(operators=(half,))

    @pytest.mark.parametrize("kind", KINDS)
    def test_probability_matches_reference(self, kind):
        rng = np.random.default_rng(3100 + self.KINDS.index(kind))
        for pair in reference_sets(kind, rng):
            for m in pair:
                op = MeasurementOperator(m)
                for state in [random_state(rng), *self.POLES]:
                    p, ref = outcome_probability(op, state), outcome_probability_reference(op, state)
                    assert 0.0 <= p <= 1.0
                    assert abs(p - ref) <= 1e-15

    def test_probability_clamp_covers_the_accepted_norm(self):
        """MeasurementOperator accepts a norm up to 1 + OPERATOR_NORM_TOL, so
        p may exceed 1 by up to about twice that; round-off beyond it, or
        below 0 by more than PROBABILITY_CLAMP, still raises."""
        op = MeasurementOperator(np.diag([1.0 + 0.9e-12, 0.5]))
        assert outcome_probability(op, PureState(theta=0.0)) == 1.0
        edge = (1.0 + OPERATOR_NORM_TOL) ** 2
        assert _clamp_probability(edge) == 1.0
        assert _clamp_probability(-PROBABILITY_CLAMP) == 0.0
        for p in (edge + 1e-14, -2.0 * PROBABILITY_CLAMP):
            with pytest.raises(ArithmeticError, match="beyond round-off"):
                _clamp_probability(p)

    def test_orthogonal_state_has_probability_zero(self):
        rng = np.random.default_rng(3200)
        for _ in range(10):
            w = haar_unitary(rng)
            # w diag(1, 0) w† annihilates the state w[:, 1] up to its rounding.
            op = MeasurementOperator(w @ np.diag([1.0, 0.0]) @ w.conj().T)
            state = from_amplitudes_reference(w[:, 1])
            assert outcome_probability(op, state) <= 1e-15
            assert outcome_probability_reference(op, state) <= 1e-15
        exact = MeasurementOperator(np.diag([0.0, 1.0]))
        assert outcome_probability(exact, PureState(theta=0.0, phi=0.7)) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)
def test_q_value_bounds(lam, theta):
    q = q_value(lam, theta)
    assert min(lam * lam, 1.0) - 1e-12 <= q <= 1.0 + 1e-12
