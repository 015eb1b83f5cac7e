"""Construction and simulation of the optimal reversing measurement."""

import math
import time

import numpy as np
import pytest

from qmtradeoff import reversal
from qmtradeoff.errors import DomainError, IrreversibleError, ZeroProbabilityError
from qmtradeoff.linalg import Su2Params, su2_matrix
from qmtradeoff.measurement import MeasurementOperator, PureState
from qmtradeoff.reversal import (
    REVERSIBLE_LAM_TOL,
    ReversingMeasurement,
    optimal_reversing,
    reversal_success_probability,
    simulate_reversal,
)

from state_reference import from_amplitudes_reference


def make_operator(kappa, lam, seed=None):
    if seed is None:
        return MeasurementOperator(kappa * np.diag([1.0, lam]))
    rng = np.random.default_rng(seed)
    w1 = su2_matrix(Su2Params(*rng.uniform(-math.pi, math.pi, 4)))
    w2 = su2_matrix(Su2Params(*rng.uniform(-math.pi, math.pi, 4)))
    return MeasurementOperator(kappa * (w1 @ np.diag([1.0, lam]) @ w2))


def optimal_reversing_reference(op):
    """The NumPy formulation of :func:`optimal_reversing`'s matrix:
    ``v† @ diag(lam, 1) @ u†`` as array products, with the same guard."""
    canon = op.canonical
    if canon.lam < REVERSIBLE_LAM_TOL:
        raise IrreversibleError("operator has a zero singular value")
    core = np.diag([canon.lam, 1.0]).astype(complex)
    return canon.v.conj().T @ core @ canon.u.conj().T


def reference_operators(kind, rng):
    """Twenty operators of one kind for the scalar-versus-reference test."""
    out = []
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kappa = rng.uniform(0.2, 1.0)
        if kind == "operators":  # the benchmark's recipe
            m = g / np.linalg.norm(g, 2) * kappa
        elif kind == "power-of-two":
            m = g / np.linalg.norm(g, 2) * 2.0 ** -int(rng.integers(1, 40))
        else:
            lam = {"lambda=1": 1.0, "lambda=1e-13": 1e-13, "lambda=0": 0.0}[kind]
            m = make_operator(kappa, lam, seed=int(rng.integers(1, 10**9))).matrix
        out.append(MeasurementOperator(m))
    return out


class TestScalarReversing:
    """optimal_reversing's entrywise R0 against the NumPy product. R0 has
    operator norm 1, so every entry is bounded by 1 and the bound is 1e-15
    absolute, about 4 ulps."""

    KINDS = ["operators", "power-of-two", "lambda=1", "lambda=1e-13", "lambda=0"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, kind):
        rng = np.random.default_rng(4000 + self.KINDS.index(kind))
        for op in reference_operators(kind, rng):
            if kind == "lambda=0":
                for build in (optimal_reversing, optimal_reversing_reference):
                    with pytest.raises(IrreversibleError):
                        build(op)
                continue
            rev = optimal_reversing(op)
            assert rev.matrix.dtype == complex and rev.matrix.shape == (2, 2)
            assert rev.eta == op.kappa * op.lam
            np.testing.assert_allclose(
                rev.matrix, optimal_reversing_reference(op), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("lam", [1e-6, 1e-8])
    def test_weak_direction_reverses_with_certainty(self, lam):
        """A state along the weak right-singular vector is reversed with
        probability 1. Its outcome probability kappa^2 lam^2 is far below
        the rounding of M† M's entries, so it must come from |M psi|^2."""
        rng = np.random.default_rng(4100)
        for _ in range(20):
            op = make_operator(rng.uniform(0.2, 1.0), lam, seed=int(rng.integers(1, 10**9)))
            weak = from_amplitudes_reference(op.canonical.v[1].conj())
            assert reversal_success_probability(op, weak) == pytest.approx(1.0, abs=1e-6)

    def test_zero_probability_rejected(self, monkeypatch):
        monkeypatch.setattr(reversal, "outcome_probability", lambda op, state: 0.0)
        with pytest.raises(ZeroProbabilityError, match="zero probability on this state"):
            reversal_success_probability(make_operator(1.0, 0.5), PureState(theta=0.5))

    def test_failed_recovery_raises(self, monkeypatch):
        """Negative control of the recovery check: an R0 with its diag(lam, 1)
        swapped does not restore the state, and neither does R0 behind a
        relative phase diag(1, i), which keeps the norm and so the success
        rate: only the overlap check can catch it. simulate_reversal says so."""
        op = make_operator(0.9, 0.4, seed=5)
        canon = op.canonical
        swapped = canon.v.conj().T @ np.diag([1.0, canon.lam]) @ canon.u.conj().T
        phased = np.diag([1.0, 1j]) @ optimal_reversing(op).matrix
        state = PureState(theta=1.2, phi=0.3)
        for bad in (swapped, phased):
            rev = ReversingMeasurement(bad, 0.36)
            monkeypatch.setattr(reversal, "optimal_reversing", lambda op, rev=rev: rev)
            with pytest.raises(ArithmeticError, match="successful reversal left overlap"):
                simulate_reversal(op, state, 100, np.random.default_rng(2))

    def test_operator_at_the_norm_tolerance(self):
        """An operator whose norm exceeds 1 by less than OPERATOR_NORM_TOL is
        accepted, and p = |M psi|^2 along its strong direction exceeds 1 by
        about twice that; it is clamped to 1, not raised."""
        op = MeasurementOperator(np.diag([1.0 + 0.9e-12, 0.5]))
        state = PureState(theta=0.0)
        assert reversal_success_probability(op, state) == pytest.approx(0.25, abs=1e-15)
        stats = simulate_reversal(op, state, 1000, np.random.default_rng(0))
        assert stats.predicted_rate == pytest.approx(0.25, abs=1e-15)
        assert stats.recovered_fidelity_min == pytest.approx(1.0, abs=1e-15)


class TestOptimalReversing:
    def test_undoes_the_operator(self):
        """R @ M must be proportional to the identity: that is the whole point."""
        for seed in (None, 1, 2, 3):
            op = make_operator(0.9, 0.4, seed=seed)
            rev = optimal_reversing(op)
            np.testing.assert_allclose(
                rev.matrix @ op.matrix, rev.eta * np.eye(2), atol=1e-13
            )

    def test_eta_value(self):
        op = make_operator(0.8, 0.5)
        rev = optimal_reversing(op)
        assert rev.eta == pytest.approx(0.4, abs=1e-14)

    def test_is_valid_measurement_operator(self):
        """The reversing matrix must itself be implementable: largest
        singular value exactly 1 (it saturates its completeness budget)."""
        op = make_operator(0.9, 0.3, seed=7)
        rev = optimal_reversing(op)
        svals = np.linalg.svd(rev.matrix, compute_uv=False)
        assert svals[0] == pytest.approx(1.0, abs=1e-12)
        assert svals[1] == pytest.approx(0.3, abs=1e-12)

    def test_irreversible_rejected(self):
        op = make_operator(1.0, 0.0)
        with pytest.raises(IrreversibleError):
            optimal_reversing(op)

    def test_identity_operator_reversed_by_identity(self):
        """A measurement that does nothing needs no undoing: R0 = I, eta = 1."""
        rev = optimal_reversing(MeasurementOperator(np.eye(2)))
        np.testing.assert_allclose(rev.matrix, np.eye(2), atol=1e-14)
        assert rev.eta == pytest.approx(1.0, abs=1e-14)

    def test_eta_saturates_its_bound(self):
        """|eta|^2 can never exceed kappa^2 lam^2 (or R0 would amplify);
        the optimum sits exactly on that bound."""
        for seed in (3, 4, 5):
            op = make_operator(0.8, 0.35, seed=seed)
            rev = optimal_reversing(op)
            canon = op.canonical
            assert abs(rev.eta) ** 2 <= (canon.kappa * canon.lam) ** 2 + 1e-12
            assert abs(rev.eta) ** 2 == pytest.approx(
                (canon.kappa * canon.lam) ** 2, abs=1e-12
            )

    def test_norm_saturated_over_random_operators(self):
        """The largest eigenvalue of R0† R0 equals 1 at the optimum: any
        smaller would waste success probability, any larger is unphysical."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            op = make_operator(
                rng.uniform(0.2, 1.0),
                rng.uniform(0.05, 0.95),
                seed=int(rng.integers(1, 10**9)),
            )
            rev = optimal_reversing(op)
            top = np.linalg.eigvalsh(rev.matrix.conj().T @ rev.matrix)[-1]
            assert top == pytest.approx(1.0, abs=1e-10)

    def test_result_type(self):
        rev = optimal_reversing(make_operator(1.0, 0.5))
        assert isinstance(rev, ReversingMeasurement)


class TestSuccessProbability:
    def test_pole_state(self):
        op = make_operator(1.0, 0.5)
        up = PureState(theta=0.0, phi=0.0)
        assert reversal_success_probability(op, up) == pytest.approx(0.25)

    def test_equator_state(self):
        op = make_operator(1.0, 0.5)
        plus = PureState(theta=math.pi / 2, phi=0.0)
        assert reversal_success_probability(op, plus) == pytest.approx(0.4)

    def test_antipodal_state_certain(self):
        op = make_operator(1.0, 0.5)
        down = PureState(theta=math.pi, phi=0.0)
        assert reversal_success_probability(op, down) == pytest.approx(1.0)

    def test_weaker_operator_same_ratio(self):
        """Success odds depend on the strength ratio and the state, not on
        the overall outcome probability scale."""
        state = PureState(theta=1.1, phi=0.2)
        full = reversal_success_probability(make_operator(1.0, 0.5), state)
        scaled = reversal_success_probability(make_operator(0.6, 0.5), state)
        assert scaled == pytest.approx(full, abs=1e-14)

    def test_singular_operator_rejected(self):
        op = make_operator(1.0, 0.0)
        state = PureState(theta=0.4, phi=0.0)
        with pytest.raises(IrreversibleError):
            reversal_success_probability(op, state)


class TestSimulateReversal:
    def test_statistics_fields(self):
        op = make_operator(1.0, 0.5)
        state = PureState(theta=math.pi / 2, phi=0.0)
        stats = simulate_reversal(op, state, 50_000, np.random.default_rng(11))
        assert stats.trials == 50_000
        assert stats.successes == round(stats.empirical_rate * stats.trials)
        assert stats.predicted_rate == pytest.approx(0.4)
        se = math.sqrt(0.4 * 0.6 / 50_000)
        assert abs(stats.empirical_rate - 0.4) < 4.0 * se
        assert stats.recovered_fidelity_min >= 1.0 - 1e-10

    def test_recovery_is_exact_for_rotated_operator(self):
        op = make_operator(0.85, 0.6, seed=21)
        state = PureState(theta=0.9, phi=2.2)
        stats = simulate_reversal(op, state, 10_000, np.random.default_rng(13))
        assert stats.recovered_fidelity_min >= 1.0 - 1e-12

    def test_deterministic_given_seed(self):
        op = make_operator(1.0, 0.3)
        state = PureState(theta=2.0, phi=0.0)
        a = simulate_reversal(op, state, 20_000, np.random.default_rng(99))
        b = simulate_reversal(op, state, 20_000, np.random.default_rng(99))
        assert a == b

    def test_recovery_exact_over_random_pairs(self):
        """Every successful reversal must restore the input state exactly,
        whatever the operator orientation and wherever the state sits."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            op = make_operator(
                rng.uniform(0.3, 1.0),
                rng.uniform(0.05, 0.98),
                seed=int(rng.integers(1, 10**9)),
            )
            state = PureState(
                theta=math.acos(rng.uniform(-1.0, 1.0)),
                phi=rng.uniform(0.0, 2.0 * math.pi),
            )
            stats = simulate_reversal(op, state, 40, rng)
            if stats.successes:
                assert stats.recovered_fidelity_min >= 1.0 - 1e-10

    def test_scaled_reversal_fails_the_band(self, monkeypatch):
        """Negative control of the 99.9% binomial band of test_05 in
        test_acceptance.py, run over its cells with its seed: an R0 scaled
        by 0.99 still restores the state but succeeds 2% less often than
        predicted, and the band must catch that."""
        def scaled(op, build=optimal_reversing):
            rev = build(op)
            return ReversingMeasurement(0.99 * rev.matrix, 0.99 * rev.eta)

        monkeypatch.setattr(reversal, "optimal_reversing", scaled)
        rng, trials, z_999 = np.random.default_rng(20260819), 100_000, 3.290526731491894
        outside = []
        for lam in (0.3, 0.5, 0.8):
            for theta in (0.0, math.pi / 2, math.pi):
                stats = simulate_reversal(
                    make_operator(1.0, lam), PureState(theta=theta, phi=0.3), trials, rng
                )
                p = stats.predicted_rate
                if abs(stats.empirical_rate - p) > z_999 * math.sqrt(p * (1.0 - p) / trials):
                    outside.append((lam, theta))
                assert stats.recovered_fidelity_min >= 1.0 - 1e-10
        assert outside

    def test_largest_trial_count_in_constant_memory(self):
        """Every trial succeeds at the one post-selected rate, so the count is
        one binomial draw: 2**53 trials, the most a count may be, allocate
        nothing of that size and end within a second, at the predicted rate
        to far better than 1e-6 (the binomial spread is about 5e-9)."""
        op = make_operator(0.9, 0.5, seed=31)
        start = time.perf_counter()
        stats = simulate_reversal(op, PureState(theta=1.0, phi=0.4), 2**53,
                                  np.random.default_rng(7))
        assert time.perf_counter() - start < 1.0
        assert stats.trials == 2**53 and 0 <= stats.successes <= stats.trials
        assert abs(stats.empirical_rate - stats.predicted_rate) <= 1e-6
        assert stats.recovered_fidelity_min >= 1.0 - 1e-10

    def test_trials_validated(self):
        op = make_operator(1.0, 0.5)
        state = PureState(theta=0.5, phi=0.0)
        with pytest.raises(DomainError):
            simulate_reversal(op, state, 0, np.random.default_rng(1))
        with pytest.raises(DomainError):
            simulate_reversal(op, state, -5, np.random.default_rng(1))
        with pytest.raises(DomainError, match="got int$"):
            simulate_reversal(op, state, -10**5000, np.random.default_rng(1))

    @pytest.mark.parametrize("trials", [True, np.True_])
    def test_bool_trials_rejected(self, trials):
        """``bool`` is an ``int``, but ``True`` is not a trial count."""
        op = make_operator(1.0, 0.5)
        with pytest.raises(DomainError):
            simulate_reversal(op, PureState(theta=0.5), trials, np.random.default_rng(1))
