"""Acceptance gate: nine independent checks, one test (and one report line
under ``pytest -v``) per check.

Every stochastic check uses an explicitly seeded generator so the whole gate
is reproducible; tolerances and sample counts are stated inline.
"""

import math
import time

import numpy as np
import pytest

from qmtradeoff import analytics, oracle
from qmtradeoff.analytics import (
    EFF_FIDELITY_AT_ONE,
    INFO_AT_ZERO,
    averaged_quantities,
    efficiency_fidelity,
    efficiency_reversibility,
    fidelity_closed,
    fidelity_of_operator,
    information_gain,
    optimal_fidelity,
    reversibility,
    tradeoff_record,
)
from qmtradeoff.linalg import Su2Params, su2_matrix
from qmtradeoff.measurement import MeasurementOperator, MeasurementSet, PureState
from qmtradeoff.reversal import simulate_reversal

SEED = 20260819
Z_999 = 3.290526731491894  # two-sided 99.9% normal quantile


def diag_op(lam, kappa=1.0):
    return MeasurementOperator(kappa * np.diag([1.0, lam]))


def random_su2(rng):
    return su2_matrix(
        Su2Params(
            alpha=rng.uniform(-np.pi, np.pi),
            beta=rng.uniform(-np.pi, np.pi),
            gamma=rng.uniform(0.0, np.pi / 2),
            delta=rng.uniform(-np.pi, np.pi),
        )
    )


def sqrtm_psd(mat):
    evals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T


def test_01_endpoint_values():
    """Information, optimal fidelity, and reversibility at both ends of the
    strength-ratio range."""
    assert abs(information_gain(0.0) - (1.0 - 1.0 / (2.0 * math.log(2.0)))) < 1e-12
    assert abs(information_gain(1.0)) < 1e-9  # limit branch
    assert abs(optimal_fidelity(0.0) - 2.0 / 3.0) < 1e-12
    assert abs(optimal_fidelity(1.0) - 1.0) < 1e-12
    assert abs(reversibility(0.0)) < 1e-12
    assert abs(reversibility(1.0) - 1.0) < 1e-12


def test_02_efficiency_endpoints():
    """Efficiency ratios at the weak and strong limits."""
    assert abs(efficiency_fidelity(0.0) - 3.0 * (1.0 - 1.0 / (2.0 * math.log(2.0)))) < 1e-12
    assert abs(efficiency_reversibility(0.0) - (1.0 - 1.0 / (2.0 * math.log(2.0)))) < 1e-12
    assert abs(efficiency_fidelity(1.0 - 1e-6) - EFF_FIDELITY_AT_ONE) < 1e-6
    assert efficiency_reversibility(1.0) == 0.0


def test_03_oracle_equivalence():
    """Quadrature to 1e-8 and million-sample Monte Carlo to 4 standard
    errors, for all three quantities on the 19-point strength grid; under
    two minutes single-threaded."""
    start = time.perf_counter()
    # One batch of states for the whole grid, as verify draws it.
    r = oracle.sample_bloch_vectors(np.random.default_rng(SEED), 1_000_000)
    for lam in np.linspace(0.05, 0.95, 19):
        op = diag_op(lam)
        targets = {
            "info": information_gain(lam),
            "fidelity": fidelity_of_operator(op),
            "reversibility": reversibility(lam),
        }
        assert abs(oracle.quadrature_information(op).value - targets["info"]) < 1e-8
        assert abs(oracle.quadrature_fidelity(op).value - targets["fidelity"]) < 1e-8
        assert (
            abs(oracle.quadrature_reversibility(op).value - targets["reversibility"])
            < 1e-8
        )
        for fn, key in (
            (oracle.estimate_information, "info"),
            (oracle.estimate_fidelity, "fidelity"),
            (oracle.estimate_reversibility, "reversibility"),
        ):
            est = fn(op, r)
            assert abs(est.value - targets[key]) < 4.0 * est.std_error, (lam, key)
    assert time.perf_counter() - start < 120.0


def test_04_fidelity_bounds():
    """Fidelity stays within [1/3, F_opt] over 10^4 random parameter
    triples, attains both ends, and the quarter-turn operator's estimated
    fidelity is 1/3."""
    rng = np.random.default_rng(SEED)
    for _ in range(10_000):
        lam = rng.uniform(0.0, 1.0)
        beta = rng.uniform(-np.pi, np.pi)
        gamma = rng.uniform(0.0, np.pi)
        f = fidelity_closed(lam, beta, gamma)
        assert 1.0 / 3.0 - 1e-12 <= f <= optimal_fidelity(lam) + 1e-12
    lam = 0.37
    assert abs(fidelity_closed(lam, 0.8, np.pi / 2) - 1.0 / 3.0) < 1e-12
    assert abs(fidelity_closed(lam, 0.0, 0.0) - optimal_fidelity(lam)) < 1e-12

    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    op = MeasurementOperator(flip @ np.diag([1.0, 0.5]))
    assert abs(fidelity_of_operator(op) - 1.0 / 3.0) < 1e-12
    est = oracle.estimate_fidelity(op, oracle.sample_bloch_vectors(rng, 1_000_000))
    assert abs(est.value - 1.0 / 3.0) < 4.0 * est.std_error


def test_05_reversal_statistics():
    """Empirical reversal success rates sit inside the 99.9% binomial band
    around the per-state prediction for every (strength, state) cell, and
    every success restores the state; under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    trials = 100_000
    for lam in (0.3, 0.5, 0.8):
        op = diag_op(lam)
        for theta in (0.0, math.pi / 2, math.pi):
            state = PureState(theta=theta, phi=0.3)
            stats = simulate_reversal(op, state, trials, rng)
            p = stats.predicted_rate
            half_width = Z_999 * math.sqrt(p * (1.0 - p) / trials)
            assert abs(stats.empirical_rate - p) <= half_width, (lam, theta)
            assert stats.recovered_fidelity_min >= 1.0 - 1e-10
    assert time.perf_counter() - start < 30.0


def test_06_unitary_invariance():
    """Rotating the operator from the left must not move the information or
    reversibility estimates; rotating from the right (a relabeling of the
    input basis) must not move any of the three."""
    rng = np.random.default_rng(SEED)
    samples = 200_000
    for _ in range(20):
        lam = rng.uniform(0.05, 0.95)
        kappa = rng.uniform(0.3, 1.0)
        base = kappa * np.diag([1.0, lam])
        w = random_su2(rng)
        left = MeasurementOperator(w @ base)
        right = MeasurementOperator(base @ w)
        info_ref = information_gain(lam)
        rev_ref = reversibility(lam)
        fid_ref = fidelity_of_operator(MeasurementOperator(base))

        batch = oracle.sample_bloch_vectors
        for est, ref in (
            (oracle.estimate_information(left, batch(rng, samples)), info_ref),
            (oracle.estimate_reversibility(left, batch(rng, samples)), rev_ref),
            (oracle.estimate_information(right, batch(rng, samples)), info_ref),
            (oracle.estimate_reversibility(right, batch(rng, samples)), rev_ref),
            (oracle.estimate_fidelity(right, batch(rng, samples)), fid_ref),
        ):
            assert abs(est.value - ref) < 4.0 * est.std_error

        for qfn, ref in (
            (oracle.quadrature_information, info_ref),
            (oracle.quadrature_reversibility, rev_ref),
        ):
            assert abs(qfn(left).value - ref) < 1e-8
            assert abs(qfn(right).value - ref) < 1e-8
        assert abs(oracle.quadrature_fidelity(right).value - fid_ref) < 1e-8


def test_07_monotonicity():
    """Strict monotonicity of all five scalar quantities on a 10^4-point
    grid: zero violations allowed."""
    grid = np.linspace(0.0, 1.0, 10_000)
    info = [information_gain(x) for x in grid]
    fopt = [optimal_fidelity(x) for x in grid]
    rev = [reversibility(x) for x in grid]
    ef = [efficiency_fidelity(x) for x in grid]
    er = [efficiency_reversibility(x) for x in grid]
    assert all(a > b for a, b in zip(info, info[1:]))
    assert all(a < b for a, b in zip(fopt, fopt[1:]))
    assert all(a < b for a, b in zip(rev, rev[1:]))
    assert all(a < b for a, b in zip(ef, ef[1:]))
    assert all(a > b for a, b in zip(er, er[1:]))


def test_08_outcome_averages():
    """The projective pair reproduces its exact averaged triple, and random
    complete two-outcome sets satisfy both the probability sum rule and the
    two equivalent forms of averaged reversibility."""
    projective = MeasurementSet(operators=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    avg = averaged_quantities(projective)
    assert abs(avg.info - INFO_AT_ZERO) < 1e-12
    assert abs(avg.fidelity - 2.0 / 3.0) < 1e-12
    assert abs(avg.reversibility) < 1e-12

    rng = np.random.default_rng(SEED)
    for _ in range(10):
        kappa = rng.uniform(0.2, 0.99)
        lam = rng.uniform(0.05, 0.95)
        m0 = kappa * (random_su2(rng) @ np.diag([1.0, lam]) @ random_su2(rng))
        m1 = random_su2(rng) @ sqrtm_psd(np.eye(2) - m0.conj().T @ m0)
        mset = MeasurementSet(operators=(m0, m1))
        avg = averaged_quantities(mset)
        weighted = sum(
            p * reversibility(op.lam)
            for p, op in zip(avg.outcome_probabilities, mset.operators)
        )
        direct = sum(op.kappa**2 * op.lam**2 for op in mset.operators)
        assert abs(weighted - direct) < 1e-12
        assert abs(avg.reversibility - direct) < 1e-12
        assert abs(sum(avg.outcome_probabilities) - 1.0) < 1e-10


def test_09_tradeoff_curve():
    """Re-parameterized as functions of information gain, both optimal
    fidelity and reversibility fall as the gain rises: more information,
    more disturbance, less reversibility."""
    records = [tradeoff_record(lam) for lam in np.linspace(0.0, 1.0, 10_000)]
    by_info = sorted(records, key=lambda r: r.info)
    fopt = [r.fidelity_opt for r in by_info]
    rev = [r.reversibility for r in by_info]
    assert all(a > b for a, b in zip(fopt, fopt[1:]))
    assert all(a > b for a, b in zip(rev, rev[1:]))
