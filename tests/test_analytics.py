"""Closed-form quantities and their outcome averages.

The numeric reference values below were frozen from 50-digit numerical
integration of the defining Bloch-sphere averages (mpmath), computed
independently of the closed forms under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtradeoff import analytics
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
from qmtradeoff import measurement
from qmtradeoff.errors import DomainError, IncompleteSetError
from qmtradeoff.linalg import Su2Params, su2_matrix, su2_params
from qmtradeoff.measurement import (
    MeasurementOperator,
    MeasurementSet,
    PureState,
    outcome_probability,
    two_outcome_family,
)

# information gain of a single outcome, frozen from the defining integral
INFO_REFERENCE = {
    0.05: 0.2751042673141615289867,
    0.25: 0.2068759128149828096346,
    0.5: 0.09005771800148928178305,
    0.75: 0.01900243197035187831937,
    0.95: 0.0006316802850312844544434,
    0.999: 2.406897067399138503965e-7,
    0.9999: 2.404732192403420093089e-9,
}

# mean operation fidelity at (lam, beta, gamma), frozen likewise
FIDELITY_REFERENCE = [
    (0.5, 0.0, 0.0, 0.9333333333333333),
    (0.5, 0.7, 1.1, 0.4112419857116757),
    (0.25, math.pi / 4, math.pi / 3, 0.4166666666666667),
    (0.8, 1.2, 0.3, 0.4186956087958388),
    (0.0, 0.4, 0.9, 0.4621329842178188),
]


class TestInformationGain:
    def test_frozen_reference_values(self):
        for lam, ref in INFO_REFERENCE.items():
            assert information_gain(lam) == pytest.approx(ref, abs=1e-12)

    def test_series_branch_accuracy(self):
        # 0.99999 is handled by the expansion about lam = 1
        assert information_gain(0.99999) == pytest.approx(
            2.404515779816443651014e-11, rel=1e-9
        )

    def test_endpoints(self):
        assert information_gain(0.0) == INFO_AT_ZERO
        assert INFO_AT_ZERO == pytest.approx(1.0 - 1.0 / (2.0 * math.log(2.0)), abs=0)
        assert information_gain(1.0) == 0.0

    def test_branches_agree_at_seam(self):
        seam = analytics.SERIES_SEAM
        for lam in (seam - 1e-9, seam, seam + 1e-9):
            direct = analytics._info_direct(lam)
            series = analytics._info_series(1.0 - lam)
            assert abs(direct - series) < 1e-12

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [information_gain(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vanishes_continuously_near_one(self):
        for eps in (1e-4, 1e-6, 1e-8):
            assert abs(information_gain(1.0 - eps)) < 10.0 * eps * abs(math.log2(eps))

    def test_domain(self):
        # A finite Fraction whose digits are too many to print: the message shows it as a float.
        for bad in (-0.1, 1.1, float("nan"), Fraction(10**5000 + 1, 10**5000)):
            with pytest.raises(DomainError):
                information_gain(bad)


CLOSED_FORMS = (
    information_gain,
    optimal_fidelity,
    reversibility,
    efficiency_fidelity,
    efficiency_reversibility,
)


@pytest.mark.parametrize("closed_form", CLOSED_FORMS)
class TestLambdaTypes:
    """Any finite real and any 0-d numeric array is a strength ratio;
    booleans, NaN and non-numbers are not."""

    @pytest.mark.parametrize(
        "lam",
        [0.5, np.float32(0.5), np.float64(0.5), np.array(0.5), 0, 1, np.int64(1), np.array(0)],
        ids=repr,
    )
    def test_reals_accepted(self, closed_form, lam):
        assert closed_form(lam) == closed_form(float(lam))

    @pytest.mark.parametrize(
        "lam",
        [True, False, np.bool_(True), np.array(True), np.array([0.5]), "0.5", None, 0.5j,
         np.float32("nan"), float("inf"), pytest.param(10**400, id="10**400"),
         pytest.param(-10**400, id="-10**400"), pytest.param(10**5000, id="10**5000"),
         pytest.param(-10**5000, id="-10**5000")],
        ids=repr,
    )
    def test_non_reals_rejected(self, closed_form, lam):
        with pytest.raises(DomainError):
            closed_form(lam)

    @pytest.mark.parametrize(
        "lam",
        [float("nan"), float("inf"), float("-inf"), -1e-300, 1.0 + 2.0**-52,
         np.float64("nan"), True],
        ids=repr,
    )
    def test_float_fast_path_falls_through(self, closed_form, lam):
        """A plain float in [0, 1] skips _check_lam's type checks; nothing
        else does, so every other value still meets them."""
        with pytest.raises(DomainError):
            closed_form(lam)

    def test_float_fast_path_returns_its_input(self, closed_form):
        for lam in (0.0, 5e-324, 0.5, 1.0):
            assert analytics._check_lam(lam) is lam
        lam = analytics._check_lam(np.float64(0.25))
        assert type(lam) is float and lam == 0.25
        assert closed_form(np.float64(0.25)) == closed_form(0.25)


class TestFidelity:
    def test_frozen_reference_values(self):
        for lam, beta, gamma, ref in FIDELITY_REFERENCE:
            assert fidelity_closed(lam, beta, gamma) == pytest.approx(ref, abs=1e-12)

    def test_optimal_special_points(self):
        assert optimal_fidelity(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert optimal_fidelity(0.5) == pytest.approx(14.0 / 15.0, abs=1e-15)
        assert optimal_fidelity(1.0) == pytest.approx(1.0, abs=0)

    def test_attained_at_no_rotation(self):
        for lam in (0.0, 0.3, 0.8, 1.0):
            assert fidelity_closed(lam, 0.0, 0.0) == pytest.approx(
                optimal_fidelity(lam), abs=1e-14
            )

    def test_floor_at_quarter_turn(self):
        for lam in (0.0, 0.3, 0.8, 1.0):
            assert fidelity_closed(lam, 0.5, math.pi / 2) == pytest.approx(
                1.0 / 3.0, abs=1e-14
            )

    @pytest.mark.parametrize(
        "beta, gamma",
        [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.3), (1e308, 0.0), (-1e308, 0.0),
         pytest.param(np.float64(1e308), 0.0, id="float64(1e308)-0.0"),
         pytest.param(10**400, 0.0, id="10**400-0.0"),
         pytest.param(0.0, -10**400, id="0.0--10**400"),
         ("x", 0.0), (0.0, None), (1j, 0.0), (0.0, np.array([0.5, 0.5]))],
    )
    def test_non_finite_angles_rejected(self, beta, gamma):
        """Each angle, and 2 beta, which the formula takes the cosine of,
        must be finite as a float."""
        with pytest.raises(DomainError, match="^angles and 2 beta must be finite$"):
            fidelity_closed(0.5, beta, gamma)

    def test_largest_angles_accepted(self):
        for beta, gamma in ((8.9e307, 0.0), (0.0, 1.7e308), (10**307, -(10**307))):
            assert 1.0 / 3.0 <= fidelity_closed(0.5, beta, gamma) <= optimal_fidelity(0.5)

    def test_operator_form_matches_angles(self):
        # alpha = beta = 0 and gamma < pi/4 keep the construction unitary in
        # canonical column-phase gauge, so the angles survive refactorization.
        u = su2_matrix(Su2Params(alpha=0.0, beta=0.0, gamma=0.6, delta=1.4))
        op = MeasurementOperator(0.7 * u @ np.diag([1.0, 0.4]))
        assert fidelity_of_operator(op) == pytest.approx(
            fidelity_closed(0.4, 0.0, 0.6), abs=1e-12
        )

    def test_operator_form_consistent_with_reported_angles(self):
        from qmtradeoff.linalg import su2_params

        u = su2_matrix(Su2Params(alpha=0.2, beta=-0.9, gamma=0.6, delta=1.4))
        op = MeasurementOperator(0.7 * u @ np.diag([1.0, 0.4]))
        ang = su2_params(op.canonical.u)
        assert ang.gamma == pytest.approx(0.6, abs=1e-12)  # gauge-independent
        assert fidelity_of_operator(op) == pytest.approx(
            fidelity_closed(op.lam, ang.beta, ang.gamma), abs=1e-12
        )

    def test_operator_form_ignores_premeasurement_rotation(self):
        """A unitary applied before the back-action cannot change the
        fidelity of the canonical operator."""
        rng = np.random.default_rng(8)
        u = su2_matrix(Su2Params(alpha=0.1, beta=0.7, gamma=0.5, delta=-0.3))
        base = 0.9 * u @ np.diag([1.0, 0.35])
        ref = fidelity_of_operator(MeasurementOperator(base))
        for _ in range(10):
            w = su2_matrix(Su2Params(*rng.uniform(-math.pi, math.pi, 4)))
            assert fidelity_of_operator(MeasurementOperator(base @ w)) == pytest.approx(
                ref, abs=1e-10
            )

    def test_monotone_optimal(self):
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [optimal_fidelity(x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestReversibility:
    @pytest.mark.parametrize(
        "lam,ref",
        [(0.3, 0.1651376146788991), (0.5, 0.4), (0.8, 0.7804878048780488)],
    )
    def test_reference_values(self, lam, ref):
        assert reversibility(lam) == pytest.approx(ref, abs=1e-15)

    def test_endpoints(self):
        assert reversibility(0.0) == 0.0
        assert reversibility(1.0) == pytest.approx(1.0, abs=0)

    def test_monotone_increasing(self):
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [reversibility(x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_equals_ratio_to_mean_acceptance(self):
        """R is the squared strength ratio over the sphere-averaged
        acceptance probability."""
        for lam in np.linspace(0.0, 1.0, 101):
            qbar = (1.0 + lam * lam) / 2.0
            assert reversibility(lam) == pytest.approx(lam * lam / qbar, abs=1e-15)


class TestEfficiencies:
    def test_fidelity_efficiency_endpoints(self):
        assert efficiency_fidelity(0.0) == pytest.approx(3.0 * INFO_AT_ZERO, abs=0)
        assert efficiency_fidelity(1.0) == EFF_FIDELITY_AT_ONE
        assert EFF_FIDELITY_AT_ONE == pytest.approx(1.0 / math.log(2.0), abs=0)

    def test_fidelity_efficiency_near_one(self):
        assert efficiency_fidelity(1.0 - 1e-6) == pytest.approx(
            EFF_FIDELITY_AT_ONE, abs=1e-6
        )
        assert efficiency_fidelity(0.999) == pytest.approx(
            EFF_FIDELITY_AT_ONE, abs=1e-3
        )

    def test_fidelity_efficiency_seam(self):
        seam = analytics.SERIES_SEAM
        below = efficiency_fidelity(seam - 1e-12)
        above = efficiency_fidelity(seam + 1e-12)
        assert abs(below - above) < 1e-10

    def test_reversibility_efficiency_endpoints(self):
        assert efficiency_reversibility(0.0) == INFO_AT_ZERO
        assert efficiency_reversibility(1.0) == 0.0

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 2001)
        ef = [efficiency_fidelity(x) for x in grid]
        er = [efficiency_reversibility(x) for x in grid]
        assert all(a < b for a, b in zip(ef, ef[1:]))
        assert all(a > b for a, b in zip(er, er[1:]))

    def test_consistency_with_ratios(self):
        for lam in (0.1, 0.4, 0.7, 0.9):
            info = information_gain(lam)
            assert efficiency_fidelity(lam) == pytest.approx(
                info / (1.0 - optimal_fidelity(lam)), rel=1e-12
            )
            assert efficiency_reversibility(lam) == pytest.approx(
                info / (1.0 - reversibility(lam)), rel=1e-12
            )


class TestRecordsAndTotals:
    def test_tradeoff_record_fields(self):
        rec = tradeoff_record(0.5)
        assert rec.lam == 0.5
        assert rec.info == information_gain(0.5)
        assert rec.fidelity_opt == optimal_fidelity(0.5)
        assert rec.reversibility == reversibility(0.5)
        assert rec.eff_fidelity == efficiency_fidelity(0.5)
        assert rec.eff_reversibility == efficiency_reversibility(0.5)

    def test_outcome_probability_total(self):
        """p(m) = kappa_m^2 (1 + lam_m^2) / 2 for each outcome of a set."""
        for (lam0, kappa0), p0 in [
            ((0.0, 1.0), 0.5),
            ((1.0, 0.6), 0.36),
            ((0.5, 0.8), 0.4),
            ((0.5, 0.6), 0.36 * 0.625),
        ]:
            probs = averaged_quantities(two_outcome_family(lam0, kappa0)).outcome_probabilities
            assert probs == pytest.approx((p0, 1.0 - p0), abs=1e-15)

    def test_total_probability_matches_sphere_average(self):
        """kappa^2 qbar really is the sphere-averaged outcome probability,
        over states with cos(theta) and phi uniform."""
        op = MeasurementOperator(0.8 * np.diag([1.0, 0.5]))
        rng = np.random.default_rng(73)
        u, phi = rng.uniform(-1.0, 1.0, 20_000), rng.uniform(-np.pi, np.pi, 20_000)
        probs = [
            outcome_probability(op, PureState(theta=t, phi=f))
            for t, f in zip(np.arccos(u), phi)
        ]
        mean = float(np.mean(probs))
        se = float(np.std(probs, ddof=1)) / np.sqrt(len(probs))
        assert abs(mean - 0.4) < 4.0 * se


class TestAveragedQuantities:
    def test_projective_pair(self):
        mset = MeasurementSet(operators=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        avg = averaged_quantities(mset)
        assert avg.info == pytest.approx(INFO_AT_ZERO, abs=1e-12)
        assert avg.fidelity == 2.0 / 3.0
        assert avg.reversibility == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(avg.outcome_probabilities, [0.5, 0.5], atol=1e-14)

    def test_identity_channel(self):
        mset = MeasurementSet(operators=(np.eye(2),))
        avg = averaged_quantities(mset)
        assert avg.info == pytest.approx(0.0, abs=1e-15)
        assert avg.fidelity == 1.0
        assert avg.reversibility == pytest.approx(1.0, abs=1e-15)

    def test_two_outcome_family_interpolates(self):
        mset = two_outcome_family(0.5, 0.9)
        avg = averaged_quantities(mset)
        assert 0.0 < avg.info < INFO_AT_ZERO
        assert 2.0 / 3.0 < avg.fidelity < 1.0
        assert 0.0 < avg.reversibility < 1.0
        assert sum(avg.outcome_probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_probability_sum_cross_check_fires(self, monkeypatch):
        """With construction's completeness check loosened, the outcome
        probabilities' own sum still rejects an incomplete set."""
        monkeypatch.setattr(measurement, "COMPLETENESS_TOL", 1.0)
        mset = MeasurementSet(operators=(np.diag([1.0, 0.5]),))
        with pytest.raises(IncompleteSetError, match="sum to 0.625"):
            averaged_quantities(mset)

    def test_reversibility_cross_check_fires(self, monkeypatch):
        """A reversibility closed form off by 1% disagrees with the direct
        form sum kappa^2 lam^2."""
        exact = analytics.reversibility
        monkeypatch.setattr(analytics, "reversibility", lambda lam: 1.01 * exact(lam))
        with pytest.raises(ArithmeticError, match="^reversibility cross-check failed"):
            averaged_quantities(two_outcome_family(0.3, 0.9))

    @staticmethod
    def random_sets(n, seed):
        """``n`` complete two-outcome sets: the 2x2 blocks of Q from a QR of a
        4x2 complex Gaussian, so Q† Q = I and both right factors are generic."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
            yield MeasurementSet(operators=(q[:2], q[2:]))

    @staticmethod
    def angle_form(mset, left):
        """sum_m p_m fidelity_closed(lam_m, angles of left(canonical_m))."""
        total = 0.0
        for op in mset.operators:
            canon = op.canonical
            ang = su2_params(left(canon))
            p = 0.5 * canon.kappa**2 * (1.0 + canon.lam**2)
            total += p * fidelity_closed(canon.lam, ang.beta, ang.gamma)
        return total

    def test_set_fidelity_matches_angle_form(self):
        """The trace form (2 + sum_m |tr M_m|^2) / 6 against the paper's
        per-outcome closed form, evaluated with the angles of v_m @ u_m: the
        right factor rotates the input state before the left one acts."""
        worst = max(
            abs(averaged_quantities(mset).fidelity - self.angle_form(mset, lambda c: c.v @ c.u))
            for mset in self.random_sets(300, seed=3)
        )
        assert worst <= 1e-15

    def test_set_fidelity_misses_angle_form_without_right_factor(self):
        """Negative control: the angles of u_m alone, the single-outcome
        relabeling convention, miss the set fidelity on every set."""
        nearest = min(
            abs(averaged_quantities(mset).fidelity - self.angle_form(mset, lambda c: c.u))
            for mset in self.random_sets(300, seed=3)
        )
        assert nearest > 1e-3

    def test_reversibility_average_has_closed_total(self):
        """Outcome-weighted reversibility collapses to a sum of squared
        smallest singular values."""
        rng = np.random.default_rng(123)
        for _ in range(10):
            kappa0 = rng.uniform(0.3, 0.95)
            lam0 = rng.uniform(0.05, 0.95)
            mset = two_outcome_family(lam0, kappa0)
            avg = averaged_quantities(mset)
            direct = sum(op.kappa**2 * op.lam**2 for op in mset.operators)
            assert avg.reversibility == pytest.approx(direct, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=-math.pi, max_value=math.pi),
    gamma=st.floats(min_value=0.0, max_value=math.pi),
)
def test_fidelity_stays_in_band(lam, beta, gamma):
    f = fidelity_closed(lam, beta, gamma)
    assert 1.0 / 3.0 - 1e-12 <= f <= optimal_fidelity(lam) + 1e-12


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0))
def test_scalar_forms_stay_in_range(lam):
    assert 0.0 <= information_gain(lam) <= INFO_AT_ZERO
    assert 2.0 / 3.0 <= optimal_fidelity(lam) <= 1.0
    assert 0.0 <= reversibility(lam) <= 1.0
