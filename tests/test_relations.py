"""The paper's relations as relations: what one outcome's curves say about a
whole measurement.

I, F and R of one outcome are functions of its strength ratio alone, so
they trace curves ``F_opt(I)`` and ``R(I)``. Written from the README's
formulas and differentiated with ``mpmath`` at 40 digits, ``F_opt(I)`` is
strictly concave and ``R(I)`` strictly convex. So a complete set's averages
lie on or under the fidelity curve, ``F_avg <= F_opt(lam(I_avg))``, but not
under the reversibility curve: the bound on averaged reversibility is the
chord ``R_avg <= 1 - I_avg / INFO_AT_ZERO`` from the projective point to the
identity. ``lam(I)`` inverts ``information_gain`` by bisection. The set
fidelity is ``averaged_quantities``', not ``fidelity_of_operator``'s, which
follows the single-outcome relabeling convention.

The closed forms also fix F against R: with lam² = R / (2 - R), each
outcome has ``(3 F_opt - 2)² + (1 - R)² = 1``, the concave arc
``F_opt = arc(R) = 2/3 + √(R (2 - R)) / 3`` from (0, 2/3) to (1, 1). As
``F_m <= F_opt(lam_m)`` and both averages weight by p_m, every complete set
has ``F_avg <= arc(R_avg)``.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from qmtradeoff import analytics
from qmtradeoff.analytics import (
    INFO_AT_ZERO,
    averaged_quantities,
    information_gain,
    optimal_fidelity,
    reversibility,
)
from qmtradeoff.measurement import MeasurementSet

MP = mpmath.MPContext()
MP.dps = 40


def lam_of_info(info):
    """The lam in [0, 1] with information_gain(lam) = info, by bisection:
    information_gain is strictly decreasing on [0, 1]."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if information_gain(mid) > info else (lo, mid)
    return lo


def curves(lam):
    """(I, F_opt, R) of one outcome at lam, at 40 digits."""
    x2 = lam * lam
    info = (1 - 1 / (2 * MP.ln2) - x2 * x2 / (1 - x2 * x2) * MP.log(x2, 2)
            - MP.log(1 + x2, 2))
    return info, MP.mpf(2) / 3 * (1 + lam / (1 + x2)), 2 * x2 / (1 + x2)


def second_derivatives(lam):
    """d²F_opt/dI², d²R/dI² and d²F_opt/dR² at lam, as (y'' x' - y' x'') / x'^3
    in lam."""
    lam = MP.mpf(lam)
    (i1, f1, r1), (i2, f2, r2) = (
        [MP.diff(lambda t, k=k: curves(t)[k], lam, n) for k in range(3)] for n in (1, 2)
    )
    return (f2 * i1 - f1 * i2) / i1**3, (r2 * i1 - r1 * i2) / i1**3, (f2 * r1 - f1 * r2) / r1**3


def arc(rev):
    """The fidelity on the fidelity-reversibility arc at reversibility rev."""
    return 2.0 / 3.0 + math.sqrt(rev * (2.0 - rev)) / 3.0


def circle_residuals():
    """(3 F_opt - 2)² + (1 - R)² - 1 at lam = k/200, k = 0 ... 200, at 40
    digits from the package's two floats, looked up on the module so that a
    patched closed form is the one read."""
    return [float((3 * MP.mpf(analytics.optimal_fidelity(k / 200)) - 2) ** 2
                  + (1 - MP.mpf(analytics.reversibility(k / 200))) ** 2 - 1)
            for k in range(201)]


def random_sets(count, seed):
    """Complete sets of 2 to 5 outcomes: the 2x2 blocks of the orthonormal
    columns of a QR of a 2k x 2 complex Gaussian, right factors included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))
        yield MeasurementSet(operators=tuple(q[2 * m:2 * m + 2] for m in range(k)))


@functools.cache
def random_set_averages():
    """averaged_quantities of the 3000 random sets (seed 1) that every set
    bound here is checked on."""
    return [averaged_quantities(mset) for mset in random_sets(3000, seed=1)]


def equal_strength_gaps(lam):
    """{diag(1, lam), diag(lam, 1)} / sqrt(1 + lam²): both outcomes have
    strength ratio lam and a trivial v @ u, so the set's I, F and R are those
    of one outcome, and (R_avg, F_avg) lies on the F-R arc. Returns the
    three gaps to one outcome's values and the gap to the arc."""
    s = math.sqrt(1.0 + lam * lam)
    avg = averaged_quantities(MeasurementSet(
        operators=(np.diag([1.0, lam]) / s, np.diag([lam, 1.0]) / s)
    ))
    return (avg.info - information_gain(lam),
            avg.fidelity - analytics.optimal_fidelity(lam),
            avg.reversibility - reversibility(lam),
            avg.fidelity - arc(avg.reversibility))


def test_information_gain_strictly_decreasing():
    values = [information_gain(k / 200) for k in range(201)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for lam in (0.05, 0.3, 0.69, 0.9, 0.999):
        assert abs(lam_of_info(information_gain(lam)) - lam) <= 1e-9


def test_curve_shapes():
    """F_opt(I) strictly concave, R(I) strictly convex, at lam = k/200 inside
    (0, 1) (at both ends dI/dlam vanishes)."""
    fid, rev, _ = zip(*(second_derivatives(MP.mpf(k) / 200) for k in range(1, 200)))
    assert max(fid) < 0 and min(rev) > 0, (max(fid), min(rev))


def test_random_sets_under_the_fidelity_curve_and_the_chord():
    fid_gap = chord_gap = -math.inf
    for avg in random_set_averages():
        fid_gap = max(fid_gap, avg.fidelity - optimal_fidelity(lam_of_info(avg.info)))
        chord_gap = max(chord_gap, avg.reversibility - (1.0 - avg.info / INFO_AT_ZERO))
    assert fid_gap < 0.0 and chord_gap < 0.0, (fid_gap, chord_gap)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.8])
def test_equal_strength_set_meets_the_curves(lam):
    assert max(map(abs, equal_strength_gaps(lam))) <= 1e-12


def test_identity_and_projectors_beat_the_reversibility_curve():
    """{√½ I, √½ |0><0|, √½ |1><1|} has R_avg = 1/2 at I_avg = INFO_AT_ZERO / 2:
    on the chord, and well above the single-outcome curve there (0.2626).
    Its F_avg, 0.8333, is far under the F-R arc's 0.9553 at R_avg = 1/2: no
    measurement is best on all three relations at once."""
    h = math.sqrt(0.5)
    avg = averaged_quantities(MeasurementSet(
        operators=(h * np.eye(2), np.diag([h, 0.0]), np.diag([0.0, h]))
    ))
    assert abs(avg.reversibility - (1.0 - avg.info / INFO_AT_ZERO)) <= 1e-12
    assert avg.reversibility > reversibility(lam_of_info(avg.info)) + 0.2
    assert avg.fidelity < arc(avg.reversibility) - 0.1


def test_fidelity_without_its_denominator_fails_the_equality(monkeypatch):
    """Negative control: an optimal_fidelity that drops the 1 + lam² of its
    denominator no longer meets the equal-strength set."""
    monkeypatch.setattr(analytics, "optimal_fidelity", lambda lam: 2.0 / 3.0 * (1.0 + lam))
    assert abs(equal_strength_gaps(0.3)[1]) > 1e-12


def test_fidelity_reversibility_circle():
    """Each outcome's (R, F_opt) lies on (3 F_opt - 2)² + (1 - R)² = 1: in
    the README's formulas at 40 digits (``curves``, at lam = k/200 inside
    (0, 1)), and within 2e-15 from the package's closed forms (9.1e-16
    measured) at lam = k/200 on [0, 1]."""
    for k in range(1, 200):
        _, fid, rev = curves(MP.mpf(k) / 200)
        assert abs((3 * fid - 2) ** 2 + (1 - rev) ** 2 - 1) <= MP.mpf(10) ** -38
    assert max(map(abs, circle_residuals())) <= 2e-15


def test_fidelity_reversibility_arc_is_concave():
    """d²F_opt/dR² = -1 / (3 (R (2 - R))^(3/2)) <= -1/3, at lam = k/200 inside
    (0, 1) (dR/dlam vanishes at lam = 0), approaching -1/3 at the identity."""
    _, _, curvature = zip(*(second_derivatives(MP.mpf(k) / 200) for k in range(1, 200)))
    assert max(curvature) <= -MP.mpf(1) / 3, max(curvature)


def test_random_sets_under_the_fidelity_reversibility_arc():
    """F_avg <= arc(R_avg) on the sets of the I-F and I-R checks; the largest
    gap is -0.066."""
    gap = max(avg.fidelity - arc(avg.reversibility) for avg in random_set_averages())
    assert gap < 0.0, gap


def test_reversibility_without_its_denominator_leaves_the_circle(monkeypatch):
    """Negative control: a reversibility that drops the 1 + lam² of its
    denominator, 2 lam², fails the circle's 2e-15 at every lam but 0, by
    about 4 lam⁴ at small lam and by 1 at lam = 1."""
    monkeypatch.setattr(analytics, "reversibility", lambda lam: 2.0 * lam * lam)
    residuals = list(map(abs, circle_residuals()))
    assert min(residuals[1:]) > 2e-15 and residuals[-1] == 1.0
