"""Relative error budget of the closed forms against 50-digit references.

The references are written from the formulas in the README, not from
``qmtradeoff.analytics``, and evaluated with ``mpmath`` at 50 digits on the
exact binary value of each float ``lam``.
"""

import mpmath
import numpy as np

from qmtradeoff import analytics
from qmtradeoff.analytics import (
    efficiency_fidelity,
    efficiency_reversibility,
    information_gain,
    optimal_fidelity,
    reversibility,
)

BUDGET = 1e-10

MP = mpmath.MPContext()
MP.dps = 50


def reference(lam: float) -> tuple:
    """(info, fidelity_opt, reversibility, eff_fidelity, eff_reversibility)."""
    x = MP.mpf(lam)
    x2 = x * x
    fid = MP.mpf(2) / 3 * (1 + x / (1 + x2))
    rev = 2 * x2 / (1 + x2)
    ln2 = MP.log(2)
    if x == 1:
        return (MP.mpf(0), fid, rev, 1 / ln2, MP.mpf(0))
    info = 1 - 1 / (2 * ln2) - MP.log(1 + x2) / ln2
    if x != 0:
        info -= x2 * x2 / (1 - x2 * x2) * MP.log(x2) / ln2
    return (info, fid, rev, info / (1 - fid), info / (1 - rev))


def scan_points() -> np.ndarray:
    seam = analytics.SERIES_SEAM
    ulps = [seam]
    for direction in (0.0, 1.0):
        x = seam
        for _ in range(6):
            x = np.nextafter(x, direction)
            ulps.append(x)
    return np.concatenate(
        [
            np.linspace(0.0, 1.0, 1001),
            np.random.default_rng(20261017).uniform(0.0, 1.0, 400),
            np.logspace(-12, -1, 100),
            1.0 - np.logspace(-12, -1, 400),
            seam + np.linspace(-1e-6, 1e-6, 41),
            ulps,
            [1.0 - 10.0**-k for k in range(3, 13)],
            [np.nextafter(1.0, 0.0)],
        ]
    )


def test_closed_forms_within_budget():
    forms = (
        information_gain,
        optimal_fidelity,
        reversibility,
        efficiency_fidelity,
        efficiency_reversibility,
    )
    lams = scan_points()
    assert len(lams) > 1900
    over = []
    for lam in map(float, lams):
        for form, ref in zip(forms, reference(lam)):
            value = form(lam)
            err = abs(MP.mpf(value) - ref)
            rel = float(err / abs(ref)) if ref != 0 else float(err)
            if not rel <= BUDGET:
                over.append((form.__name__, lam, value, rel))
    assert not over, over[:10]
