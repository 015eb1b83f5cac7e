"""50-digit ``mpmath`` references for the closed forms, written from the
formulas in the README, not from ``qmtradeoff.analytics``."""

from __future__ import annotations

import mpmath

_MP = mpmath.MPContext()
_MP.dps = 50
_LN2 = _MP.log(2)
_INFO0 = 1 - 1 / (2 * _LN2)


def tradeoff(lam: float) -> tuple:
    """(info, fidelity_opt, reversibility, eff_fidelity, eff_reversibility) at ``lam``."""
    x = _MP.mpf(lam)
    x2 = x * x
    fid = _MP.mpf(2) / 3 * (1 + x / (1 + x2))
    rev = 2 * x2 / (1 + x2)
    if x == 0:
        info = _INFO0
    elif x == 1:
        return (_MP.mpf(0), fid, rev, 1 / _LN2, _MP.mpf(0))
    else:
        x4 = x2 * x2
        info = _INFO0 - x4 / (1 - x4) * _MP.log(x2) / _LN2 - _MP.log(1 + x2) / _LN2
    return (info, fid, rev, info / (1 - fid), info / (1 - rev))


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref|, or |value| where the reference is 0."""
    diff = abs(_MP.mpf(value) - ref)
    return float(diff / abs(ref)) if ref != 0 else float(diff)
