"""Closed-form tradeoff quantities for single-qubit measurements.

All quantities are functions of the strength ratio ``lam`` (smaller over
larger singular value of the operator) and, for the fidelity, of two angles
of the left unitary factor. Conventions:

* information gain is measured in bits and quantifies how much the outcome
  sharpens an initially uniform Bloch-sphere prior;
* fidelity is the posterior-averaged squared overlap between pre- and
  post-measurement states;
* reversibility is the mean success probability with which the
  pre-measurement state can be recovered exactly by a second measurement.

A projective measurement (``lam = 0``) extracts the most information
(1 - 1/(2 ln 2) ~ 0.2787 bits) and is unrecoverable; the identity limit
(``lam = 1``) extracts nothing and is reversible with certainty.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IncompleteSetError
from .measurement import MeasurementOperator, MeasurementSet, _finite

LN2 = math.log(2.0)

#: Information gain of a projective measurement, in bits: 1 - 1/(2 ln 2).
INFO_AT_ZERO = 1.0 - 1.0 / (2.0 * LN2)

#: Fidelity-efficiency limit at lam=1: 1/ln 2.
EFF_FIDELITY_AT_ONE = 1.0 / LN2

# Normalized to mean 1, q = 1 + x u on u in [-1, 1], x = (1 - lam^2) / (1 + lam^2),
# and I ln 2 = (1/2) int (1 + x u) ln(1 + x u) du = sum_j x^(2j) / (2j (2j-1) (2j+1)):
# even powers only, every term positive. Coefficients for j = 18, ..., 1.
_INFO_SERIES = tuple(1.0 / (2 * j * (2 * j - 1) * (2 * j + 1)) for j in range(18, 0, -1))

#: Strength ratios above this use the series branch of the information gain.
#: The direct form cancels to O((1-lam)^2), so its relative error grows as
#: lam approaches 1; at this seam (x ~ 0.355) it is ~1e-14. Above it, the
#: first term that the 18-term series leaves out is below 1e-20 of the sum.
SERIES_SEAM = 0.69

#: Below this the information gain is indistinguishable from its lam=0 value
#: in double precision (the correction is O(lam^2 / ln 2) < 1e-18).
_INFO_SMALL_LAM = 1e-9


def _check_lam(lam: float) -> float:
    if type(lam) is float and 0.0 <= lam <= 1.0:  # NaN fails the comparison
        return lam
    if isinstance(lam, np.ndarray) and lam.ndim == 0 and lam.dtype.kind in "iuf":
        lam = lam.item()
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not _finite(lam):
        raise DomainError(f"lam must be a finite real number, got {type(lam).__name__}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lam must lie in [0, 1], got {float(lam)}")
    return float(lam)


def _info_series(d: float) -> float:
    # The series in x^2 by Horner, x formed from d = 1 - lam without cancellation.
    x = d * (2.0 - d) / (1.0 + (1.0 - d) ** 2)
    x2 = x * x
    acc = 0.0
    for c in _INFO_SERIES:
        acc = acc * x2 + c
    return acc * x2 / LN2


def _info_direct(lam: float) -> float:
    # Loses accuracy near lam = 1 (catastrophic cancellation); callers must
    # switch to _info_series beyond SERIES_SEAM.
    lam2 = lam * lam
    lam4 = lam2 * lam2
    return (
        1.0
        - 1.0 / (2.0 * LN2)
        - lam4 / (1.0 - lam4) * math.log2(lam2)
        - math.log2(1.0 + lam2)
    )


def information_gain(lam: float) -> float:
    """Mean information gain, in bits, of an outcome with strength ratio ``lam``.

    Strictly decreasing on [0, 1], from 1 - 1/(2 ln 2) down to 0.

    Notes
    -----
    The closed form::

        1 - 1/(2 ln 2) - lam^4/(1 - lam^4) * log2(lam^2) - log2(1 + lam^2)

    cancels to O((1-lam)^2) near lam = 1, so for ``lam > SERIES_SEAM = 0.69``
    the value comes from the positive series
    ``sum_j x^(2j) / (2j (2j-1) (2j+1)) / ln 2`` in the slope
    ``x = (1 - lam^2) / (1 + lam^2)`` of q instead; either branch is within
    ~1e-14 relative of the exact value.
    """
    lam = _check_lam(lam)
    if lam < _INFO_SMALL_LAM:
        return INFO_AT_ZERO
    if lam > SERIES_SEAM:
        return _info_series(1.0 - lam)
    return _info_direct(lam)


def optimal_fidelity(lam: float) -> float:
    """Largest achievable mean fidelity at strength ratio ``lam``.

    ``(2/3) * (1 + lam / (1 + lam^2))``, attained when the left unitary
    factor is trivial. Strictly increasing from 2/3 to 1.
    """
    lam = _check_lam(lam)
    return (2.0 / 3.0) * (1.0 + lam / (1.0 + lam * lam))


def fidelity_closed(lam: float, beta: float, gamma: float) -> float:
    """Mean fidelity of an outcome with strength ratio ``lam`` and left
    unitary angles ``beta``, ``gamma`` (see :class:`~qmtradeoff.linalg.Su2Params`).

    ::

        F = 1/3 + (1/3) * [1 + 2 lam/(1+lam^2) * cos(2 beta)] * cos^2(gamma)

    Bounded between 1/3 (reached whenever cos(gamma) = 0, e.g. a spin-flip
    unitary factor) and :func:`optimal_fidelity` (reached at beta = gamma = 0).
    The angles ``alpha`` and ``delta`` drop out of the average; only
    ``cos(2 beta)`` and ``cos(gamma)`` enter, which
    :func:`fidelity_of_operator` reads off the unitary with no trig.
    """
    lam = _check_lam(lam)
    if not (_finite(beta, gamma) and math.isfinite(2.0 * float(beta))):
        raise DomainError("angles and 2 beta must be finite")
    return _fidelity(lam, math.cos(2.0 * beta), math.cos(gamma))


def _fidelity(lam: float, cb: float, cg: float) -> float:
    # fidelity_closed at a checked lam, cb = cos(2 beta) and cg = cos(gamma).
    bracket = 1.0 + (2.0 * lam / (1.0 + lam * lam)) * cb
    return (1.0 + bracket * cg * cg) / 3.0


def fidelity_of_operator(op: MeasurementOperator) -> float:
    """Mean fidelity of a single outcome, by the canonical-form convention.

    :func:`fidelity_closed` at the angles of the canonical left unitary
    ``u``, read off its diagonal with no trig: for ``u`` unitary,
    ``cos^2(gamma) = (|u00|^2 + |u11|^2) / 2`` and
    ``cos(2 beta) = Re(u00 conj(u11)) / cos^2(gamma)``, taken as 0 where
    cos(gamma) = 0 (there the fidelity is 1/3 whatever beta is). By this
    convention the value is unchanged when the operator is multiplied by a
    unitary on the right (the right factor can always be relabeled away
    against a uniform prior).
    """
    (u00, _), (_, u11) = op.canonical.u.tolist()
    c2 = 0.5 * (u00.real * u00.real + u00.imag * u00.imag
                + u11.real * u11.real + u11.imag * u11.imag)
    cb = (u00.real * u11.real + u00.imag * u11.imag) / c2 if c2 else 0.0
    return _fidelity(op.lam, cb, math.sqrt(c2))


def reversibility(lam: float) -> float:
    """Mean success probability of exactly undoing the outcome.

    ``2 lam^2 / (1 + lam^2)``: zero for projective outcomes, one in the
    identity limit. Strictly increasing in ``lam``.
    """
    lam = _check_lam(lam)
    return 2.0 * lam * lam / (1.0 + lam * lam)


def efficiency_fidelity(lam: float) -> float:
    """Information gain per unit of forgone optimal fidelity:
    ``I(lam) / (1 - optimal_fidelity(lam))``.

    Strictly increasing from 3*(1 - 1/(2 ln 2)) ~ 0.8360 at lam = 0 to the
    limit 1/ln 2 ~ 1.4427 at lam = 1: weak measurements buy information at
    the best rate per fidelity lost. The denominator is evaluated in the
    cancellation-free form (1-lam)^2 / (3 (1+lam^2)), which stays exact
    near lam = 1 where the information-gain series takes over.
    """
    return _efficiencies(_check_lam(lam), information_gain(lam))[0]


def efficiency_reversibility(lam: float) -> float:
    """Information gain per unit of forgone reversibility:
    ``I(lam) / (1 - reversibility(lam))``.

    Strictly decreasing from 1 - 1/(2 ln 2) at lam = 0 to 0 at lam = 1:
    strong measurements cost the least reversibility per bit. The
    denominator is evaluated as (1-lam)(1+lam)/(1+lam^2), which stays exact
    near lam = 1 where the information-gain series takes over.
    """
    return _efficiencies(_check_lam(lam), information_gain(lam))[1]


def _efficiencies(lam: float, info: float) -> tuple:
    """Both efficiencies at a checked ``lam`` whose information gain is
    ``info``: over the deficits as the public functions state them, and
    their limits at lam = 1."""
    if lam == 1.0:
        return EFF_FIDELITY_AT_ONE, 0.0
    return (info / ((1.0 - lam) ** 2 / (3.0 * (1.0 + lam * lam))),
            info / ((1.0 - lam) * (1.0 + lam) / (1.0 + lam * lam)))


class TradeoffRecord(NamedTuple):
    """All tradeoff quantities evaluated at one strength ratio."""

    lam: float
    info: float
    fidelity_opt: float
    reversibility: float
    eff_fidelity: float
    eff_reversibility: float


def tradeoff_record(lam: float) -> TradeoffRecord:
    """Evaluate every closed form at ``lam``, the information gain once."""
    info = information_gain(lam)
    lam = float(lam)  # checked by information_gain
    return TradeoffRecord(
        lam, info, optimal_fidelity(lam), reversibility(lam), *_efficiencies(lam, info)
    )


class AveragedQuantities(NamedTuple):
    """Outcome-averaged tradeoff quantities of a complete measurement set."""

    info: float
    fidelity: float
    reversibility: float
    outcome_probabilities: tuple


def averaged_quantities(mset: MeasurementSet) -> AveragedQuantities:
    """Average information gain, fidelity, and reversibility over outcomes.

    Each outcome is weighted by its total probability
    ``p(m) = kappa_m^2 (1 + lam_m^2) / 2`` (these sum to 1 for a complete
    set, enforced to 1e-10). The set-level fidelity is the mean operation
    fidelity ``(2 + sum_m |tr M_m|^2) / 6``.

    The mean reversibility is computed both as ``sum p(m) R(lam_m)`` and in
    the equivalent direct form ``sum kappa_m^2 lam_m^2``; the two must agree
    to 1e-12 or an ``ArithmeticError`` is raised.
    """
    probs = []
    info = 0.0
    traces = 0.0
    rev_weighted = 0.0
    rev_direct = 0.0
    for op in mset.operators:
        canon = op.canonical
        p = 0.5 * canon.kappa * canon.kappa * (1.0 + canon.lam * canon.lam)
        probs.append(p)
        info += p * information_gain(canon.lam)
        m00, _, _, m11 = op.matrix.ravel().tolist()
        traces += abs(m00 + m11) ** 2
        rev_weighted += p * reversibility(canon.lam)
        rev_direct += (canon.kappa * canon.lam) ** 2
    total = sum(probs)
    if abs(total - 1.0) > 1e-10:
        raise IncompleteSetError(
            f"outcome probabilities sum to {total!r}, not 1"
        )
    if abs(rev_weighted - rev_direct) > 1e-12:
        raise ArithmeticError(
            "reversibility cross-check failed: "
            f"{rev_weighted!r} (weighted) vs {rev_direct!r} (direct)"
        )
    return AveragedQuantities(
        info=info,
        fidelity=(2.0 + traces) / 6.0,
        reversibility=rev_weighted,
        outcome_probabilities=tuple(probs),
    )
