"""Probabilistic reversal of a single measurement outcome.

An outcome with operator ``M = kappa * u @ diag(1, lam) @ v`` (``lam > 0``)
can be undone by a second measurement whose success operator is proportional
to ``M^{-1}``. Writing the success operator as ``R0 = eta * M^{-1}``, the
success branch restores the pre-measurement state exactly; the scale is
bounded by ``|eta|^2 <= kappa^2 lam^2`` so that ``R0`` itself has operator
norm at most 1, and the optimum takes ``eta = kappa * lam`` real positive,
giving ``R0 = v† @ diag(lam, 1) @ u†``.

Only the success operator is returned: completing ``R0`` into a full
measurement requires one or more extra operators with
``sum R† R = I - R0† R0``, and that completion is not unique.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import IrreversibleError, ZeroProbabilityError
from .linalg import _apply, _norm
from .measurement import MeasurementOperator, PureState, _check_count, outcome_probability

#: Strength ratios below this are treated as exactly singular (irreversible).
REVERSIBLE_LAM_TOL = 1e-14

#: Required overlap between the original and the recovered state on success.
RECOVERY_OVERLAP_TOL = 1e-10


def _check_reversible(lam: float) -> None:
    if lam < REVERSIBLE_LAM_TOL:
        raise IrreversibleError(
            "operator has a zero singular value; the outcome cannot be undone"
        )


class ReversingMeasurement(NamedTuple):
    """Success operator of the optimal reversing measurement.

    Attributes
    ----------
    matrix : np.ndarray
        The success operator ``R0``; its singular values are (1, lam), so it
        is a valid measurement operator.
    eta : float
        The proportionality scale in ``R0 = eta * M^{-1}``; equals
        ``kappa * lam`` at the optimum.
    """

    matrix: np.ndarray
    eta: float


class ReversalStats(NamedTuple):
    """Tally of a simulated reverse-or-fail experiment."""

    trials: int
    successes: int
    empirical_rate: float
    predicted_rate: float
    recovered_fidelity_min: float


def optimal_reversing(op: MeasurementOperator) -> ReversingMeasurement:
    """Build the optimal reversing measurement for one outcome.

    R0's four entries are formed as Python scalars from the entries of the
    canonical factors ``u`` and ``v``, with no 2x2 array arithmetic.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: a singular operator erases one
        amplitude and nothing can restore it.
    """
    canon = op.canonical
    lam = canon.lam
    _check_reversible(lam)
    (u00, u01), (u10, u11) = canon.u.tolist()
    (v00, v01), (v10, v11) = canon.v.tolist()
    w0, w1 = lam * v00, lam * v01  # the first row of diag(lam, 1) v
    # R0 = v† diag(lam, 1) u† is the conjugate transpose of u diag(lam, 1) v.
    matrix = np.array([[(u00 * w0 + u01 * v10).conjugate(), (u10 * w0 + u11 * v10).conjugate()],
                       [(u00 * w1 + u01 * v11).conjugate(), (u10 * w1 + u11 * v11).conjugate()]])
    return ReversingMeasurement(matrix=matrix, eta=canon.kappa * lam)


def reversal_success_probability(op: MeasurementOperator, state: PureState) -> float:
    """Probability that the optimal reversal succeeds, given the outcome
    occurred on ``state``.

    Equals ``kappa^2 lam^2 / p(outcome | state)``, which simplifies to
    ``lam^2 / q`` with ``q`` the scaled outcome probability; always in
    (0, 1], and exactly 1 when the state sits where the operator is
    weakest.
    """
    canon = op.canonical
    _check_reversible(canon.lam)
    p = outcome_probability(op, state)
    if p <= 0.0:
        raise ZeroProbabilityError("outcome has zero probability on this state")
    return min((canon.kappa * canon.lam) ** 2 / p, 1.0)


def simulate_reversal(
    op: MeasurementOperator,
    state: PureState,
    trials: int,
    rng: np.random.Generator,
) -> ReversalStats:
    """Monte Carlo check of the reversal success probability.

    Each trial post-selects the given outcome on ``state`` and then attempts
    the optimal reversal ``R0``, which succeeds with probability
    ``|R0 M psi|^2 / |M psi|^2`` from the matrices, so a misscaled ``R0``
    shows in the rate; the predicted rate is reported beside it. The trials
    are independent at that one rate, so the success count is one binomial
    draw, and nothing of size ``trials`` is allocated.
    Successful trials recover the pre-measurement state; the minimum overlap
    ``|<psi|psi_recovered>|`` across successes is verified against 1 within
    ``RECOVERY_OVERLAP_TOL`` and reported (vacuously 1.0 when every trial
    fails).

    Raises
    ------
    DomainError
        If ``trials`` is not an integer from 1 to 2**53 (beyond, a count is
        not held exactly by the float that the rate divides by).
    ArithmeticError
        If a successful reversal fails to restore the state — that would be
        an internal error, not a statistical fluctuation.
    """
    _check_count(trials, 1, "trials")
    predicted = reversal_success_probability(op, state)
    # The post-selected chain is deterministic: every trial has the same
    # success rate, and every success the same recovered state.
    post = _apply(op.matrix, *state._pair())
    recovered = _apply(optimal_reversing(op).matrix, *post)
    rate = min((_norm(*recovered) / _norm(*post)) ** 2, 1.0)
    successes = int(rng.binomial(trials, rate))

    recovered_min = 1.0
    if successes:
        (a0, a1), (r0, r1) = state._pair(), recovered
        recovered_min = min(abs(a0 * r0 + a1.conjugate() * r1) / _norm(r0, r1), 1.0)
        if recovered_min < 1.0 - RECOVERY_OVERLAP_TOL:
            raise ArithmeticError(
                f"successful reversal left overlap {recovered_min!r} < 1 - 1e-10"
            )
    return ReversalStats(
        trials=int(trials),
        successes=successes,
        empirical_rate=successes / float(trials),
        predicted_rate=predicted,
        recovered_fidelity_min=recovered_min,
    )
