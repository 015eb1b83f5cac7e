"""What each workload calls in the package: CLI argument lists and the
library path behind ``analyze``, ``average`` and ``simulate-reversal``.

Both the timed passes (``run.py``) and the set-up probe (``probe.py``) call
through here, so the two measure the same entry points. Package modules are
always reached through their module attributes, so that the tracer's
wrappers (``tracer.py``) see every call.
"""

from __future__ import annotations

import numpy as np

from qmtradeoff import analytics, linalg, measurement, reversal

#: Trials of the measure-then-reverse experiment per operator.
REVERSAL_TRIALS = 1000

VERIFY_DENSE = ("--lambda-min", "0", "--lambda-max", "1", "--points", "1001", "--samples", "2000")


def cli_argvs(workload: str, seed: int) -> list:
    """The ``qmtradeoff`` command lines one pass of a CLI workload runs."""
    if workload == "verify-default":
        return [["verify", "--seed", str(seed)]]
    if workload == "verify-dense":
        return [["verify", *VERIFY_DENSE, "--seed", str(seed)]]
    if workload == "sweep":
        return [
            ["sweep", "--points", "100001", "--format", "csv"],
            ["sweep", "--points", "100001", "--format", "json"],
        ]
    raise KeyError(workload)


def minimal_argv(workload: str) -> list:
    """The smallest call through the same CLI entry point, for set-up time."""
    if workload.startswith("verify"):
        return ["verify", "--lambda-min", "0.5", "--lambda-max", "0.5", "--points", "1",
                "--samples", "1000", "--seed", "0"]
    return ["sweep", "--points", "2"]


def process_operator(m0, m1, state, rng) -> tuple:
    """One operator and its completing partner through the library path.

    Returns every number the path computes, in a fixed order, so passes can
    be compared by digest and checked afterwards. Raises what the package
    raises; callers treat a ``ValueError`` as a rejection.
    """
    op = measurement.MeasurementOperator(m0)
    canon = op.canonical
    ang = linalg.su2_params(canon.u)
    fid = analytics.fidelity_of_operator(op)
    rec = analytics.tradeoff_record(op.lam)
    mset = measurement.MeasurementSet(operators=(op, measurement.MeasurementOperator(m1)))
    avg = analytics.averaged_quantities(mset)
    rev = reversal.optimal_reversing(op)
    stats = reversal.simulate_reversal(op, state, REVERSAL_TRIALS, rng)
    return (
        canon.kappa, canon.lam, ang.alpha, ang.beta, ang.gamma, ang.delta, fid,
        rec.info, rec.fidelity_opt, rec.reversibility, rec.eff_fidelity, rec.eff_reversibility,
        avg.info, avg.fidelity, avg.reversibility, *avg.outcome_probabilities,
        *np.asarray(rev.matrix).ravel().tolist(), rev.eta,
        stats.trials, stats.successes, stats.empirical_rate, stats.predicted_rate,
        stats.recovered_fidelity_min,
    )


def minimal_operator() -> tuple:
    """One fixed valid operator through :func:`process_operator`."""
    m0 = np.diag([0.9, 0.3]).astype(complex)
    m1 = np.diag([np.sqrt(1 - 0.81), np.sqrt(1 - 0.09)]).astype(complex)
    state = measurement.PureState(theta=1.0, phi=0.5)
    return process_operator(m0, m1, state, np.random.default_rng(0))
