"""The promise of ``errors.InputError``: every error the package raises for
an input it rejects is one. Hostile scalars go to every public scalar entry
point, and each call must raise an InputError, never a TypeError, an
OverflowError or a ValueError raised while formatting the message."""

import math

import numpy as np
import pytest

from qmtradeoff import analytics
from qmtradeoff.errors import InputError
from qmtradeoff.measurement import MeasurementOperator, PureState, two_outcome_family
from qmtradeoff.oracle import sample_bloch_vectors
from qmtradeoff.reversal import simulate_reversal

HOSTILE = [
    pytest.param("x", id="str"),
    pytest.param(None, id="None"),
    pytest.param(1j, id="complex"),
    pytest.param(np.array([0.5, 0.5]), id="array"),
    pytest.param(10**5000, id="10**5000"),
    pytest.param(-10**5000, id="-10**5000"),
    pytest.param(math.nan, id="nan"),
]

_OP = MeasurementOperator(np.diag([1.0, 0.5]))
_STATE = PureState(theta=0.5)

#: Each entry point, with the hostile value in one of its scalar arguments.
ENTRY_POINTS = {
    "information_gain": analytics.information_gain,
    "optimal_fidelity": analytics.optimal_fidelity,
    "reversibility": analytics.reversibility,
    "efficiency_fidelity": analytics.efficiency_fidelity,
    "efficiency_reversibility": analytics.efficiency_reversibility,
    "tradeoff_record": analytics.tradeoff_record,
    "fidelity_closed-lam": lambda v: analytics.fidelity_closed(v, 0.0, 0.0),
    "fidelity_closed-beta": lambda v: analytics.fidelity_closed(0.5, v, 0.0),
    "fidelity_closed-gamma": lambda v: analytics.fidelity_closed(0.5, 0.0, v),
    "PureState-theta": lambda v: PureState(theta=v),
    "PureState-phi": lambda v: PureState(theta=0.5, phi=v),
    "two_outcome_family-lam0": lambda v: two_outcome_family(v, 0.5),
    "two_outcome_family-kappa0": lambda v: two_outcome_family(0.5, v),
    "sample_bloch_vectors-n": lambda v: sample_bloch_vectors(np.random.default_rng(1), v),
    "simulate_reversal-trials": lambda v: simulate_reversal(
        _OP, _STATE, v, np.random.default_rng(1)),
}


@pytest.mark.parametrize("value", HOSTILE)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_hostile_scalars_raise_input_error(entry, value):
    with pytest.raises(InputError):
        ENTRY_POINTS[entry](value)
