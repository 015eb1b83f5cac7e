"""Tradeoffs of single-qubit measurements.

A general (non-projective) measurement on a qubit extracts information, but
it also disturbs the state and may or may not be undoable. This package
provides closed forms for the mean information gain, the mean operation
fidelity, and the physical reversibility of an arbitrary single-qubit
measurement operator, the optimal reversing measurement itself, and two
independent Bloch-sphere integration oracles (Monte Carlo and Gauss-Legendre
quadrature) that verify every closed form numerically.
"""

from .analytics import (
    EFF_FIDELITY_AT_ONE,
    INFO_AT_ZERO,
    AveragedQuantities,
    TradeoffRecord,
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
from .errors import (
    DegenerateSampleError,
    DomainError,
    FormatError,
    IncompleteSetError,
    InputError,
    InvalidStrengthError,
    IrreversibleError,
    NotUnitaryError,
    ZeroOperatorError,
    ZeroProbabilityError,
)
from .linalg import (
    Su2Params,
    Svd2Result,
    matrix_from_json,
    matrix_to_json,
    su2_params,
    svd2,
)
from .measurement import (
    MeasurementOperator,
    MeasurementSet,
    PureState,
    check_completeness,
    outcome_probability,
    two_outcome_family,
)
from .oracle import (
    Estimate,
    estimate_fidelity,
    estimate_information,
    estimate_reversibility,
    quadrature_fidelity,
    quadrature_information,
    quadrature_reversibility,
    sample_bloch_vectors,
)
from .reversal import (
    ReversalStats,
    ReversingMeasurement,
    optimal_reversing,
    reversal_success_probability,
    simulate_reversal,
)

__version__ = "1.0.0"

__all__ = [
    "AveragedQuantities",
    "DegenerateSampleError",
    "DomainError",
    "EFF_FIDELITY_AT_ONE",
    "Estimate",
    "FormatError",
    "INFO_AT_ZERO",
    "IncompleteSetError",
    "InputError",
    "InvalidStrengthError",
    "IrreversibleError",
    "MeasurementOperator",
    "MeasurementSet",
    "NotUnitaryError",
    "PureState",
    "ReversalStats",
    "ReversingMeasurement",
    "Su2Params",
    "Svd2Result",
    "TradeoffRecord",
    "ZeroOperatorError",
    "ZeroProbabilityError",
    "averaged_quantities",
    "check_completeness",
    "efficiency_fidelity",
    "efficiency_reversibility",
    "estimate_fidelity",
    "estimate_information",
    "estimate_reversibility",
    "fidelity_closed",
    "fidelity_of_operator",
    "information_gain",
    "matrix_from_json",
    "matrix_to_json",
    "optimal_fidelity",
    "optimal_reversing",
    "outcome_probability",
    "quadrature_fidelity",
    "quadrature_information",
    "quadrature_reversibility",
    "reversal_success_probability",
    "reversibility",
    "sample_bloch_vectors",
    "simulate_reversal",
    "su2_params",
    "svd2",
    "tradeoff_record",
    "two_outcome_family",
]
