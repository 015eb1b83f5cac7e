"""Pure states, measurement operators, and complete measurement sets.

A measurement on a qubit in state ``|psi>`` with operator ``M`` occurs with
probability ``<psi| M† M |psi>`` and leaves the system in ``M|psi>`` up to
normalization. Operators are stored together with their canonical
factorization (see :func:`qmtradeoff.linalg.svd2`), since every derived
quantity in this package depends only on the scale ``kappa``, the strength
ratio ``lam``, and the unitary factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    IncompleteSetError,
    InvalidStrengthError,
)
from .linalg import Svd2Result, _apply, _array, _gram, matrix_from_json, matrix_to_json, svd2

#: Tolerance on || sum M† M - I || for complete sets.
COMPLETENESS_TOL = 1e-10

#: Allowed overshoot of the operator norm above 1.
OPERATOR_NORM_TOL = 1e-12

# Above 1, round-off up to the square of the largest accepted norm, plus a few ulps.
_PROBABILITY_CEILING = (1.0 + OPERATOR_NORM_TOL) ** 2 + 4 * math.ulp(1.0)

_TWO_PI = 2.0 * math.pi


def _finite(*values) -> bool:
    """Whether every value is finite as a float: not NaN, not infinite, not
    an int too large to convert, and nothing that ``math.isfinite`` refuses,
    such as a string, None, a complex or an array of more than one entry."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, ValueError, OverflowError):
        return False


def _check_count(n, least: int, what: str) -> None:
    """DomainError unless ``n`` is an integer, not a bool, from ``least`` to
    2**53, the counts that a float holds exactly. The message names n's
    type, not its value, which may have too many digits to print."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not least <= n <= 2**53:
        raise DomainError(f"{what} must be an integer in [{least}, 2**53], got {type(n).__name__}")


@dataclass(frozen=True)
class PureState:
    """A qubit pure state by its polar and azimuthal angles.

    ``theta`` in [0, pi] measures from the +z axis, ``phi`` is stored
    normalized into [0, 2*pi). Amplitudes follow the convention
    ``(cos(theta/2), exp(i phi) sin(theta/2))``.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not _finite(self.theta, self.phi):
            raise DomainError("state angles must be finite")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise DomainError(f"theta must lie in [0, pi], got {float(self.theta)}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % _TWO_PI)

    def amplitudes(self) -> np.ndarray:
        """Complex amplitude pair, unit norm within 1e-14."""
        return np.array(self._pair())

    def _pair(self) -> tuple:
        # The amplitudes as a (float, complex) pair of Python scalars.
        half = 0.5 * self.theta
        return math.cos(half), cmath.rect(math.sin(half), self.phi)


class MeasurementOperator:
    """A single Kraus operator with its cached canonical factorization.

    Parameters
    ----------
    matrix : array_like
        2x2 complex matrix with operator norm at most 1 (within 1e-12),
        as required for membership in a complete measurement set.

    Raises
    ------
    ZeroOperatorError
        If the matrix is numerically zero.
    InvalidStrengthError
        If the largest singular value exceeds 1 beyond tolerance.
    """

    __slots__ = ("_matrix", "_canonical")

    def __init__(self, matrix):
        self._matrix = _array(matrix, copy=True)
        self._matrix.setflags(write=False)
        self._canonical = svd2(self._matrix)
        if self._canonical.kappa > 1.0 + OPERATOR_NORM_TOL:
            raise InvalidStrengthError(
                f"operator norm {self._canonical.kappa:.12g} exceeds 1"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def canonical(self) -> Svd2Result:
        return self._canonical

    @property
    def kappa(self) -> float:
        """Overall scale (largest singular value)."""
        return self._canonical.kappa

    @property
    def lam(self) -> float:
        """Strength ratio: smaller over larger singular value, in [0, 1]."""
        return self._canonical.lam

    def __repr__(self):
        return (
            f"MeasurementOperator(kappa={self.kappa:.6g}, lam={self.lam:.6g})"
        )


def _clamp_probability(p: float) -> float:
    # p is a sum of squares, never below 0; above 1 by round-off it is clamped.
    if p > _PROBABILITY_CEILING:
        raise ArithmeticError(f"probability {p!r} outside [0, 1] beyond round-off")
    return min(p, 1.0)


def outcome_probability(op: MeasurementOperator, state: PureState) -> float:
    """Probability ``<psi| M† M |psi>`` of obtaining this outcome.

    Evaluated as ``|M psi|^2``, whose rounding stays relative to the
    probability itself rather than to the entries of ``M† M``.
    """
    w0, w1 = _apply(op.matrix, *state._pair())
    return _clamp_probability(abs(w0) ** 2 + abs(w1) ** 2)


def check_completeness(operators: Sequence[MeasurementOperator]) -> float:
    """Largest entrywise deviation of ``sum_m M† M`` from the identity."""
    # sum M† M = [[a, b], [conj(b), c]], accumulated entrywise.
    a, c, b = 0.0, 0.0, 0j
    for op in operators:
        da, dc, db = _gram(op.matrix)
        a, c, b = a + da, c + dc, b + db
    return max(abs(a - 1.0), abs(c - 1.0), abs(b))


@dataclass(frozen=True)
class MeasurementSet:
    """A complete collection of measurement operators.

    Completeness (``sum_m M† M = I`` within ``COMPLETENESS_TOL``) is
    enforced at construction; labels default to the operator indices.
    """

    operators: tuple
    labels: tuple = ()

    def __post_init__(self):
        ops = tuple(
            op if isinstance(op, MeasurementOperator) else MeasurementOperator(op)
            for op in self.operators
        )
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise IncompleteSetError("a measurement set needs at least one operator")
        if not isinstance(self.labels, (tuple, list)):
            raise FormatError('"labels" must be a list of strings')
        labels = self.labels or tuple(str(i) for i in range(len(ops)))
        if not all(isinstance(x, str) for x in labels):
            raise FormatError('"labels" must be a list of strings')
        if len(labels) != len(ops):
            raise FormatError(
                f"{len(labels)} labels for {len(ops)} operators"
            )
        object.__setattr__(self, "labels", tuple(labels))
        dev = check_completeness(ops)
        if dev > COMPLETENESS_TOL:
            raise IncompleteSetError(
                f"operators sum deviates from identity by {dev:.3e}"
                f" > {COMPLETENESS_TOL:.3e}"
            )

    def to_json(self) -> dict:
        """Serialize as ``{"operators": [...], "labels": [...]}``."""
        return {
            "operators": [matrix_to_json(op.matrix) for op in self.operators],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, payload) -> "MeasurementSet":
        """Inverse of :meth:`to_json`; labels are optional in the payload."""
        if not isinstance(payload, dict) or "operators" not in payload:
            raise FormatError('measurement set payload must contain "operators"')
        mats = payload["operators"]
        if not isinstance(mats, (list, tuple)) or not mats:
            raise FormatError('"operators" must be a non-empty list')
        ops = tuple(MeasurementOperator(matrix_from_json(m)) for m in mats)
        labels = payload.get("labels", [])
        if not isinstance(labels, list):
            raise FormatError('"labels" must be a list of strings')
        return cls(operators=ops, labels=tuple(labels))


def two_outcome_family(lam0: float, kappa0: float) -> MeasurementSet:
    """The standard two-outcome measurement of strength ratio ``lam0``.

    Outcome 0 applies ``kappa0 * diag(1, lam0)``; outcome 1 carries the
    completing operator ``diag(sqrt(1 - kappa0^2), sqrt(1 - kappa0^2 lam0^2))``.
    Completeness is exact by construction.

    Raises
    ------
    InvalidStrengthError
        If ``lam0`` or ``kappa0`` is not a finite real or leaves its range
        (lam0 in [0, 1], kappa0 in (0, 1]), or at the degenerate corner
        lam0 = kappa0 = 1 where the second operator would vanish.
    """
    if not _finite(lam0, kappa0):
        raise InvalidStrengthError("lam0 and kappa0 must be finite real numbers")
    if not 0.0 <= lam0 <= 1.0:
        raise InvalidStrengthError(f"lam0 must lie in [0, 1], got {float(lam0)}")
    if not 0.0 < kappa0 <= 1.0:
        raise InvalidStrengthError(f"kappa0 must lie in (0, 1], got {float(kappa0)}")
    comp0 = 1.0 - kappa0 * kappa0
    comp1 = 1.0 - (kappa0 * lam0) ** 2
    if comp0 < 1e-28 and comp1 < 1e-28:
        raise InvalidStrengthError(
            "lam0 = kappa0 = 1 leaves a zero completing operator"
        )
    m0 = kappa0 * np.diag([1.0, lam0]).astype(complex)
    m1 = np.diag([math.sqrt(max(comp0, 0.0)), math.sqrt(max(comp1, 0.0))]).astype(complex)
    return MeasurementSet(operators=(m0, m1), labels=("0", "1"))
