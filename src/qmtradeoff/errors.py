"""Exception types raised across the package."""


class InputError(Exception):
    """Base of every error the package raises for an input it rejects."""


class ZeroOperatorError(InputError, ValueError):
    """Operator is numerically zero, so no canonical factorization exists."""


class NotUnitaryError(InputError, ValueError):
    """A matrix that must be unitary deviates from unitarity beyond tolerance."""


class ZeroProbabilityError(InputError, ValueError):
    """Conditioning on a measurement outcome of (numerically) zero probability."""


class InvalidStrengthError(InputError, ValueError):
    """Measurement-strength parameters outside their allowed range."""


class IrreversibleError(InputError, ValueError):
    """Reversal requested for a singular operator (strength ratio zero)."""


class IncompleteSetError(InputError, ValueError):
    """Measurement operators do not sum to the identity within tolerance."""


class DomainError(InputError, ValueError):
    """Scalar argument lies outside the domain of a closed-form expression."""


class DegenerateSampleError(InputError, ArithmeticError):
    """A sample average that must be strictly positive came out non-positive."""


class FormatError(InputError, ValueError):
    """Malformed serialized matrix or measurement set."""
