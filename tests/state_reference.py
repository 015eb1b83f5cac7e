"""Pure states from amplitude vectors, for tests that need a state along a
given direction. The package builds states from angles only."""

import math

import numpy as np

from qmtradeoff.errors import DomainError, FormatError
from qmtradeoff.measurement import PureState


def from_amplitudes_reference(vec):
    """The PureState with amplitudes ``vec``, up to norm and global phase,
    in NumPy (``np.linalg.norm`` and array division)."""
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    if arr.shape != (2,):
        raise FormatError("amplitude vector must have exactly 2 components")
    norm = float(np.linalg.norm(arr))
    if norm < 1e-14:
        raise DomainError("cannot normalize a zero state vector")
    arr = arr / norm
    theta = 2.0 * math.atan2(abs(arr[1]), abs(arr[0]))
    phi = 0.0
    if abs(arr[1]) > 1e-15:
        phi = math.atan2(arr[1].imag, arr[1].real)
        if abs(arr[0]) > 1e-15:
            phi -= math.atan2(arr[0].imag, arr[0].real)
    return PureState(theta=theta, phi=phi)
