"""Closed-form linear algebra for 2x2 complex matrices.

Everything a single-qubit measurement operator needs: a canonical singular
value factorization ``m = kappa * u @ diag(1, lam) @ v`` computed without
iterative solvers, an angle parameterization of 2x2 unitaries, and a plain
JSON encoding for complex matrices.

The factorization convention puts the largest singular value into the scale
``kappa`` so the diagonal core is ``diag(1, lam)`` with ``lam`` in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotUnitaryError, ZeroOperatorError

#: Tolerance on ||u u† - I|| for matrices claimed unitary.
UNITARITY_TOL = 1e-10

#: Tolerance on entrywise reconstruction kappa * u @ diag(1, lam) @ v == m.
RECONSTRUCTION_TOL = 1e-12

#: Largest singular value below which an operator counts as zero.
ZERO_OPERATOR_TOL = 1e-14

#: Relative spread below which the two singular values count as degenerate.
DEGENERACY_TOL = 1e-14

#: Relative margin by which a column's second entry must exceed the first in
#: modulus before the phase gauge is taken from it instead of the first.
GAUGE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Svd2Result:
    """Canonical factorization of a 2x2 complex matrix.

    Attributes
    ----------
    kappa : float
        Overall scale; equals the largest singular value.
    lam : float
        Ratio of smaller to larger singular value, in [0, 1].
    u, v : np.ndarray
        2x2 unitaries with ``kappa * u @ diag(1, lam) @ v`` reproducing the
        input. ``u``'s column phases are fixed by :func:`svd2`'s gauge, with
        the compensating phases absorbed into the rows of ``v``.
    """

    kappa: float
    lam: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Su2Params:
    """Angle parameterization of a 2x2 unitary.

    The reassembly convention is::

        exp(i alpha) * [[exp(i beta) cos(gamma), -exp(i delta) sin(gamma)],
                        [exp(-i delta) sin(gamma), exp(-i beta) cos(gamma)]]

    with ``gamma`` in [0, pi/2]. ``alpha`` is the argument of the principal
    square root of the determinant, so it lies in (-pi/2, pi/2]; the residual
    sign ambiguity (alpha -> alpha + pi flips beta and delta by pi) is left
    as is rather than normalized away, because only cos(2 beta) and
    cos(gamma)^2 ever enter downstream formulas.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float


def as_matrix2(m) -> np.ndarray:
    """Coerce input to a 2x2 complex ndarray (copy), validating the shape."""
    arr = np.array(m, dtype=complex)
    if arr.shape != (2, 2):
        raise FormatError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise FormatError("matrix entries must be finite")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def _perp(vec: np.ndarray) -> np.ndarray:
    # Orthonormal complement of a unit vector (p, q) -> (-conj(q), conj(p)).
    return np.array([-np.conj(vec[1]), np.conj(vec[0])])


def _kappa(sigma1: float, e: int) -> float:
    # Largest singular value of the matrix that svd2 scaled by 2^-e.
    try:
        kappa = math.ldexp(sigma1, e)
    except OverflowError:
        raise FormatError("largest singular value exceeds the float range") from None
    if kappa < ZERO_OPERATOR_TOL:
        raise ZeroOperatorError("operator is numerically zero")
    return kappa


def svd2(m) -> Svd2Result:
    """Factor a 2x2 complex matrix as ``kappa * u @ diag(1, lam) @ v``.

    The two positive eigenvalues of the Hermitian product ``m† m`` follow
    from its quadratic characteristic polynomial; the right singular basis is
    the corresponding eigenbasis, and the left basis is recovered by applying
    ``m``. No iterative numerics are involved.

    Parameters
    ----------
    m : array_like
        2x2 complex matrix.

    Returns
    -------
    Svd2Result
        ``kappa`` is the largest singular value, ``lam`` the singular value
        ratio in [0, 1], and ``u``/``v`` are unitary within 1e-10 with the
        reconstruction exact to better than 1e-12 entrywise.

    Raises
    ------
    ZeroOperatorError
        If the largest singular value falls below ``ZERO_OPERATOR_TOL``.
    FormatError
        If the largest singular value exceeds the float range.

    Notes
    -----
    Numerical guards, stress-tested over rank-1, near-degenerate and
    nearly-zero inputs:

    * the factorization is scale-equivariant, so it runs on ``m`` divided
      by the power of two that brings its largest entry into [0.5, 1);
      only ``kappa`` is scaled back, and entries near the float range no
      longer overflow ``m† m`` into NaN;
    * the eigenvector of ``m† m`` is taken from whichever closed-form
      candidate has the larger norm, which is always well conditioned away
      from exact degeneracy;
    * when the two singular values coincide to ``DEGENERACY_TOL`` the
      factorization is fixed to ``v = I`` and ``u = m / sigma1``;
    * the second column of ``u`` is the exact orthonormal complement of the
      first (phase aligned with ``m @ v2``), never ``m @ v2 / sigma2``,
      whose direction degrades like eps/lam for small ``lam``;
    * each column of ``u`` is rotated so its first entry is real positive,
      or its second when that is larger in modulus by a relative margin of
      ``GAUGE_TIE_TOL``, the phase moving into ``v``. This pins the
      otherwise arbitrary gauge, making ``u`` a function of ``m m†`` alone —
      i.e. unchanged when ``m`` is multiplied by a unitary on the right. The
      margin keeps a modulus tie (such as a Hadamard column) on the first
      entry, so rounding the input, e.g. by scaling it, cannot move it.
    """
    m = as_matrix2(m)
    e = math.frexp(max(map(abs, m.flat)))[1]
    m = np.ldexp(m.view(float), -e).view(complex)
    h = dagger(m) @ m
    a = h[0, 0].real
    c = h[1, 1].real
    b = h[0, 1]
    disc = math.hypot(0.5 * (a - c), abs(b))
    eig1 = 0.5 * (a + c) + disc

    # Candidate eigenvectors for eig1 from the two rows of (h - eig1 I).
    w1 = np.array([b, eig1 - a])
    w2 = np.array([eig1 - c, np.conj(b)])
    n1 = float(np.linalg.norm(w1))
    n2 = float(np.linalg.norm(w2))

    if max(n1, n2) <= DEGENERACY_TOL * (a + c):
        # sigma1 == sigma2 (h proportional to I): any right basis works.
        sigma1 = float(np.linalg.norm(m[:, 0]))
        kappa = _kappa(sigma1, e)
        sigma2 = float(np.linalg.norm(m[:, 1]))
        return Svd2Result(
            kappa=kappa,
            lam=min(sigma2 / sigma1, 1.0),
            u=m / sigma1,
            v=np.eye(2, dtype=complex),
        )

    v1 = w1 / n1 if n1 >= n2 else w2 / n2
    v2 = _perp(v1)

    mv1 = m @ v1
    sigma1 = float(np.linalg.norm(mv1))
    kappa = _kappa(sigma1, e)
    u1 = mv1 / sigma1

    mv2 = m @ v2
    sigma2 = float(np.linalg.norm(mv2))
    lam = min(sigma2 / sigma1, 1.0)

    u2 = _perp(u1)
    z = complex(u2.conj() @ mv2)
    if abs(z) > 0.0:
        u2 = u2 * (z / abs(z))

    u = np.column_stack([u1, u2])
    v = np.vstack([v1.conj(), v2.conj()])

    # Deterministic phase gauge; keeps u_i v_i† (hence the product) unchanged.
    for i in range(2):
        j = int(abs(u[1, i]) > abs(u[0, i]) * (1.0 + GAUGE_TIE_TOL))
        phase = u[j, i] / abs(u[j, i])
        u[:, i] *= np.conj(phase)
        v[i, :] *= phase

    return Svd2Result(kappa=kappa, lam=lam, u=u, v=v)


def su2_params(u) -> Su2Params:
    """Extract (alpha, beta, gamma, delta) from a 2x2 unitary.

    Parameters
    ----------
    u : array_like
        2x2 matrix, unitary within ``UNITARITY_TOL``.

    Returns
    -------
    Su2Params
        Angles such that :func:`su2_matrix` rebuilds ``u`` entrywise to
        1e-12 for inputs unitary at machine precision. ``beta`` is set to 0
        when cos(gamma) vanishes, ``delta`` to 0 when sin(gamma) vanishes.
    """
    u = as_matrix2(u)
    dev = float(np.max(np.abs(u @ dagger(u) - np.eye(2))))
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(
            f"matrix deviates from unitarity by {dev:.3e} > {UNITARITY_TOL:.3e}"
        )

    det = np.linalg.det(u)
    alpha = 0.5 * math.atan2(det.imag, det.real)
    w = u * np.exp(-1j * alpha)
    # In exact arithmetic w[1,1] = conj(w[0,0]) and w[0,1] = -conj(w[1,0]);
    # averaging the two copies costs nothing and absorbs rounding noise.
    za = 0.5 * (w[0, 0] + np.conj(w[1, 1]))
    zb = 0.5 * (w[1, 0] - np.conj(w[0, 1]))
    gamma = math.atan2(abs(zb), abs(za))
    beta = math.atan2(za.imag, za.real) if abs(za) > 1e-15 else 0.0
    delta = -math.atan2(zb.imag, zb.real) if abs(zb) > 1e-15 else 0.0
    return Su2Params(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def su2_matrix(params: Su2Params) -> np.ndarray:
    """Rebuild the 2x2 unitary from its angle parameterization."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    cg, sg = math.cos(g), math.sin(g)
    return np.exp(1j * a) * np.array(
        [
            [np.exp(1j * b) * cg, -np.exp(1j * d) * sg],
            [np.exp(-1j * d) * sg, np.exp(-1j * b) * cg],
        ]
    )


def matrix_to_json(m) -> list:
    """Encode a 2x2 complex matrix as nested lists with [re, im] entries, row major."""
    m = as_matrix2(m)
    return [[[m[i, j].real, m[i, j].imag] for j in range(2)] for i in range(2)]


def matrix_from_json(payload) -> np.ndarray:
    """Decode the row-major [re, im] nested-list encoding back to an ndarray.

    Raises
    ------
    FormatError
        On any structural problem: wrong nesting, wrong lengths, or
        non-numeric entries.
    """
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise FormatError("matrix payload must be a list of 2 rows")
    out = np.empty((2, 2), dtype=complex)
    for i, row in enumerate(payload):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise FormatError(f"row {i} must be a list of 2 entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise FormatError(f"entry ({i},{j}) must be a [re, im] pair of numbers")
            out[i, j] = complex(entry[0], entry[1])
    if not np.all(np.isfinite(out.view(float))):
        raise FormatError("matrix entries must be finite")
    return out
