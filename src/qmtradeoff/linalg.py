"""Closed-form linear algebra for 2x2 complex matrices.

Everything a single-qubit measurement operator needs, evaluated on the four
entries as Python scalars without iterative solvers: a canonical singular
value factorization ``m = kappa * u @ diag(1, lam) @ v``, an angle
parameterization of 2x2 unitaries with a pinned branch of ``alpha``, and the
package's one matrix-vector product and Gram ``m† m``; besides those, a
plain JSON encoding for complex matrices.

The factorization convention puts the largest singular value into the scale
``kappa`` so the diagonal core is ``diag(1, lam)`` with ``lam`` in [0, 1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotUnitaryError, ZeroOperatorError

#: Tolerance on ||u u† - I|| for matrices claimed unitary.
UNITARITY_TOL = 1e-10

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
        Read-only 2x2 unitaries with ``kappa * u @ diag(1, lam) @ v``
        reproducing the input. ``u``'s column phases are fixed by
        :func:`svd2`'s gauge, with the compensating phases absorbed into the
        rows of ``v``.
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
    square root of the determinant, so it lies in (-pi/2, pi/2]. A
    determinant on the negative real axis, up to a relative imaginary part
    of ``GAUGE_TIE_TOL``, is pinned to alpha = +pi/2, so its rounding cannot
    flip alpha, beta and delta by pi. That sign ambiguity (alpha -> alpha +
    pi flips beta and delta by pi) is otherwise left as is, because only
    cos(2 beta) and cos(gamma)^2 ever enter downstream formulas.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float


def _entries(m) -> list:
    """Row-major entries of a 2x2 matrix as Python complex; checks shape and finiteness."""
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (2, 2):
        raise FormatError(f"expected a 2x2 matrix, got shape {arr.shape}")
    flat = arr.ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise FormatError("matrix entries must be finite")
    return flat


def _apply(m: np.ndarray, x0, x1) -> tuple:
    # The 2x2 matrix m times the column (x0, x1), on Python scalars.
    m00, m01, m10, m11 = m.ravel().tolist()
    return m00 * x0 + m01 * x1, m10 * x0 + m11 * x1


def _gram(m: np.ndarray) -> tuple:
    # Entries a, c (real) and b of m† m = [[a, b], [conj(b), c]].
    m00, m01, m10, m11 = m.ravel().tolist()
    a = (m00.conjugate() * m00 + m10.conjugate() * m10).real
    c = (m01.conjugate() * m01 + m11.conjugate() * m11).real
    return a, c, m00.conjugate() * m01 + m10.conjugate() * m11


def _norm(p, q) -> float:
    # Euclidean norm of the 2-vector (p, q) of real or complex scalars.
    return math.hypot(p.real, p.imag, q.real, q.imag)


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
        ratio in [0, 1], and ``u``/``v`` are read-only arrays, unitary
        within 1e-10, with the reconstruction exact to better than 1e-12
        entrywise.

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
    flat = _entries(m)
    e = math.frexp(max(map(abs, flat)))[1]
    m00, m01, m10, m11 = (complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in flat)
    # h = m† m = [[a, b], [conj(b), c]]; _gram's diagonal would move kappa and lam an ulp.
    a = _norm(m00, m10) ** 2
    c = _norm(m01, m11) ** 2
    b = m00.conjugate() * m01 + m10.conjugate() * m11
    disc = math.hypot(0.5 * (a - c), abs(b))
    eig1 = 0.5 * (a + c) + disc

    # Candidate eigenvectors for eig1 from the two rows of (h - eig1 I).
    n1 = _norm(b, eig1 - a)
    n2 = _norm(eig1 - c, b)

    if max(n1, n2) <= DEGENERACY_TOL * (a + c):
        # sigma1 == sigma2 (h proportional to I): any right basis works.
        sigma1 = _norm(m00, m10)
        kappa = _kappa(sigma1, e)
        sigma2 = _norm(m01, m11)
        u = np.array([[m00 / sigma1, m01 / sigma1], [m10 / sigma1, m11 / sigma1]])
        v = np.eye(2, dtype=complex)
        u.setflags(write=False)
        v.setflags(write=False)
        return Svd2Result(kappa=kappa, lam=min(sigma2 / sigma1, 1.0), u=u, v=v)

    v1 = (b / n1, (eig1 - a) / n1) if n1 >= n2 else ((eig1 - c) / n2, b.conjugate() / n2)
    v2 = (-v1[1].conjugate(), v1[0].conjugate())  # orthonormal complement

    mv1 = (m00 * v1[0] + m01 * v1[1], m10 * v1[0] + m11 * v1[1])
    sigma1 = _norm(*mv1)
    kappa = _kappa(sigma1, e)
    u1 = (mv1[0] / sigma1, mv1[1] / sigma1)

    mv2 = (m00 * v2[0] + m01 * v2[1], m10 * v2[0] + m11 * v2[1])
    sigma2 = _norm(*mv2)
    lam = min(sigma2 / sigma1, 1.0)

    u2 = (-u1[1].conjugate(), u1[0].conjugate())
    z = u2[0].conjugate() * mv2[0] + u2[1].conjugate() * mv2[1]
    if abs(z) > 0.0:  # scaled first: a subnormal z has too few bits for z / |z|
        e = math.frexp(abs(z))[1]
        z = complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
        z /= abs(z)
        u2 = (u2[0] * z, u2[1] * z)

    # Deterministic phase gauge; keeps u_i v_i† (hence the product) unchanged.
    gauged = []
    for (p, q), (s, t) in ((u1, v1), (u2, v2)):
        g = q if abs(q) > abs(p) * (1.0 + GAUGE_TIE_TOL) else p
        phase = g / abs(g)
        bar = phase.conjugate()
        gauged.append((p * bar, q * bar, s.conjugate() * phase, t.conjugate() * phase))
    (p1, q1, s1, t1), (p2, q2, s2, t2) = gauged
    u, v = np.array([[p1, p2], [q1, q2]]), np.array([[s1, t1], [s2, t2]])
    u.setflags(write=False)
    v.setflags(write=False)
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
    u00, u01, u10, u11 = _entries(u)
    # Entrywise max |u u† - I|; the two off-diagonal entries share a modulus.
    off = u00 * u10.conjugate() + u01 * u11.conjugate()
    dev = max(abs(_norm(u00, u01) ** 2 - 1.0), abs(_norm(u10, u11) ** 2 - 1.0), abs(off))
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(
            f"matrix deviates from unitarity by {dev:.3e} > {UNITARITY_TOL:.3e}"
        )

    det = u00 * u11 - u01 * u10
    alpha = 0.5 * math.atan2(det.imag, det.real)
    if det.real < 0.0 and abs(det.imag) <= GAUGE_TIE_TOL * abs(det):
        alpha = 0.5 * math.pi  # whatever the sign of the rounded det.imag
    rot = complex(math.cos(alpha), -math.sin(alpha))
    # In exact arithmetic w11 = conj(w00) and w01 = -conj(w10) for w = u * rot;
    # averaging the two copies costs nothing and absorbs rounding noise.
    za = 0.5 * (u00 * rot + (u11 * rot).conjugate())
    zb = 0.5 * (u10 * rot - (u01 * rot).conjugate())
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
    flat = _entries(m)
    return [[[x.real, x.imag] for x in flat[i : i + 2]] for i in (0, 2)]


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
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise FormatError("matrix entries must be finite") from None
    _entries(out)
    return out
