"""Closed-form linear algebra for 2x2 complex matrices.

Everything a single-qubit measurement operator needs, evaluated on the four
entries as Python scalars without iterative solvers: a canonical singular
value factorization ``m = kappa * u @ diag(1, lam) @ v``, an angle
parameterization of 2x2 unitaries with a pinned branch of ``alpha``, and the
package's one matrix-vector product and Gram ``m† m``; besides those, a
plain JSON encoding for complex matrices.

The factorization convention puts the largest singular value into the scale
``kappa`` so the diagonal core is ``diag(1, lam)`` with ``lam`` in [0, 1].

``svd2`` is one straight-line function on Python scalars: its entries are
read once, scaled by one finite power of two, their norms taken by
``math.hypot`` inline, and both columns' gauge written out. Its results,
``Svd2Result`` and ``Su2Params``, are NamedTuples, as is every record of the
package that checks nothing at construction.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

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


class Svd2Result(NamedTuple):
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


class Su2Params(NamedTuple):
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


def _array(m, dtype=complex, copy=False, error=FormatError,
           expected="expected a 2x2 matrix") -> np.ndarray:
    """``m`` as an array of ``dtype``, a copy where ``copy``; ``error``
    "<expected>, got a ragged sequence" where m nests sequences of unequal
    lengths, which NumPy refuses with a plain ValueError. Every other error
    of NumPy's passes as it is."""
    try:
        return np.array(m, dtype) if copy else np.asarray(m, dtype)
    except ValueError as exc:
        if not str(exc).startswith("setting an array element with a sequence"):
            raise
    raise error(f"{expected}, got a ragged sequence")


def _entries(m) -> list:
    """Row-major entries of a 2x2 matrix as Python complex; checks shape and finiteness."""
    arr = _array(m)
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
        If the largest singular value falls below ``ZERO_OPERATOR_TOL``:
        before any arithmetic where the largest entry modulus is below half
        of it, as sigma1 <= 2 max |m_ij|, and otherwise from sigma1.
    FormatError
        If the largest singular value exceeds the float range.

    Notes
    -----
    Numerical guards, stress-tested over rank-1, near-degenerate and
    nearly-zero inputs:

    * the factorization is scale-equivariant, so it runs on ``m`` divided
      by the power of two that brings its largest entry into [0.5, 1);
      only ``kappa`` is scaled back, and entries near the float range no
      longer overflow ``m† m`` into NaN. After the zero test that power
      is finite, so each real and imaginary part is multiplied by it,
      with ldexp's bits; the complex product would flip signed zeros;
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
    try:
        big = max(map(abs, flat))
    except OverflowError:  # some |m_ij| exceeds the float range, and sigma1 >= |m_ij|
        raise FormatError("largest singular value exceeds the float range") from None
    if big < 0.5 * ZERO_OPERATOR_TOL:  # sigma1 <= 2 max |m_ij|: zero before any scaling
        raise ZeroOperatorError("operator is numerically zero")
    e = math.frexp(big)[1]
    scale = math.ldexp(1.0, -e)  # 2^-e, from 2^-1024 to 2^47: each product is ldexp's, ±0 kept
    x00, x01, x10, x11 = flat
    m00 = complex(x00.real * scale, x00.imag * scale)
    m01 = complex(x01.real * scale, x01.imag * scale)
    m10 = complex(x10.real * scale, x10.imag * scale)
    m11 = complex(x11.real * scale, x11.imag * scale)
    # h = m† m = [[a, b], [conj(b), c]]; _gram's diagonal would move kappa and lam an ulp.
    col0 = math.hypot(m00.real, m00.imag, m10.real, m10.imag)
    col1 = math.hypot(m01.real, m01.imag, m11.real, m11.imag)
    a, c = col0**2, col1**2
    b = m00.conjugate() * m01 + m10.conjugate() * m11
    disc = math.hypot(0.5 * (a - c), abs(b))
    eig1 = 0.5 * (a + c) + disc

    # Candidate eigenvectors for eig1 from the two rows of (h - eig1 I).
    n1 = math.hypot(b.real, b.imag, eig1 - a)
    n2 = math.hypot(eig1 - c, b.real, b.imag)

    if max(n1, n2) <= DEGENERACY_TOL * (a + c):
        # sigma1 == sigma2 (h proportional to I): any right basis works.
        kappa = _kappa(col0, e)
        u = np.array([[m00 / col0, m01 / col0], [m10 / col0, m11 / col0]])
        v = np.eye(2, dtype=complex)
        u.setflags(write=False)
        v.setflags(write=False)
        return Svd2Result(kappa, min(col1 / col0, 1.0), u, v)

    # The right singular vectors: rows (s1, t1) and (s2, t2) of v before the gauge.
    if n1 >= n2:
        s1, t1 = b / n1, (eig1 - a) / n1
    else:
        s1, t1 = (eig1 - c) / n2, b.conjugate() / n2
    s2, t2 = -t1.conjugate(), s1.conjugate()  # orthonormal complement

    mv1, mw1 = m00 * s1 + m01 * t1, m10 * s1 + m11 * t1
    sigma1 = math.hypot(mv1.real, mv1.imag, mw1.real, mw1.imag)
    kappa = _kappa(sigma1, e)
    p1, q1 = mv1 / sigma1, mw1 / sigma1  # the first column of u

    mv2, mw2 = m00 * s2 + m01 * t2, m10 * s2 + m11 * t2
    sigma2 = math.hypot(mv2.real, mv2.imag, mw2.real, mw2.imag)
    lam = min(sigma2 / sigma1, 1.0)

    p2, q2 = -q1.conjugate(), p1.conjugate()
    z = p2.conjugate() * mv2 + q2.conjugate() * mw2
    if abs(z) > 0.0:  # scaled first: a subnormal z has too few bits for z / |z|
        e = math.frexp(abs(z))[1]
        z = complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
        z /= abs(z)
        p2, q2 = p2 * z, q2 * z

    # Deterministic phase gauge per column of u, from its first entry or its
    # clearly larger second; the conjugate phase moves into that row of v, so
    # u_i v_i† (hence the product) is unchanged.
    tie = 1.0 + GAUGE_TIE_TOL
    g1 = q1 if abs(q1) > abs(p1) * tie else p1
    g2 = q2 if abs(q2) > abs(p2) * tie else p2
    ph1, ph2 = g1 / abs(g1), g2 / abs(g2)
    bar1, bar2 = ph1.conjugate(), ph2.conjugate()
    u = np.array([[p1 * bar1, p2 * bar2], [q1 * bar1, q2 * bar2]])
    v = np.array([[s1.conjugate() * ph1, t1.conjugate() * ph1],
                  [s2.conjugate() * ph2, t2.conjugate() * ph2]])
    u.setflags(write=False)
    v.setflags(write=False)
    return Svd2Result(kappa, lam, u, v)


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
