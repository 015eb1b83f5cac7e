"""Independent Bloch-sphere integration oracles.

The closed forms in :mod:`qmtradeoff.analytics` are averages over a uniform
pure-state prior. This module evaluates those same averages directly from
their defining integrands — by Monte Carlo sampling and by deterministic
quadrature — without ever touching the closed-form expressions, so the two
routes can cross-check each other.

Conventions shared by both routes:

* both integrate in u = cos θ and phi: Monte Carlo draws u uniform on
  [-1, 1] and phi uniform on [0, 2 pi), quadrature places its nodes in u. A
  state enters only through its Bloch vector r = (s cos phi, s sin phi, u),
  s = √(1 - u²);
* writing a 2x2 matrix as a0 I + a . sigma, <psi|a|psi> = a0 + a . r. So q
  is g0 + g . r with the Pauli coefficients of the raw M†M / kappa^2 (from
  ``linalg._gram``; only the fidelity reads the canonical q), and the
  fidelity amplitude <psi|u D|psi> is c . (1, r) with those of u diag(1, lam);
* q and |c . (1, r)|^2 are linear in x = (1, r, r_i r_j for i <= j), so
  the fidelity and the reversibility are each one pair of coefficient rows,
  ``coef``, and zbar / qbar of ``coef @ mean`` of x; the routes differ only
  in that mean: the sphere's exact ``_SPHERE_MEAN``, or that of a ``Batch``
  of states. ``verify`` hands one batch to every estimator at every lam, so
  one unlucky batch fails a band of lam together (README, *Numerical
  notes*, gives the rate);
* q log q is no polynomial, so the information estimates visit every state
  or node, each filling the same rows (q, q log2 q) in place, q log2 q from
  q. The quadrature runs along g, q = g0 + |g| u, as the prior is rotation
  invariant. q vanishes about 2 lam^2 beyond u = -1, where q log q is not
  analytic, so the rule is mapped onto subintervals graded toward u = -1,
  as many as lam needs down to lam = 0, each rule built once and shared;
* one routine, ``_moments``, forms the sample mean, covariance and
  leave-one-block-out means of x (see ``Estimate``), one chunk up to
  ``_CHUNK`` states and a jackknife block at a time above: for a ``Batch``
  on its first use, and for each information estimate from its rows, which
  need no ``coef``. It rejects a non-finite state before any arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateSampleError, DomainError
from .linalg import _gram
from .measurement import MeasurementOperator
from .reversal import _check_reversible

_JACKKNIFE_BLOCKS = 100

#: Most states that ``_moments`` reads as one chunk; above, one block per chunk.
_CHUNK = 2**13

#: Gauss-Legendre nodes of the information quadrature, per subinterval in u.
NODES = 64

#: Where each entry of x = (1, r, r_i r_j for i <= j) sits in (1, r)(1, r)ᵀ,
#: and its weight in a symmetric form: twice over for i < j.
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]
_PAIRS = tuple(np.array(_UPPER).T)
_WEIGHTED = [(i, j, 2.0 - (i == j)) for i, j in _UPPER]


@dataclass(frozen=True)
class Estimate:
    """A numerical estimate of one tradeoff quantity.

    ``std_error`` is zero for deterministic quadrature. For Monte Carlo,
    ``std_error`` comes from the delta method applied to the ratio of sample
    means and ``std_error_jackknife`` from leave-one-block-out resampling;
    the two should agree to within a factor of order one.
    """

    value: float
    std_error: float
    samples: int
    method: str
    std_error_jackknife: Optional[float] = None


class Batch(np.ndarray):
    """Read-only ``(3, n)`` Bloch vectors r. Its ``moments``, all that the
    fidelity and reversibility read, are ``_moments`` of x = ``_monomials(r)``,
    built on first use; a slice of a batch is a batch of its own columns."""

    @functools.cached_property
    def moments(self) -> tuple:
        return _moments(self, _monomials)


def sample_bloch_vectors(rng: np.random.Generator, n: int) -> Batch:
    """Draw ``n`` uniform Bloch-sphere states as the columns of a ``(3, n)``
    :class:`Batch` of Bloch vectors, with u = cos θ uniform on [-1, 1] and
    phi on [0, 2 pi)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"need at least 2 samples, got {n!r}")
    r = np.empty((3, n))
    u = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sqrt(np.multiply(1.0 - u, 1.0 + u, out=r[2]), out=r[2])
    np.multiply(np.cos(phi, out=r[0]), s, out=r[0])
    np.multiply(np.sin(phi, out=r[1]), s, out=r[1])
    r[2] = u
    return _read_only(r.view(Batch))[0]


def _monomials(r: np.ndarray) -> np.ndarray:
    """x = (1, r, r_i r_j for i <= j) at each column of r."""
    x = np.concatenate((np.ones((1, r.shape[1])), r))
    return x[_PAIRS[0]] * x[_PAIRS[1]]


def _moments(r: np.ndarray, rows: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """Mean, covariance and leave-one-block-out means (a column per jackknife
    block) of x = ``rows(r[:, lo:hi])``, and n, over the chunks lo to hi of
    ``_jackknife_blocks``. Per chunk, one ``reduceat`` for the block sums and
    one ``dot`` for the cross products about the first chunk's mean, moved to
    the batch mean at the end (Chan, Golub & LeVeque). A row of r whose sum of
    squares is not finite (a NaN or infinite entry, or one whose square
    overflows) raises DomainError first, from one dot per row of all of r, so
    that ``rows`` never sees it and no copy of r is made."""
    n = r.shape[1]
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    if not all(math.isfinite(row.dot(row)) for row in r):
        raise DomainError("Bloch vectors must be finite")
    chunks, kept = _jackknife_blocks(n, _CHUNK)
    dev = m2 = 0.0
    for lo, hi, starts, cols in chunks:
        x = rows(r[:, lo:hi])
        if lo == 0:
            total, sums = np.add.reduce(x, axis=1), np.empty((len(x), kept.size))
            mean = total / hi
        np.add.reduceat(x, starts, axis=1, out=sums[:, cols])
        x -= mean[:, None]
        m2 += np.dot(x, x.T)
        if len(chunks) > 1:
            dev += np.add.reduce(x, axis=1)
    if len(chunks) > 1:  # from the first chunk's mean to the batch mean; one chunk has none
        m2 -= dev[:, None] * (dev / n)
        mean = mean + dev / n
        total = mean * n
    return mean, m2 * (1.0 / (n - 1)), (total[:, None] - sums) / kept, n


def _pauli(a) -> tuple:
    """Pauli coefficients ``(a0, (a1, a2, a3))`` of the 2x2 matrix with rows ``a``,
    ``a_k = tr(a sigma_k) / 2`` (sigma_0 = I); then ``<psi|a|psi> = a0 + a . r``."""
    (a00, a01), (a10, a11) = a
    return 0.5 * (a00 + a11), (0.5 * (a01 + a10), 0.5j * (a01 - a10), 0.5 * (a00 - a11))


def _q_coef(op: MeasurementOperator) -> np.ndarray:
    """Coefficients on x of q = <psi|M†M|psi> / kappa^2 = g0 + g . r, the Pauli
    coefficients of linalg._gram's M†M = [[a, b], [conj(b), c]] over kappa^2.
    Uses the raw matrix, so any right unitary factor shows up pointwise (its
    effect must — and does — wash out of uniform averages)."""
    a, c, b = _gram(op.matrix)
    g0, (g1, g2, g3) = _pauli(((a, b), (b.conjugate(), c)))
    k2 = op.kappa * op.kappa
    return np.array([g0.real / k2, g1.real / k2, g2.real / k2, g3.real / k2] + [0.0] * 6)


def _amplitude_pauli(op: MeasurementOperator) -> tuple:
    """Pauli coefficients of u D: canonical left factor u, core D = diag(1, lam)."""
    (u00, u01), (u10, u11) = op.canonical.u.tolist()
    return _pauli(((u00, u01 * op.lam), (u10, u11 * op.lam)))


def _fidelity_coef(op: MeasurementOperator) -> np.ndarray:
    """Coefficients on x, as two rows, of q of the canonical operator and of
    the fidelity integrand ``|<psi| u D |psi>|^2 = |c . (1, r)|^2``, c from
    ``_amplitude_pauli``: Re(c_i* c_j), twice over for i < j."""
    b0, b = _amplitude_pauli(op)
    re, im, lam = [c.real for c in (b0, *b)], [c.imag for c in (b0, *b)], op.lam
    return np.array([
        [0.5 * (1.0 + lam * lam), 0.0, 0.0, 0.5 * (1.0 - lam) * (1.0 + lam)] + [0.0] * 6,
        [(re[i] * re[j] + im[i] * im[j]) * w for i, j, w in _WEIGHTED],
    ])


def _reversibility_coef(op: MeasurementOperator) -> np.ndarray:
    """Coefficients on x of q (``_q_coef``) and lam^2 x_0 (x_0 = 1), whose ratio
    of means is the reversibility; IrreversibleError where lam = 0."""
    _check_reversible(op.lam)
    return np.array([_q_coef(op), [op.lam * op.lam] + [0.0] * 9])


def _information_rows(x: np.ndarray) -> np.ndarray:
    """Information's rows x = (q, q log2 q): fills the second in place from
    the q in the first, taking q log2 q as its limit 0 where q <= 0."""
    q, t = x
    np.multiply(np.log2(np.maximum(q, 1e-300, out=t), out=t), q, out=t)
    np.copyto(t, 0.0, where=~(q > 0.0))
    return x


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache
def _jackknife_blocks(n: int, chunk: int) -> tuple:
    """The chunks that ``_moments`` reads of ``n`` samples: all jackknife
    blocks (those of ``np.array_split``) in one up to ``chunk`` states, else
    one block each. Per chunk its first state, its end, its blocks' read-only
    starts relative to the first and its columns of the block sums; and each
    block's read-only leave-one-out size."""
    blocks = min(_JACKKNIFE_BLOCKS, n)
    k = np.arange(blocks)
    starts = k * (n // blocks) + np.minimum(k, n % blocks)
    step, edges = blocks if n <= chunk else 1, starts.tolist() + [n]
    chunks = tuple(
        (edges[i], edges[i + step], _read_only(starts[i:i + step] - edges[i])[0],
         slice(i, i + step))
        for i in range(0, blocks, step)
    )
    return chunks, _read_only(n - np.diff(starts, append=n))[0]


def _ratio_estimate(coef: Optional[np.ndarray], moments: tuple) -> Estimate:
    """Monte Carlo estimate of zbar / qbar with (qbar, zbar) = ``coef @ mean``
    from the sample moments ``(mean, cov, loo, n)`` of some x; qbar must be
    positive. Where coef is None, x is information's own (q, q log2 q), the
    mean is (qbar, zbar) itself and the estimate is less log2 qbar. The
    delta-method standard error projects the gradient
    (-zbar / qbar^2 [- 1 / (qbar ln 2)], 1 / qbar) onto x, d = ``grad @ coef``,
    before the covariance: ``sqrt(d . cov . d / n)``. The jackknife one takes
    the same ratio of the leave-one-block-out means, the columns of ``loo``."""
    mean, cov, loo, n = moments
    if coef is not None:  # .dot, not @: the same BLAS call without matmul's overhead
        mean, loo = coef.dot(mean), coef.dot(loo)
    (y, z), (ys, zs) = mean.tolist(), loo
    if y <= 0.0:
        raise DegenerateSampleError("sample average of q is not positive")
    grad, value, estimates = [-z / y**2, 1.0 / y], z / y, zs / ys
    if coef is None:  # information's own rows, (q, q log2 q)
        grad[0] -= 1.0 / (y * math.log(2.0))
        value, estimates = value - np.log2(y), estimates - np.log2(ys)
    d = np.array(grad)
    if coef is not None:
        d = d.dot(coef)
    blocks = estimates.size
    estimates -= np.add.reduce(estimates) / blocks
    jackknife = math.sqrt((blocks - 1) / blocks * float(np.add.reduce(estimates * estimates)))
    std_error = math.sqrt(max(float(d.dot(cov).dot(d)) / n, 0.0))
    return Estimate(float(value), std_error, n, "monte-carlo", jackknife)


def estimate_information(op: MeasurementOperator, r: np.ndarray) -> Estimate:
    """Monte Carlo estimate of the mean information gain, in bits, over the
    Bloch vectors in the columns of ``r``.

    Averages q and q*log2(q) over the states and combines them through
    the defining functional ``[avg(q log2 q) - qbar log2 qbar] / qbar``,
    which is invariant under rescaling of q.
    """
    coef = _q_coef(op)

    def rows(chunk):  # information's x, (q, q log2 q): the means' own rows
        x = np.empty((2, chunk.shape[1]))
        np.dot(coef[1:4], chunk, out=x[0])
        x[0] += coef[0]
        return _information_rows(x)

    return _ratio_estimate(None, _moments(r, rows))


def estimate_fidelity(op: MeasurementOperator, batch: Batch) -> Estimate:
    """Monte Carlo estimate of the mean fidelity of one outcome over a
    :class:`Batch` of states: the ratio of the batch means of
    ``|<psi| u D |psi>|^2`` and of q, each ``coef @ mean`` of x as in
    ``quadrature_fidelity``. Uses the canonical left factor, matching the
    single-outcome relabeling convention."""
    return _ratio_estimate(_fidelity_coef(op), batch.moments)


def estimate_reversibility(op: MeasurementOperator, batch: Batch) -> Estimate:
    """Monte Carlo estimate of the mean reversal success probability,
    ``lam^2 / qbar``, over a :class:`Batch` of states: zbar / qbar of
    ``_reversibility_coef``, as in ``quadrature_reversibility``.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to estimate.
    """
    return _ratio_estimate(_reversibility_coef(op), batch.moments)


@functools.lru_cache
def _gauss_legendre(depth: int) -> tuple:
    """Read-only nodes and weights of the ``NODES``-point Gauss-Legendre rule
    mapped onto each subinterval of [-1, 1] between the breakpoints -1,
    -1 + 2 * 8^-k for k = depth, ..., 1, and 1; depth 0 is the plain rule."""
    x, w = leggauss(NODES)
    edges = np.concatenate(([-1.0], -1.0 + 2.0 * 8.0 ** -np.arange(depth, 0, -1), [1.0]))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return _read_only((mid + half * x).ravel(), (half * w).ravel())


#: Read-only mean of x over the uniform sphere, (1, 0, 0, 0, 1/3, 0, 0, 1/3, 0,
#: 1/3): that over the six points ±e_k, an octahedron, which is exact for every
#: polynomial of degree up to 3 in r (a spherical 3-design).
_SPHERE_MEAN = _read_only(np.mean(_monomials(np.hstack((np.eye(3), -np.eye(3)))), axis=1))[0]


def _sphere_ratio(coef: np.ndarray) -> Estimate:
    """zbar / qbar with (qbar, zbar) = ``coef @ _SPHERE_MEAN``, exact to degree 3."""
    qbar, zbar = coef.dot(_SPHERE_MEAN).tolist()
    return Estimate(zbar / qbar, 0.0, 6, "quadrature")


def quadrature_information(op: MeasurementOperator) -> Estimate:
    """Deterministic evaluation of the information-gain average.

    Along g, as the prior is rotation invariant: q = g0 + |g| u from
    ``_q_coef``. q log2 q is not analytic at the zero of q, which lies about
    2 lam^2 beyond u = -1, so a single rule converges slowly at small lam.
    The ``NODES``-point rule is therefore applied on subintervals graded
    toward u = -1, K = ceil(log_8(1 / lam^2)) of them below u = -3/4, so
    that the innermost one is no wider than that distance (``samples``
    counts every node). K stops growing where 1 + lam^2 rounds to 1: from
    there on q is q at lam = 0, and q log2 q is taken as 0 where q vanishes.
    """
    depth = math.ceil(math.log(1.0 / max(op.lam * op.lam, 2.0**-53), 8))
    u, w = _gauss_legendre(depth)
    g = _q_coef(op).tolist()
    x = np.empty((2, u.size))
    x[0] = g[0] + math.hypot(g[1], g[2], g[3]) * u
    qbar, qlog = (0.5 * np.add.reduce(_information_rows(x) * w, axis=1)).tolist()
    value = qlog / qbar - math.log2(qbar)
    return Estimate(value=value, std_error=0.0, samples=u.size, method="quadrature")


def quadrature_fidelity(op: MeasurementOperator) -> Estimate:
    """Deterministic evaluation of the mean-fidelity average, ``zbar / qbar``
    with each ``coef @ mean`` of x as in ``estimate_fidelity``, over the six
    points of ``_SPHERE_MEAN``: exact, since x has degree 2 in r."""
    return _sphere_ratio(_fidelity_coef(op))


def quadrature_reversibility(op: MeasurementOperator) -> Estimate:
    """Deterministic evaluation of the mean reversal success probability,
    ``lam^2 / qbar``, zbar / qbar of ``_reversibility_coef`` over the six
    points of ``_SPHERE_MEAN``: exact, since both rows are affine in r.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to evaluate.
    """
    return _sphere_ratio(_reversibility_coef(op))
