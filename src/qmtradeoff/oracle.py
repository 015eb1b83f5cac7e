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
* every integrand is affine in r: writing a 2x2 matrix as a0 I + a . sigma,
  <psi|a|psi> = a0 + a . r. So q is g0 + g . r with the Pauli coefficients
  of M†M / kappa^2, read off the Gram entries from ``linalg._gram``, and
  the fidelity amplitude <psi|u D|psi> is b0 + b . r with those of
  u diag(1, lam); its squared modulus is re² + im²;
* each Monte Carlo estimator takes a (3, n) batch of Bloch vectors from
  ``sample_bloch_vectors``. ``verify`` draws one batch per run and hands
  it to every estimator at every lam. Each check keeps its own marginal
  distribution, but checks at different lam are correlated, so one
  unlucky batch fails a band of lam together (README, *Numerical notes*,
  gives the measured rate);
* the information and reversibility integrands depend on the state only
  through the scaled outcome probability q, so their quadratures are
  one-dimensional in u; the fidelity integrand retains a phi dependence
  through the left unitary factor and uses a tensor rule (Gauss-Legendre in
  u times a uniform periodic rule in phi — the integrand is a degree-2
  trigonometric polynomial in phi, integrated exactly by >= 5 points);
* q is linear in u and vanishes about 2 lam^2 beyond u = -1, where q log q
  is not analytic, so the information quadrature maps the Gauss-Legendre
  rule onto subintervals graded geometrically toward u = -1, as many as lam
  needs (one interval at lam = 1), down to lam = 0;
* the graded rules and the tensor rule's moments of (1, r), all that
  polynomial integrands need, are built once, on first use, and shared;
* Monte Carlo ratio estimators report a delta-method standard error and a
  100-block jackknife standard error as an independent second opinion.
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


def sample_bloch_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` uniform Bloch-sphere states as the columns of a ``(3, n)`` array
    of Bloch vectors, with u = cos θ uniform on [-1, 1] and phi on [0, 2 pi)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"need at least 2 samples, got {n!r}")
    r = np.empty((3, n))
    u = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sqrt(np.multiply(1.0 - u, 1.0 + u, out=r[2]), out=r[2])
    np.multiply(np.cos(phi, out=r[0]), s, out=r[0])
    np.multiply(np.sin(phi, out=r[1]), s, out=r[1])
    r[2] = u
    return r


def _pauli(a) -> tuple:
    """Pauli coefficients ``(a0, (a1, a2, a3))`` of the 2x2 matrix with rows ``a``,
    ``a_k = tr(a sigma_k) / 2`` (sigma_0 = I); then ``<psi|a|psi> = a0 + a . r``."""
    (a00, a01), (a10, a11) = a
    return 0.5 * (a00 + a11), (0.5 * (a01 + a10), 0.5j * (a01 - a10), 0.5 * (a00 - a11))


def _q(lam: float, u: np.ndarray) -> np.ndarray:
    """q of the canonical operator, linear in u: ``[(1 + lam^2) + u (1 - lam^2)] / 2``."""
    return 0.5 * ((1.0 + lam * lam) + u * (1.0 - lam * lam))


def _outcome_q(op: MeasurementOperator, r: np.ndarray) -> np.ndarray:
    """Scaled outcome probability <psi|M†M|psi> / kappa^2 at Bloch vectors r:
    g0 + g . r, with (g0, g) the Pauli coefficients of linalg._gram's
    M†M = [[a, b], [conj(b), c]] over kappa^2. Uses the raw matrix, so any
    right unitary factor shows up pointwise (its effect must — and does —
    wash out of uniform averages)."""
    a, c, b = _gram(op.matrix)
    g0, g = _pauli(((a, b), (b.conjugate(), c)))
    k2 = op.kappa * op.kappa
    y = np.dot(np.array([x.real for x in g]) / k2, r)
    y += g0.real / k2
    return y


def _amplitude_pauli(op: MeasurementOperator) -> tuple:
    """Pauli coefficients of u D: canonical left factor u, core D = diag(1, lam)."""
    return _pauli((op.canonical.u * [1.0, op.lam]).tolist())


def _fidelity_weight(op: MeasurementOperator, r: np.ndarray) -> np.ndarray:
    """``|<psi| u D |psi>|^2`` at Bloch vectors r."""
    b0, b = _amplitude_pauli(op)
    w = np.dot(np.array([[x.real for x in b], [x.imag for x in b]]), r)
    w += [[b0.real], [b0.imag]]
    np.multiply(w, w, out=w)
    return np.add(w[0], w[1], out=w[0])


def _xlog2x(q: np.ndarray) -> np.ndarray:
    """q log2 q, taken as its limit 0 where q <= 0."""
    t = np.maximum(q, 1e-300)
    np.log2(t, out=t)
    t *= q
    np.copyto(t, 0.0, where=~(q > 0.0))
    return t


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache
def _jackknife_blocks(n: int) -> tuple:
    """Start index and leave-one-out size of each block that
    ``np.array_split`` makes of ``n`` samples."""
    blocks = min(_JACKKNIFE_BLOCKS, n)
    k = np.arange(blocks)
    starts = k * (n // blocks) + np.minimum(k, n % blocks)
    return _read_only(starts, n - np.diff(starts, append=n))


def _jackknife_se(data: np.ndarray, totals: np.ndarray, fn: Callable[..., float]) -> float:
    """Leave-one-block-out standard error of ``fn`` applied to the row means
    of ``data`` (whose row sums are ``totals``), with the blocks of
    ``np.array_split``."""
    starts, kept = _jackknife_blocks(data.shape[1])
    blocks = starts.size
    block_sums = np.add.reduceat(data, starts, axis=1)
    estimates = fn(*((totals[:, None] - block_sums) / kept))
    estimates -= np.add.reduce(estimates) / blocks
    return math.sqrt((blocks - 1) / blocks * float(np.add.reduce(estimates * estimates)))


def _ratio_estimate(
    columns: tuple, fn: Callable[..., float], grad: Callable[..., tuple]
) -> Estimate:
    """Monte Carlo estimate ``fn(*column means)``, where the first column
    holds q and must have a positive mean.

    ``grad`` gives the gradient of ``fn`` at the means, from which the delta
    method gives the standard error ``sqrt(g . Cov . g / n)``; the jackknife
    standard error is reported alongside it. ``fn`` must also accept arrays
    of means, one entry per jackknife block.
    """
    data = np.array(columns)
    n = data.shape[1]
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    totals = np.add.reduce(data, axis=1)
    mean = totals / n
    means = mean.tolist()
    if means[0] <= 0.0:
        raise DegenerateSampleError("sample average of q is not positive")
    g = np.array(grad(*means))
    jackknife = _jackknife_se(data, totals, fn)
    # np.cov(data)'s own arithmetic without its argument handling, so that
    # std_error keeps every bit; data is centered in place, after the
    # jackknife has read it.
    data -= mean[:, None]
    cov = np.dot(data, data.T)
    cov *= np.true_divide(1, n - 1)
    var = float(g @ cov @ g) / n
    return Estimate(
        value=float(fn(*means)),
        std_error=math.sqrt(max(var, 0.0)),
        samples=n,
        method="monte-carlo",
        std_error_jackknife=jackknife,
    )


def estimate_information(op: MeasurementOperator, r: np.ndarray) -> Estimate:
    """Monte Carlo estimate of the mean information gain, in bits, over the
    Bloch vectors in the columns of ``r``.

    Averages q and q*log2(q) over the states and combines them through
    the defining functional ``[avg(q log2 q) - qbar log2 qbar] / qbar``,
    which is invariant under rescaling of q.
    """
    y = _outcome_q(op, r)
    return _ratio_estimate(
        (y, _xlog2x(y)),
        lambda ym, zm: zm / ym - np.log2(ym),
        lambda ym, zm: (-zm / ym**2 - 1.0 / (ym * math.log(2.0)), 1.0 / ym),
    )


def estimate_fidelity(op: MeasurementOperator, r: np.ndarray) -> Estimate:
    """Monte Carlo estimate of the mean fidelity of one outcome over the
    Bloch vectors in the columns of ``r``.

    Averages ``|<psi| u D |psi>|^2`` against the posterior weight by taking
    the ratio of its sample mean to the sample mean of q. Uses the canonical
    left factor, matching the single-outcome relabeling convention.
    """
    return _ratio_estimate(
        (_q(op.lam, r[2]), _fidelity_weight(op, r)),
        lambda ym, zm: zm / ym,
        lambda ym, zm: (-zm / ym**2, 1.0 / ym),
    )


def estimate_reversibility(op: MeasurementOperator, r: np.ndarray) -> Estimate:
    """Monte Carlo estimate of the mean reversal success probability,
    ``lam^2 / (average of q)``, over the Bloch vectors in the columns of ``r``.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to estimate.
    """
    _check_reversible(op.lam)
    lam2 = op.lam * op.lam
    return _ratio_estimate(
        (_outcome_q(op, r),), lambda ym: lam2 / ym, lambda ym: (-lam2 / ym**2,)
    )


def _check_nodes(nodes: int) -> int:
    if not isinstance(nodes, (int, np.integer)) or nodes < 8:
        raise DomainError(f"need at least 8 quadrature nodes, got {nodes!r}")
    return int(nodes)


@functools.lru_cache
def _gauss_legendre(nodes: int, depth: int) -> tuple:
    """Read-only nodes and weights of the ``nodes``-point Gauss-Legendre rule
    mapped onto each subinterval of [-1, 1] between the breakpoints -1,
    -1 + 2 * 8^-k for k = depth, ..., 1, and 1; depth 0 is the plain rule."""
    x, w = leggauss(nodes)
    edges = np.concatenate(([-1.0], -1.0 + 2.0 * 8.0 ** -np.arange(depth, 0, -1), [1.0]))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return _read_only((mid + half * x).ravel(), (half * w).ravel())


@functools.lru_cache
def _moments(nodes: int) -> tuple:
    """Second moments M of x = (1, r) under the fidelity tensor rule, a symmetric
    4x4 tuple of floats: x = f(u) h(phi), so each is a u sum times a phi mean."""
    u, w = _gauss_legendre(nodes, 0)
    phi = np.arange(2 * nodes) * (math.pi / nodes)
    s = np.sqrt((1.0 - u) * (1.0 + u))
    f, h = np.array([u**0, s, s, u]), np.array([phi**0, np.cos(phi), np.sin(phi), phi**0])
    m = np.add.reduce(0.5 * w * (f[:, None] * f), -1) * np.mean(h[:, None] * h, -1)
    return tuple(map(tuple, m.tolist()))


def quadrature_information(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the information-gain average.

    q log2 q is not analytic at the zero of q, which lies about 2 lam^2
    beyond u = -1, so a single rule converges slowly at small lam. The
    ``nodes``-point rule is therefore applied on subintervals graded toward
    u = -1, K = ceil(log_8(1 / lam^2)) of them below u = -3/4, so that the
    innermost one is no wider than that distance (``samples`` counts every
    node). K stops growing where 1 + lam^2 rounds to 1: from there on q is
    q at lam = 0, and q log2 q is taken as 0 where q vanishes.
    """
    nodes = _check_nodes(nodes)
    lam = op.lam
    depth = math.ceil(math.log(1.0 / max(lam * lam, 2.0**-53), 8))
    u, w = _gauss_legendre(nodes, depth)
    q = _q(lam, u)
    qbar = 0.5 * float(np.sum(w * q))
    qlog = 0.5 * float(np.sum(w * _xlog2x(q)))
    value = qlog / qbar - math.log2(qbar)
    return Estimate(value=value, std_error=0.0, samples=q.size, method="quadrature")


def quadrature_fidelity(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the mean-fidelity average.

    Tensor rule: ``nodes`` Gauss-Legendre points in u times ``2 * nodes``
    uniform points in phi, summed as Re(c† M c) over the rule's moments M.
    """
    nodes = _check_nodes(nodes)
    m = _moments(nodes)
    b0, b = _amplitude_pauli(op)
    c = (b0,) + b
    zbar = sum((x.conjugate() * sum(a * y for a, y in zip(row, c))).real for x, row in zip(c, m))
    value = zbar / _q(op.lam, m[0][3])
    return Estimate(value=value, std_error=0.0, samples=2 * nodes * nodes, method="quadrature")


def quadrature_reversibility(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the mean reversal success probability,
    ``lam^2 / qbar`` with qbar integrated exactly (the integrand is linear
    in u) from the rule's first moment in u.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to evaluate.
    """
    nodes = _check_nodes(nodes)
    lam = op.lam
    _check_reversible(lam)
    qbar = _q(lam, _moments(nodes)[0][3])
    return Estimate(value=lam * lam / qbar, std_error=0.0, samples=nodes, method="quadrature")
