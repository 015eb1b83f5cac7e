"""Independent Bloch-sphere integration oracles.

The closed forms in :mod:`qmtradeoff.analytics` are averages over a uniform
pure-state prior. This module evaluates those same averages directly from
their defining integrands — by Monte Carlo sampling and by deterministic
quadrature — without ever touching the closed-form expressions, so the two
routes can cross-check each other.

Conventions shared by both routes:

* a uniform state is drawn as u = cos(theta) uniform on [-1, 1] and phi
  uniform on [0, 2 pi);
* the information and reversibility integrands depend on the state only
  through the scaled outcome probability q, so their quadratures are
  one-dimensional in u; the fidelity integrand retains a phi dependence
  through the left unitary factor and uses a tensor grid (Gauss-Legendre in
  u times a uniform periodic rule in phi — the integrand is a degree-2
  trigonometric polynomial in phi, integrated exactly by >= 5 points);
* Monte Carlo ratio estimators report a delta-method standard error and a
  100-block jackknife standard error as an independent second opinion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateSampleError, DomainError, IrreversibleError
from .measurement import MeasurementOperator, PureState
from .reversal import REVERSIBLE_LAM_TOL

#: Quadrature collapses to the exact limit value below this strength ratio
#: (the log singularity at q -> 0 would otherwise slow convergence).
QUADRATURE_SMALL_LAM = 1e-6

_INFO_LIMIT_AT_ZERO = 1.0 - 1.0 / (2.0 * math.log(2.0))

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


def sample_bloch_angles(rng: np.random.Generator, n: int) -> tuple:
    """Draw ``n`` uniform Bloch-sphere states, vectorized.

    Returns ``(theta, phi)`` arrays; cos(theta) is uniform on [-1, 1].
    """
    if n < 1:
        raise DomainError(f"sample count must be positive, got {n}")
    u = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.arccos(u), phi


def sample_bloch_uniform(rng: np.random.Generator) -> PureState:
    """Draw one state uniformly from the Bloch sphere."""
    theta, phi = sample_bloch_angles(rng, 1)
    return PureState(theta=float(theta[0]), phi=float(phi[0]))


def _half_angles(theta: np.ndarray) -> tuple:
    half = 0.5 * theta
    return np.cos(half), np.sin(half)


def _q_raw(op: MeasurementOperator, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Scaled outcome probability <psi|M†M|psi> / kappa^2 for each state.

    Uses the raw matrix, so any right unitary factor shows up pointwise
    (its effect must — and does — wash out of uniform averages).
    """
    g = op.gram()
    c, s = _half_angles(theta)
    cross = 2.0 * c * s * (g[0, 1] * np.exp(1j * phi)).real
    p = c * c * g[0, 0].real + s * s * g[1, 1].real + cross
    return p / (op.kappa * op.kappa)


def _q_canonical(lam: float, theta: np.ndarray) -> np.ndarray:
    c, s = _half_angles(theta)
    return c * c + lam * lam * s * s


def _left_amplitude(op: MeasurementOperator, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """<psi| u D |psi> with the canonical left factor and core D = diag(1, lam)."""
    b = op.canonical.u @ np.diag([1.0, op.lam]).astype(complex)
    c, s = _half_angles(theta)
    ph = np.exp(1j * phi)
    return (
        c * c * b[0, 0]
        + c * s * ph * b[0, 1]
        + s * c * np.conj(ph) * b[1, 0]
        + s * s * b[1, 1]
    )


def _jackknife_se(columns: tuple, fn: Callable[..., float]) -> float:
    """Leave-one-block-out standard error of ``fn`` applied to column means."""
    n = len(columns[0])
    blocks = min(_JACKKNIFE_BLOCKS, n)
    totals = [float(np.sum(col)) for col in columns]
    estimates = np.empty(blocks)
    index_blocks = np.array_split(np.arange(n), blocks)
    for j, idx in enumerate(index_blocks):
        kept = n - len(idx)
        means = [
            (totals[k] - float(np.sum(col[idx]))) / kept
            for k, col in enumerate(columns)
        ]
        estimates[j] = fn(*means)
    center = float(np.mean(estimates))
    return math.sqrt((blocks - 1) / blocks * float(np.sum((estimates - center) ** 2)))


def _ratio_estimate(
    columns: tuple, fn: Callable[..., float], grad: Callable[..., tuple]
) -> Estimate:
    """Monte Carlo estimate ``fn(*column means)``, where the first column
    holds q and must have a positive mean.

    ``grad`` gives the gradient of ``fn`` at the means, from which the delta
    method gives the standard error ``sqrt(g . Cov . g / n)``; the jackknife
    standard error is reported alongside it.
    """
    means = [float(np.mean(col)) for col in columns]
    if means[0] <= 0.0:
        raise DegenerateSampleError("sample average of q is not positive")
    n = len(columns[0])
    g = np.array(grad(*means))
    var = float(g @ np.atleast_2d(np.cov(np.vstack(columns))) @ g) / n
    return Estimate(
        value=fn(*means),
        std_error=math.sqrt(max(var, 0.0)),
        samples=n,
        method="monte-carlo",
        std_error_jackknife=_jackknife_se(columns, fn),
    )


def _check_samples(samples: int) -> int:
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples!r}")
    return int(samples)


def estimate_information(
    op: MeasurementOperator, samples: int, rng: np.random.Generator
) -> Estimate:
    """Monte Carlo estimate of the mean information gain, in bits.

    Averages q and q*log2(q) over sampled states and combines them through
    the defining functional ``[avg(q log2 q) - qbar log2 qbar] / qbar``,
    which is invariant under rescaling of q.
    """
    samples = _check_samples(samples)
    theta, phi = sample_bloch_angles(rng, samples)
    y = _q_raw(op, theta, phi)
    z = np.where(y > 0.0, y * np.log2(np.maximum(y, 1e-300)), 0.0)
    return _ratio_estimate(
        (y, z),
        lambda ym, zm: zm / ym - math.log2(ym),
        lambda ym, zm: (-zm / ym**2 - 1.0 / (ym * math.log(2.0)), 1.0 / ym),
    )


def estimate_fidelity(
    op: MeasurementOperator, samples: int, rng: np.random.Generator
) -> Estimate:
    """Monte Carlo estimate of the mean fidelity of one outcome.

    Averages ``|<psi| u D |psi>|^2`` against the posterior weight by taking
    the ratio of its sample mean to the sample mean of q. Uses the canonical
    left factor, matching the single-outcome relabeling convention.
    """
    samples = _check_samples(samples)
    theta, phi = sample_bloch_angles(rng, samples)
    y = _q_canonical(op.lam, theta)
    z = np.abs(_left_amplitude(op, theta, phi)) ** 2
    return _ratio_estimate(
        (y, z), lambda ym, zm: zm / ym, lambda ym, zm: (-zm / ym**2, 1.0 / ym)
    )


def estimate_reversibility(
    op: MeasurementOperator, samples: int, rng: np.random.Generator
) -> Estimate:
    """Monte Carlo estimate of the mean reversal success probability,
    ``lam^2 / (sample average of q)``.

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to estimate.
    """
    samples = _check_samples(samples)
    if op.lam < REVERSIBLE_LAM_TOL:
        raise IrreversibleError(
            "operator has a zero singular value; nothing can be reversed"
        )
    theta, phi = sample_bloch_angles(rng, samples)
    y = _q_raw(op, theta, phi)
    lam2 = op.lam * op.lam
    return _ratio_estimate((y,), lambda ym: lam2 / ym, lambda ym: (-lam2 / ym**2,))


def _check_nodes(nodes: int) -> int:
    if not isinstance(nodes, (int, np.integer)) or nodes < 8:
        raise DomainError(f"need at least 8 quadrature nodes, got {nodes!r}")
    return int(nodes)


def _q_on_nodes(lam: float, nodes: int) -> tuple:
    """q of the canonical operator and the weights at the Gauss-Legendre
    nodes in u; q is linear in u, ``[(1 + lam^2) + u (1 - lam^2)] / 2``."""
    u, w = leggauss(nodes)
    return 0.5 * ((1.0 + lam * lam) + u * (1.0 - lam * lam)), w


def quadrature_information(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the information-gain average.

    Gauss-Legendre in u = cos(theta): the integrand q log2 q is smooth for
    lam > 0 (64 nodes reach ~1e-11 even at lam = 0.05, and machine precision
    by lam ~ 0.2). Below ``QUADRATURE_SMALL_LAM`` the exact lam = 0 limit
    1 - 1/(2 ln 2) is returned instead, since the integrand's derivative
    blows up as q -> 0.
    """
    nodes = _check_nodes(nodes)
    lam = op.lam
    if lam < QUADRATURE_SMALL_LAM:
        return Estimate(
            value=_INFO_LIMIT_AT_ZERO, std_error=0.0, samples=nodes, method="quadrature"
        )
    q, w = _q_on_nodes(lam, nodes)
    qbar = 0.5 * float(np.sum(w * q))
    qlog = 0.5 * float(np.sum(w * q * np.log2(q)))
    value = qlog / qbar - math.log2(qbar)
    return Estimate(value=value, std_error=0.0, samples=nodes, method="quadrature")


def quadrature_fidelity(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the mean-fidelity average.

    Tensor rule: ``nodes`` Gauss-Legendre points in u times ``2 * nodes``
    uniform points in phi.
    """
    nodes = _check_nodes(nodes)
    u, w = leggauss(nodes)
    n_phi = 2 * nodes
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)

    theta = np.arccos(u)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    z = np.abs(_left_amplitude(op, tt.ravel(), pp.ravel())) ** 2
    z_phi_avg = z.reshape(nodes, n_phi).mean(axis=1)

    q = _q_canonical(op.lam, theta)
    qbar = 0.5 * float(np.sum(w * q))
    zbar = 0.5 * float(np.sum(w * z_phi_avg))
    return Estimate(
        value=zbar / qbar, std_error=0.0, samples=nodes * n_phi, method="quadrature"
    )


def quadrature_reversibility(op: MeasurementOperator, nodes: int = 64) -> Estimate:
    """Deterministic evaluation of the mean reversal success probability,
    ``lam^2 / qbar`` with qbar integrated exactly (the integrand is linear
    in u).

    Raises
    ------
    IrreversibleError
        If the strength ratio vanishes: there is no reversal to evaluate.
    """
    nodes = _check_nodes(nodes)
    lam = op.lam
    if lam < REVERSIBLE_LAM_TOL:
        raise IrreversibleError(
            "operator has a zero singular value; nothing can be reversed"
        )
    q, w = _q_on_nodes(lam, nodes)
    qbar = 0.5 * float(np.sum(w * q))
    return Estimate(
        value=lam * lam / qbar, std_error=0.0, samples=nodes, method="quadrature"
    )
