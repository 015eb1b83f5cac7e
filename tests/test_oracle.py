"""Monte Carlo and quadrature oracles against the closed forms.

These are the independent verification routes: nothing here may shortcut
through the formulas being checked, beyond using them as the comparison
target.
"""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from qmtradeoff import analytics, oracle
from qmtradeoff.errors import DegenerateSampleError, DomainError, IrreversibleError
from qmtradeoff.linalg import Su2Params, _gram, su2_matrix, su2_params
from qmtradeoff.measurement import MeasurementOperator, PureState
from qmtradeoff.oracle import (
    NODES,
    _SPHERE_MEAN,
    _amplitude_pauli,
    _fidelity_coef,
    _gauss_legendre,
    _monomials,
    _pauli,
    _q_coef,
    estimate_fidelity,
    estimate_information,
    estimate_reversibility,
    quadrature_fidelity,
    quadrature_information,
    quadrature_reversibility,
    sample_bloch_vectors,
)


def diag_op(lam, kappa=1.0):
    return MeasurementOperator(kappa * np.diag([1.0, lam]))


def bloch(seed, n):
    """A batch of ``n`` uniform Bloch vectors from a fresh generator."""
    return sample_bloch_vectors(np.random.default_rng(seed), n)


def outcome_q(op, r):
    """q = g0 + g . r at each column of r, as estimate_information forms it."""
    coef = _q_coef(op)
    return coef[1:4] @ r + coef[0]


def fidelity_weight(op, r):
    """Per-sample |<psi| u D |psi>|^2 = re² + im² of b0 + b . r."""
    b0, b = _amplitude_pauli(op)
    re, im = np.array([[x.real for x in b], [x.imag for x in b]]) @ r + [[b0.real], [b0.imag]]
    return re * re + im * im


def polar(r):
    """u = cos theta and phi in [0, 2 pi) of each Bloch vector."""
    return r[2], np.mod(np.arctan2(r[1], r[0]), 2.0 * np.pi)


def bloch_vectors_reference(u, phi):
    """Bloch vectors (s cos phi, s sin phi, u), s = √(1 - u²), along a new
    first axis: the stacked NumPy form that ``sample_bloch_vectors`` writes
    into one buffer instead."""
    s = np.sqrt((1.0 - u) * (1.0 + u))
    return np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), u))


class TestSampler:
    def test_cos_theta_uniform(self):
        rng = np.random.default_rng(314)
        n = 200_000
        u, phi = polar(sample_bloch_vectors(rng, n))
        # mean of U(-1, 1) has sd 1/sqrt(3n)
        assert abs(u.mean()) < 3.0 / np.sqrt(3.0 * n)
        assert abs(phi.mean() - np.pi) < 3.0 * np.pi / np.sqrt(3.0 * n)
        assert u.min() >= -1.0 and u.max() <= 1.0

    def test_octant_counts(self):
        """Each z-hemisphere and each phi quadrant should get its share."""
        rng = np.random.default_rng(315)
        n = 80_000
        u, phi = polar(sample_bloch_vectors(rng, n))
        north = np.count_nonzero(u > 0)
        assert abs(north - n / 2) < 3.0 * np.sqrt(n * 0.25)
        for k in range(4):
            in_quadrant = np.count_nonzero(
                (phi >= k * np.pi / 2) & (phi < (k + 1) * np.pi / 2)
            )
            assert abs(in_quadrant - n / 4) < 3.0 * np.sqrt(n * 0.25 * 0.75)

    def test_half_angle_weight(self):
        """cos^2(theta/2) = (1 + cos theta)/2 averages to 1/2 under the
        uniform sphere measure; its sd is 1/sqrt(12)."""
        rng = np.random.default_rng(317)
        n = 200_000
        u = sample_bloch_vectors(rng, n)[2]
        mean = float(np.mean(0.5 * (1.0 + u)))
        assert abs(mean - 0.5) < 3.0 / np.sqrt(12.0 * n)

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            sample_bloch_vectors(np.random.default_rng(1), 0)
        for estimator in (estimate_information, estimate_fidelity, estimate_reversibility):
            with pytest.raises(DomainError):
                estimator(diag_op(0.5), bloch(1, 2)[:, :1])

    @pytest.mark.parametrize("n", [True, np.True_, 2.0, "2"])
    def test_sample_count_must_be_an_integer(self, n):
        with pytest.raises(DomainError):
            sample_bloch_vectors(np.random.default_rng(1), n)

    @pytest.mark.parametrize("n", [2, 3, 2000, 100_000])
    def test_matches_reference_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        u = rng.uniform(-1.0, 1.0, size=n)
        expected = bloch_vectors_reference(u, rng.uniform(0.0, 2.0 * np.pi, size=n))
        got = sample_bloch_vectors(np.random.default_rng(n), n)
        assert got.shape == expected.shape == (3, n)
        assert got.tobytes() == expected.tobytes()

    def test_unit_vectors_centred(self):
        """Every column is a unit vector, and each component of a uniform
        unit vector has mean 0 and variance 1/3."""
        n = 200_000
        r = bloch(316, n)
        assert r.shape == (3, n)
        assert np.max(np.abs(np.linalg.norm(r, axis=0) - 1.0)) <= 1e-15
        assert np.all(np.abs(r.mean(axis=1)) < 4.0 / np.sqrt(3.0 * n))


def test_oracle_never_imports_analytics():
    """The oracles must not reach the closed forms they are checked against."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported if "analytics" in name.split(".")]


class TestPauliIntegrands:
    """q and |c . (1, r)|^2 as coef @ x, with x = _monomials(r), against the
    matrix elements computed from the state's amplitudes."""

    @staticmethod
    def operators(rng, count):
        for k in range(count):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if k % 3 == 0:  # a diagonal core behind a random right unitary
                m = np.diag([1.0, rng.uniform()]) @ su2_matrix(
                    Su2Params(*rng.uniform(-np.pi, np.pi, 4))
                )
            yield MeasurementOperator(m / (1.01 * np.linalg.norm(m, 2)))

    def test_pauli_coefficients_rebuild_the_matrix(self):
        sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        rng = np.random.default_rng(40)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a0, coef = _pauli(a)
            rebuilt = a0 * np.eye(2) + np.tensordot(coef, sigma, axes=1)
            assert np.max(np.abs(rebuilt - a)) < 1e-15

    def test_affine_forms_match_amplitudes(self):
        rng = np.random.default_rng(41)
        worst_q = worst_f = 0.0
        for op in self.operators(rng, 300):
            assert np.max(np.abs(op.canonical.v - np.eye(2))) > 1e-6
            core = op.canonical.u * np.array([1.0, op.lam])
            for _ in range(20):
                state = PureState(theta=math.acos(rng.uniform(-1.0, 1.0)),
                                  phi=rng.uniform(0.0, 2.0 * math.pi))
                t, f = state.theta, state.phi
                r = np.array([[math.sin(t) * math.cos(f)], [math.sin(t) * math.sin(f)],
                              [math.cos(t)]])
                a = state.amplitudes()
                q = np.vdot(a, op.matrix.conj().T @ op.matrix @ a).real / op.kappa**2
                fid = abs(np.vdot(a, core @ a)) ** 2
                x = _monomials(r)
                worst_q = max(worst_q, abs((_q_coef(op) @ x)[0] - q))
                worst_f = max(worst_f, abs((_fidelity_coef(op)[1] @ x)[0] - fid))
        assert worst_q <= 2e-15
        assert worst_f <= 2e-15


    def test_outcome_q_matches_numpy_gram(self):
        """q from linalg._gram's entries against the Pauli coefficients of
        the NumPy product M†M / kappa^2, to 1e-15 of the batch's largest q."""
        sigma = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        rng = np.random.default_rng(42)
        r = bloch(43, 1000)
        for op in self.operators(rng, 300):
            assert np.max(np.abs(op.canonical.v - np.eye(2))) > 1e-6
            gram = op.matrix.conj().T @ op.matrix / op.kappa**2
            g = 0.5 * np.trace(gram @ sigma, axis1=1, axis2=2).real
            q = outcome_q(op, r)
            assert np.max(np.abs(q - (g[0] + g[1:] @ r))) <= 1e-15 * np.max(q)
            assert np.max(np.abs(q - _q_coef(op) @ _monomials(r))) <= 1e-15 * np.max(q)

    @staticmethod
    def per_entry_rows(op):
        """q's row and the fidelity's two rows, entry by entry from the
        NumPy product u * [1, lam] and the weight 2 - (i == j)."""
        a, c, b = _gram(op.matrix)
        g0, g = _pauli(((a, b), (b.conjugate(), c)))
        k2 = op.kappa * op.kappa
        q = np.zeros(10)
        for k, gk in enumerate((g0,) + g):
            q[k] = gk.real / k2
        b0, b = _pauli((op.canonical.u * [1.0, op.lam]).tolist())
        amp, lam = (b0,) + b, op.lam
        fid = np.zeros((2, 10))
        fid[0, 0], fid[0, 3] = 0.5 * (1.0 + lam * lam), 0.5 * (1.0 - lam) * (1.0 + lam)
        for k, (i, j) in enumerate((i, j) for i in range(4) for j in range(i, 4)):
            fid[1, k] = amp[i].real * amp[j].real + amp[i].imag * amp[j].imag
            fid[1, k] *= 2.0 - (i == j)
        return q, fid

    def test_coefficient_rows_match_per_entry_form(self):
        """Bit for bit, on random operators with non-trivial right factors,
        verify's diag(1, lam) at both ends and a Hadamard-rotated operator."""
        ops = list(self.operators(np.random.default_rng(44), 5000))
        ops += [diag_op(lam) for lam in (0.0, 1e-300, 0.5, 1.0)]
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        ops.append(MeasurementOperator(h @ np.diag([1.0, 0.5])))
        for op in ops:
            q, fid = self.per_entry_rows(op)
            assert _q_coef(op).tobytes() == q.tobytes(), op
            assert _fidelity_coef(op).tobytes() == fid.tobytes(), op



class TestIdentityOperator:
    """kappa = lam = 1 leaves every state alone; all estimators must be
    exact with zero spread, up to floating-point rounding."""

    def test_monte_carlo_degenerates_cleanly(self):
        op = diag_op(1.0)
        rng = np.random.default_rng(0)
        info = estimate_information(op, sample_bloch_vectors(rng, 1000))
        assert info.value == pytest.approx(0.0, abs=1e-14)
        assert info.std_error == pytest.approx(0.0, abs=1e-15)
        fid = estimate_fidelity(op, sample_bloch_vectors(rng, 1000))
        assert fid.value == pytest.approx(1.0, abs=1e-15)
        assert fid.std_error == pytest.approx(0.0, abs=1e-15)
        rev = estimate_reversibility(op, sample_bloch_vectors(rng, 1000))
        assert rev.value == pytest.approx(1.0, abs=1e-15)
        assert rev.std_error == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_exact(self):
        op = diag_op(1.0)
        assert quadrature_information(op).value == pytest.approx(0.0, abs=1e-14)
        assert quadrature_fidelity(op).value == pytest.approx(1.0, abs=1e-14)
        assert quadrature_reversibility(op).value == pytest.approx(1.0, abs=1e-14)


class TestDegenerateSample:
    """diag(1, 0) annihilates the state at r = (0, 0, -1), so on a batch of
    only that state q is 0 everywhere: the shared qbar <= 0 guard raises
    before any division can warn, with one state per jackknife block (57) and
    at the dense verify's 2000."""

    @pytest.mark.parametrize("n", [57, 2000])
    @pytest.mark.parametrize("estimate", [estimate_information, estimate_fidelity])
    def test_vanishing_q_raises(self, n, estimate):
        r = np.zeros((3, n))
        r[2] = -1.0
        batch = r.view(oracle.Batch)
        batch.setflags(write=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSampleError, match="not positive"):
                estimate(diag_op(0.0), batch)


class TestMonteCarloAgreement:
    SAMPLES = 200_000

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.9])
    def test_information(self, lam):
        op = diag_op(lam)
        est = estimate_information(op, bloch(101, self.SAMPLES))
        assert est.std_error > 0.0
        assert abs(est.value - analytics.information_gain(lam)) < 4.0 * est.std_error

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.9])
    def test_fidelity(self, lam):
        op = diag_op(lam)
        est = estimate_fidelity(op, bloch(102, self.SAMPLES))
        ref = analytics.fidelity_of_operator(op)
        assert abs(est.value - ref) < 4.0 * est.std_error

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.9])
    def test_reversibility(self, lam):
        op = diag_op(lam)
        est = estimate_reversibility(op, bloch(103, self.SAMPLES))
        assert abs(est.value - analytics.reversibility(lam)) < 4.0 * est.std_error

    def test_overall_scale_drops_out(self):
        """A weaker operator with the same strength ratio must estimate the
        same quantities (only acceptance odds change, and those normalize
        away)."""
        full = estimate_information(diag_op(0.5), bloch(104, 50_000))
        weak = estimate_information(diag_op(0.5, kappa=0.3), bloch(104, 50_000))
        assert weak.value == pytest.approx(full.value, abs=1e-12)

    def test_jackknife_tracks_delta_method(self):
        est = estimate_information(diag_op(0.4), bloch(105, 100_000))
        assert est.std_error_jackknife is not None
        ratio = est.std_error_jackknife / est.std_error
        assert 0.8 < ratio < 1.25

    def test_deterministic_given_seed(self):
        a = estimate_fidelity(diag_op(0.6), bloch(9, 10_000))
        b = estimate_fidelity(diag_op(0.6), bloch(9, 10_000))
        assert a == b

    def test_metadata(self):
        est = estimate_reversibility(diag_op(0.5), bloch(10, 5_000))
        assert est.samples == 5_000
        assert est.method == "monte-carlo"

    def test_left_rotation_drops_out_of_information(self):
        """Rotating the outputs cannot change what was learned."""
        rng = np.random.default_rng(107)
        w = su2_matrix(Su2Params(*rng.uniform(-np.pi, np.pi, 4)))
        plain = estimate_information(diag_op(0.5), bloch(108, self.SAMPLES))
        rotated = estimate_information(
            MeasurementOperator(w @ np.diag([1.0, 0.5])),
            bloch(109, self.SAMPLES),
        )
        band = 4.0 * np.hypot(plain.std_error, rotated.std_error)
        assert abs(plain.value - rotated.value) < band

    def test_left_rotation_drops_out_of_reversibility(self):
        rng = np.random.default_rng(110)
        w = su2_matrix(Su2Params(*rng.uniform(-np.pi, np.pi, 4)))
        est = estimate_reversibility(
            MeasurementOperator(w @ np.diag([1.0, 0.9])),
            bloch(111, self.SAMPLES),
        )
        assert abs(est.value - 1.62 / 1.81) < 4.0 * est.std_error

    def test_spin_flip_hits_fidelity_floor(self):
        """With the output flipped (gamma = pi/2) the mean fidelity drops
        to the random-guess value 1/3 regardless of strength."""
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        op = MeasurementOperator(x @ np.diag([1.0, 0.5]))
        est = estimate_fidelity(op, bloch(112, self.SAMPLES))
        assert abs(est.value - 1.0 / 3.0) < 4.0 * est.std_error

    def test_singular_operator_rejected(self):
        with pytest.raises(IrreversibleError):
            estimate_reversibility(diag_op(0.0), bloch(8, 1000))


class TestStandardErrorCalibration:
    """Across many independent batches, (estimate - closed form) / standard
    error must look like a standard normal: mean within 0.15 of 0 and
    variance in [0.85, 1.15], for the delta-method and the jackknife error
    alike. With 1000 batches the sampling spread is about 0.03 in the mean
    and 0.045 in the variance."""

    BATCHES, SAMPLES = 1000, 2000

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_z_scores_are_standard(self, lam):
        op = diag_op(lam)
        checks = {
            estimate_information: analytics.information_gain(lam),
            estimate_fidelity: analytics.fidelity_of_operator(op),
            estimate_reversibility: analytics.reversibility(lam),
        }
        rng = np.random.default_rng([120, round(10 * lam)])
        z = {(f, se): [] for f in checks for se in ("std_error", "std_error_jackknife")}
        for _ in range(self.BATCHES):
            r = sample_bloch_vectors(rng, self.SAMPLES)
            for f, reference in checks.items():
                est = f(op, r)
                for se in ("std_error", "std_error_jackknife"):
                    z[f, se].append((est.value - reference) / getattr(est, se))
        for (f, se), values in z.items():
            assert abs(np.mean(values)) <= 0.15, (f.__name__, se, np.mean(values))
            assert 0.85 <= np.var(values) <= 1.15, (f.__name__, se, np.var(values))


def loop_jackknife(columns, fn, blocks=100):
    """Leave-one-block-out standard error, one block at a time."""
    n = len(columns[0])
    estimates = []
    for idx in np.array_split(np.arange(n), min(blocks, n)):
        kept = np.ones(n, dtype=bool)
        kept[idx] = False
        estimates.append(fn(*(float(np.mean(col[kept])) for col in columns)))
    estimates = np.array(estimates)
    k = len(estimates)
    return float(np.sqrt((k - 1) / k * np.sum((estimates - estimates.mean()) ** 2)))


class TestJackknife:
    """The block estimates are computed in one array expression; pin them
    against the plain loop, including fewer samples than blocks."""

    OP = MeasurementOperator(
        su2_matrix(Su2Params(0.3, -1.1, 0.7, 2.0)) @ np.diag([0.9, 0.35])
    )

    @pytest.mark.parametrize("n", [2000, 2001, 57])
    def test_information_matches_loop(self, n):
        est = estimate_information(self.OP, bloch(n, n))
        y = outcome_q(self.OP, bloch(n, n))
        expected = loop_jackknife((y, y * np.log2(y)), lambda ym, zm: zm / ym - np.log2(ym))
        assert est.std_error_jackknife == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2000, 2001, 57])
    def test_reversibility_matches_loop(self, n):
        est = estimate_reversibility(self.OP, bloch(n, n))
        y = outcome_q(self.OP, bloch(n, n))
        lam2 = self.OP.lam**2
        expected = loop_jackknife((y,), lambda ym: lam2 / ym)
        assert est.std_error_jackknife == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2000, 2001, 57])
    def test_delta_method_matches_np_cov(self, n):
        """std_error is sqrt(g . np.cov(data) . g / n) over the per-sample
        columns: bit for bit for information, which forms its covariance by
        np.cov's own arithmetic, and to 1e-9 relative for fidelity and
        reversibility, which apply the covariance of x = _monomials(r) to the
        gradient projected onto x. TestBatchMoments shows that the moment
        form is the nearer of the two to the exact value."""
        op, lam2 = self.OP, self.OP.lam * self.OP.lam
        r = bloch(n, n)
        u, y = r[2], outcome_q(op, r)
        z = np.where(y > 0.0, y * np.log2(np.maximum(y, 1e-300)), 0.0)
        q = 0.5 * ((1.0 + lam2) + u * (1.0 - lam2))
        cases = [
            (estimate_information, (y, z), 0.0,
             lambda ym, zm: (-zm / ym**2 - 1.0 / (ym * math.log(2.0)), 1.0 / ym)),
            (estimate_fidelity, (q, fidelity_weight(op, r)), 1e-9,
             lambda ym, zm: (-zm / ym**2, 1.0 / ym)),
            (estimate_reversibility, (y,), 1e-9, lambda ym: (-lam2 / ym**2,)),
        ]
        for estimator, columns, rel, grad in cases:
            data = np.vstack(columns)
            g = np.array(grad(*(float(np.mean(row)) for row in data)))
            expected = math.sqrt(float(g @ np.atleast_2d(np.cov(data)) @ g) / n)
            est = estimator(op, bloch(n, n))
            assert abs(est.std_error - expected) <= rel * expected, estimator.__name__

    @pytest.mark.parametrize("n", [2000, 57])
    def test_estimates_are_python_floats(self, n):
        for estimator in (estimate_information, estimate_fidelity, estimate_reversibility):
            est = estimator(self.OP, bloch(n, n))
            assert type(est.value) is float
            assert type(est.std_error) is float
            assert type(est.std_error_jackknife) is float


class TestBatchMoments:
    """A batch's moments of x = _monomials(r), built in one chunk or a
    jackknife block at a time, against NumPy on the whole (10, n) array; and
    the standard errors that fidelity and reversibility take from them
    against a 40-digit per-sample reference."""

    @pytest.mark.parametrize("n", [2, 57, 199, 2000, 2001])
    def test_blockwise_moments_match_numpy(self, n):
        """Below 200 samples some blocks hold a single sample."""
        batch = bloch(n, n)
        mean, cov, loo, count = batch.moments
        x = _monomials(batch)
        assert x.shape == (10, n) and count == n and not batch.flags.writeable
        assert np.max(np.abs(mean - np.mean(x, axis=1))) <= 4e-15
        assert np.max(np.abs(cov - np.cov(x))) <= 4e-15
        blocks = np.array_split(np.arange(n), min(100, n))
        expected = [np.mean(np.delete(x, idx, axis=1), axis=1) for idx in blocks]
        assert loo.shape == (10, len(blocks))
        assert np.max(np.abs(loo - np.array(expected).T)) <= 4e-15

    @pytest.mark.parametrize("n", [57, 199, 2000, 2001])
    def test_merged_chunks_match_numpy(self, n, monkeypatch):
        """The same bounds when the moments merge one chunk per jackknife
        block, as they do above ``_CHUNK`` = 2**13 samples (16 here)."""
        monkeypatch.setattr(oracle, "_CHUNK", 16)
        self.test_blockwise_moments_match_numpy(n)

    def test_moments_are_built_once_per_batch(self, monkeypatch):
        """On first use, not at the draw; a second estimate reuses them.
        A slice is a batch of its own columns, with moments of its own."""
        calls = []
        monkeypatch.setattr(oracle, "_monomials", lambda r: calls.append(1) or _monomials(r))
        batch, op = bloch(5, 2000), diag_op(0.5)
        assert not calls
        first = estimate_fidelity(op, batch)
        built = len(calls)
        assert built and estimate_fidelity(op, batch) == first and len(calls) == built
        estimate_reversibility(op, batch)
        assert len(calls) == built
        assert batch[:, :100].moments[3] == 100 and len(calls) > built

    @pytest.mark.parametrize("k", [2, 57, 1000])
    def test_slice_matches_copied_batch(self, k):
        """A column slice of a batch estimates as a fresh batch of the same
        columns does."""
        batch, op = bloch(6, 2000), diag_op(0.3)
        copy = np.array(batch[:, :k]).view(oracle.Batch)
        for estimator in (estimate_fidelity, estimate_reversibility):
            assert estimator(op, batch[:, :k]) == estimator(op, copy), estimator.__name__

    MP = mpmath.MPContext()
    MP.dps = 40

    @classmethod
    def exact_std_error(cls, columns, grad):
        """sqrt(g . Cov . g / n) over per-sample columns, at 40 digits: the
        spread of g . (x_i - mean) over the samples."""
        n, fsum = len(columns[0]), cls.MP.fsum
        means = [fsum(col) / n for col in columns]
        g = grad(*means)
        h = [fsum(gk * (x - m) for gk, x, m in zip(g, xs, means)) for xs in zip(*columns)]
        return float(cls.MP.sqrt(fsum(x * x for x in h) / ((n - 1) * n)))

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.95, 0.999])
    def test_std_error_matches_mpmath(self, lam):
        """To 1e-10 relative on 2000 states, against the per-sample delta
        method at 40 digits, for verify's diag(1, lam) and a rotated operator.
        Near lam = 1 the fidelity integrand of diag(1, lam) is nearly
        constant: a per-sample covariance in double precision loses about
        eps / (1 - lam)^2 there, and the moment form does not."""
        mpf = self.MP.mpf
        batch = bloch(17, 2000)
        r = [[mpf(v) for v in row] for row in batch.tolist()]
        rotation = su2_matrix(Su2Params(0.3, -1.1, 0.7, 2.0))
        for op in (diag_op(lam), MeasurementOperator(rotation @ np.diag([1.0, lam]))):
            lam2 = mpf(op.lam) ** 2
            q = [((1 + lam2) + u * (1 - lam2)) / 2 for u in r[2]]
            b0, b = _amplitude_pauli(op)
            c = [complex(x) for x in (b0,) + b]
            re = [c[0].real + sum(ck.real * x for ck, x in zip(c[1:], xs)) for xs in zip(*r)]
            im = [c[0].imag + sum(ck.imag * x for ck, x in zip(c[1:], xs)) for xs in zip(*r)]
            z = [a * a + b * b for a, b in zip(re, im)]
            fid = self.exact_std_error((q, z), lambda qm, zm: (-zm / qm**2, 1 / qm))
            rev = self.exact_std_error((q,), lambda qm: (-lam2 / qm**2,))
            for got, want in ((estimate_fidelity(op, batch), fid),
                              (estimate_reversibility(op, batch), rev)):
                assert abs(got.std_error - want) <= 1e-10 * want, (op.lam, got.std_error, want)


class TestChunkTable:
    """The per-n table of chunks that ``_moments`` loops over, built once."""

    SIZES = [2, 57, 199, 2000, oracle._CHUNK, oracle._CHUNK + 1, 10**6]

    @pytest.mark.parametrize("n", SIZES)
    def test_chunks_hold_the_array_split_blocks(self, n):
        """The chunks cover [0, n) once and in order, all blocks in one up to
        ``_CHUNK`` states and one block each above; their blocks are those
        of np.array_split, and every array in the table is read-only."""
        chunks, kept = oracle._jackknife_blocks(n, oracle._CHUNK)
        assert len(chunks) == (1 if n <= oracle._CHUNK else 100)
        assert [lo for lo, _, _, _ in chunks] == [0] + [hi for _, hi, _, _ in chunks[:-1]]
        assert chunks[-1][1] == n
        blocks = []
        for lo, hi, starts, cols in chunks:
            assert cols == slice(len(blocks), len(blocks) + starts.size)
            edges = (lo + starts).tolist() + [hi]
            blocks += [np.arange(a, b) for a, b in zip(edges, edges[1:])]
        expected = np.array_split(np.arange(n), min(100, n))
        assert len(blocks) == len(expected)
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))
        assert kept.tolist() == [n - e.size for e in expected]
        for a in [kept] + [starts for _, _, starts, _ in chunks]:
            assert not a.flags.writeable

    @pytest.mark.parametrize("n", SIZES)
    def test_moments_read_each_chunk_once(self, n):
        r = np.random.default_rng(n).uniform(-1.0, 1.0, (3, n))
        spans = []

        def rows(chunk):
            spans.append(chunk.shape[1])
            return chunk.copy()

        mean, _, loo, count = oracle._moments(r, rows)
        chunks, _ = oracle._jackknife_blocks(n, oracle._CHUNK)
        assert spans == [hi - lo for lo, hi, _, _ in chunks]
        assert count == n and loo.shape == (3, min(100, n))
        assert np.max(np.abs(mean - np.mean(r, axis=1))) <= 1e-15


class TestNonFiniteStates:
    """A NaN or an infinity in any row of r makes every Monte Carlo
    estimator raise DomainError before NumPy warns, in the first chunk or
    in a later one."""

    OPS = (diag_op(0.5), MeasurementOperator(su2_matrix(Su2Params(0.3, -1.1, 0.7, 2.0))
                                             @ np.diag([0.9, 0.35])))

    @pytest.mark.parametrize("chunk", [oracle._CHUNK, 16])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected(self, monkeypatch, chunk, value):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        n = 57
        for row in range(3):
            for column in (0, n - 1):
                r = np.array(bloch(8, n))
                r[row, column] = value
                for op in self.OPS:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        for estimator in (estimate_information, estimate_fidelity,
                                          estimate_reversibility):
                            with pytest.raises(DomainError, match="finite"):
                                estimator(op, r.view(oracle.Batch))


def block_jackknife(data, totals, fn, blocks=100):
    """Leave-one-block-out standard error of fn over the row means of data
    (whose row sums are totals), from np.add.reduceat block sums over the
    blocks of np.array_split."""
    n = data.shape[1]
    split = np.array_split(np.arange(n), min(blocks, n))
    starts, kept = [b[0] for b in split], n - np.array([b.size for b in split])
    estimates = fn(*((totals[:, None] - np.add.reduceat(data, starts, axis=1)) / kept))
    estimates -= np.add.reduce(estimates) / len(split)
    return math.sqrt((len(split) - 1) / len(split) * float(np.add.reduce(estimates * estimates)))


def allocating_estimates(op, r):
    """The three Monte Carlo estimates with every temporary of the plain
    NumPy expressions, per sample: the integrands as whole-array sums, and
    the covariance from a centered copy of the data."""
    a, c, b = _gram(op.matrix)
    k2 = op.kappa * op.kappa
    y = 0.5 * (a + c) / k2 + np.array([b.real, -b.imag, 0.5 * (a - c)]) / k2 @ r
    lam = op.lam
    lam2 = lam * lam
    q = 0.5 * ((1.0 + lam2) + r[2] * (1.0 - lam2))

    def ratio(columns, fn, grad):
        data = np.array(columns)
        n = data.shape[1]
        totals = np.add.reduce(data, axis=1)
        mean = totals / n
        means = mean.tolist()
        g = np.array(grad(*means))
        x = data - mean[:, None]
        cov = np.dot(x, x.T)
        cov *= np.true_divide(1, n - 1)
        var = float(g @ cov @ g) / n
        return oracle.Estimate(float(fn(*means)), math.sqrt(max(var, 0.0)), n, "monte-carlo",
                               block_jackknife(data, totals, fn))

    return (
        ratio((y, np.where(y > 0.0, y * np.log2(np.maximum(y, 1e-300)), 0.0)),
              lambda ym, zm: zm / ym - np.log2(ym),
              lambda ym, zm: (-zm / ym**2 - 1.0 / (ym * math.log(2.0)), 1.0 / ym)),
        ratio((q, fidelity_weight(op, r)), lambda ym, zm: zm / ym,
              lambda ym, zm: (-zm / ym**2, 1.0 / ym)),
        ratio((y,), lambda ym: lam2 / ym, lambda ym: (-lam2 / ym**2,)),
    )


class TestInPlaceArithmetic:
    """The information integrand's rows (q, q log2 q) are written into one
    buffer, q log2 q in place from the q beside it, by the one builder that
    both information oracles call; up to ``_CHUNK`` states every bit of its
    Estimate stays that of the plain expressions. Fidelity and reversibility
    come from the batch's moments instead: their values agree with the
    per-sample ones to 1e-15 relative, and their standard errors to 1e-9,
    the nearer to the exact one (TestBatchMoments)."""

    def test_xlog2x_matches_where_form(self):
        q = np.concatenate((np.random.default_rng(3).uniform(-0.5, 1.5, 1000),
                            [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1.0, np.inf, -np.inf, np.nan]))
        expected = np.where(q > 0.0, q * np.log2(np.maximum(q, 1e-300)), 0.0)
        x = np.empty((2, q.size))
        x[0] = q
        assert oracle._information_rows(x) is x
        assert x[0].tobytes() == q.tobytes() and x[1].tobytes() == expected.tobytes()

    @staticmethod
    def cases(n):
        """n states, and the operators to estimate on them."""
        rng = np.random.default_rng(n)
        ops = list(TestPauliIntegrands.operators(rng, 3 if n > 10_000 else 24))
        ops += [diag_op(lam, kappa) for lam, kappa in
                zip(rng.uniform(0.01, 1.0, 3), (1.0, 0.7, 0.3))]
        return bloch(n + 1, n), ops + [diag_op(1e-9), diag_op(1.0)]

    @staticmethod
    def assert_information_close(op, got, want, c=1.0):
        """Within 1e-14 relative on the value, 1e-13 on std_error and 1e-11
        on the jackknife, each bound times c."""
        for key, rel in (("value", 1e-14), ("std_error", 1e-13), ("std_error_jackknife", 1e-11)):
            g, w = getattr(got, key), getattr(want, key)
            assert abs(g - w) <= rel * c * abs(w), (op.lam, key, g, w, c)

    @pytest.mark.parametrize("n", [57, 2000, 2001, 200_000])
    def test_estimates_match_allocating_form(self, n):
        """Information bit for bit while its moments take one chunk, up to
        ``_CHUNK`` states; above that, within ``assert_information_close``."""
        r, ops = self.cases(n)
        for op in ops:
            info, fid, rev = allocating_estimates(op, r)
            if n <= oracle._CHUNK:
                assert estimate_information(op, r) == info
            else:
                self.assert_information_close(op, estimate_information(op, r), info)
            for got, want in ((estimate_fidelity(op, r), fid), (estimate_reversibility(op, r), rev)):
                assert (got.samples, got.method) == (want.samples, want.method)
                assert abs(got.value - want.value) <= 1e-15 * abs(want.value)
                assert got.std_error == pytest.approx(want.std_error, rel=1e-9)
                assert got.std_error_jackknife == pytest.approx(want.std_error_jackknife, rel=1e-9)

    @pytest.mark.parametrize("n", [57, 2000, 2001])
    def test_information_over_merged_chunks(self, n, monkeypatch):
        """The moments merged over one chunk per jackknife block (``_CHUNK``
        patched to 16), with the bounds times the value's condition number
        c = max(1, |log2 ybar| / value): the value is zbar / ybar - log2 ybar,
        so where an outcome gains little information (lam near 1) a last-bit
        difference in either side's means comes out c times larger."""
        monkeypatch.setattr(oracle, "_CHUNK", 16)
        r, ops = self.cases(n)
        for op in ops:
            got, (want, _, _) = estimate_information(op, r), allocating_estimates(op, r)
            ybar = float(np.mean(outcome_q(op, r)))
            c = max(1.0, abs(math.log2(ybar) / want.value)) if want.value else 1.0
            self.assert_information_close(op, got, want, c)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("lam", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_information(self, lam):
        err = abs(quadrature_information(diag_op(lam)).value - analytics.information_gain(lam))
        assert err < 1e-10

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.95])
    def test_fidelity(self, lam):
        op = diag_op(lam)
        err = abs(quadrature_fidelity(op).value - analytics.fidelity_of_operator(op))
        assert err < 1e-10

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.95])
    def test_reversibility(self, lam):
        err = abs(quadrature_reversibility(diag_op(lam)).value - analytics.reversibility(lam))
        assert err < 1e-10

    def test_rotations_do_not_move_quadrature(self):
        from qmtradeoff.linalg import Su2Params, su2_matrix

        rng = np.random.default_rng(106)
        base = 0.8 * np.diag([1.0, 0.45])
        ref_i = analytics.information_gain(0.45)
        ref_r = analytics.reversibility(0.45)
        for _ in range(5):
            w = su2_matrix(Su2Params(*rng.uniform(-np.pi, np.pi, 4)))
            for m in (w @ base, base @ w):
                op = MeasurementOperator(m)
                assert abs(quadrature_information(op).value - ref_i) < 1e-10
                assert abs(quadrature_reversibility(op).value - ref_r) < 1e-10

    def test_wrong_gram_fails_the_information_checks(self, monkeypatch):
        """Negative control: both information oracles read q from the raw
        operator's Gram matrix, so twice its off-diagonal entry makes the
        quadrature miss the closed form by more than verify's 1e-8 (by 0.33
        here), and the Monte Carlo estimate by more than 4 sigma (20 sigma)."""
        rng = np.random.default_rng(1)
        u, v = (su2_matrix(Su2Params(*rng.uniform(-np.pi, np.pi, 4))) for _ in range(2))
        op = MeasurementOperator(u @ np.diag([0.9, 0.35]) @ v)
        reference = analytics.information_gain(op.lam)
        r = bloch(1, 2000)
        assert abs(quadrature_information(op).value - reference) < 1e-12
        est = estimate_information(op, r)
        assert abs(est.value - reference) <= 4.0 * est.std_error

        def doubled(m):
            a, c, b = _gram(m)
            return a, c, 2.0 * b

        monkeypatch.setattr(oracle, "_gram", doubled)
        assert abs(quadrature_information(op).value - reference) > 1e-8
        est = estimate_information(op, r)
        assert abs(est.value - reference) > 4.0 * est.std_error

    def test_graded_rule_below_cutoff(self):
        """The zero of q sits within ~2 lam^2 of u = -1; the graded rule must
        meet the closed form to 1e-12 on all of [0, 1], across the depth
        floor and where the single rule once took over (lam = 0.05)."""
        floor = 2.0**-26.5  # 1 + lam^2 rounds to 1 below: the depth stops growing
        grid = np.concatenate((
            [0.0, 1e-300, 1e-12, 1e-9, np.nextafter(floor, 0.0), floor,
             np.nextafter(floor, 1.0), 1e-7, 9.99e-7],
            np.geomspace(1e-6, 0.05, 60, endpoint=False),
            np.arange(1, 15) * 1e-3,
            [0.015, 0.019, 0.0499999, 0.05, 0.06, 0.08, 0.12, 0.2],
        ))
        for lam in grid:
            est = quadrature_information(diag_op(lam))
            assert abs(est.value - analytics.information_gain(lam)) < 1e-12, lam

    @pytest.mark.parametrize("lam", [0.0, 1e-300])
    def test_vanishing_q_raises_no_warning(self, lam):
        """At lam = 0 (and wherever lam^2 underflows) q is exactly 0 at the
        nodes nearest u = -1; q log2 q must be taken as 0 there, not as
        0 * log2(0)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quadrature_information(diag_op(lam))

    def test_small_lambda_maps_to_limit(self):
        assert quadrature_information(diag_op(0.0)).value == pytest.approx(
            analytics.INFO_AT_ZERO, abs=1e-14
        )

    def test_hadamard_rotation_matches_angle_form(self):
        """Tensor-rule fidelity for a rotated operator against the explicit
        two-angle expression, with the angles read back from the computed
        factorization."""
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        op = MeasurementOperator(h @ np.diag([1.0, 0.5]))
        angles = su2_params(op.canonical.u)
        ref = analytics.fidelity_closed(0.5, angles.beta, angles.gamma)
        assert abs(quadrature_fidelity(op).value - ref) < 1e-8

    def test_singular_operator_rejected(self):
        with pytest.raises(IrreversibleError):
            quadrature_reversibility(diag_op(0.0))

    def test_metadata(self):
        est = quadrature_information(diag_op(0.5))
        assert est.method == "quadrature"
        assert est.std_error == 0.0

    @pytest.mark.parametrize(
        "lam, subintervals",
        [(1.0, 1), (0.5, 2), (0.05, 4), (1e-3, 8), (2.0**-26.5, 19), (1e-12, 19), (0.0, 19)],
    )
    def test_samples_count_every_node(self, lam, subintervals):
        """The graded rule has ceil(log_8(1 / lam^2)) + 1 subintervals, at
        most 19: the depth stops where 1 + lam^2 rounds to 1."""
        assert quadrature_information(diag_op(lam)).samples == 64 * subintervals


class TestMomentForm:
    """The fidelity and reversibility quadratures take the sphere's exact
    moments. They must equal the explicit sums over the points of a tensor
    rule that is exact for their degree-2 integrands, and a wrong integrand
    must not slip through."""

    OP = MeasurementOperator(
        su2_matrix(Su2Params(0.3, -1.1, 0.7, 2.0)) @ np.diag([0.9, 0.35])
    )

    @staticmethod
    def explicit(op, u, w):
        """Fidelity as the grid sum of |<psi| u D |psi>|^2 over the rule's
        states, written with their amplitudes, and reversibility from the
        line sum of q, over the rule with nodes u and weights w."""
        nodes = u.size
        phi = np.arange(2 * nodes) * (2.0 * math.pi / (2 * nodes))
        a0 = np.sqrt(0.5 * (1.0 + u))[:, None]
        a1 = np.sqrt(0.5 * (1.0 - u))[:, None] * np.exp(1j * phi)
        core = op.canonical.u * np.array([1.0, op.lam])
        amp = a0 * (core[0, 0] * a0 + core[0, 1] * a1) + a1.conj() * (
            core[1, 0] * a0 + core[1, 1] * a1
        )
        zbar = 0.5 * np.sum(w * np.mean(np.abs(amp) ** 2, axis=1))
        lam2 = op.lam**2
        qbar = 0.5 * np.sum(w * 0.5 * ((1.0 + lam2) + u * (1.0 - lam2)))
        return zbar / qbar, lam2 / qbar

    @pytest.mark.parametrize("nodes", [NODES])
    def test_matches_explicit_sums(self, nodes):
        u, w = leggauss(nodes)
        rng = np.random.default_rng(nodes)
        worst = 0.0
        for op in TestPauliIntegrands.operators(rng, 200):
            fid, rev = self.explicit(op, u, w)
            got_fid = quadrature_fidelity(op)
            got_rev = quadrature_reversibility(op)
            assert got_fid.samples == got_rev.samples == 6
            worst = max(worst, abs(got_fid.value - fid) / fid, abs(got_rev.value - rev) / rev)
        assert worst <= 1e-14

    def test_moments_are_symmetric_scalars(self):
        """The sphere's mean of x is the upper triangle of the symmetric second
        moment matrix of (1, r), summed here point by point over a tensor rule
        that is exact for it: ten read-only floats."""
        u, w = leggauss(NODES)
        phi = np.arange(2 * NODES) * (math.pi / NODES)
        s = np.sqrt((1.0 - u) * (1.0 + u))[:, None]
        x = np.stack(np.broadcast_arrays(1.0, s * np.cos(phi), s * np.sin(phi), u[:, None]))
        x = x.astype(np.longdouble)  # a point sum in double would be off by ~1e-14
        m = np.einsum("iab,jab,a->ij", x, x, 0.5 * w) / (2 * NODES)
        assert np.max(np.abs(m - m.T)) <= 1e-18
        got = _SPHERE_MEAN
        assert got.shape == (10,) and got.dtype == np.float64 and not got.flags.writeable
        assert np.max(np.abs(got - m[np.triu_indices(4)])) <= 1e-15

    @staticmethod
    def flipped_trace(op):
        """b0 from tr(u D sigma_z) instead of tr(u D): a sign slip in the trace."""
        b0, (b1, b2, b3) = _amplitude_pauli(op)
        return b3, (b1, b2, b0)

    @staticmethod
    def right_factor(op):
        """The right unitary factor v in place of the left one, u."""
        (v00, v01), (v10, v11) = op.canonical.v.tolist()
        return oracle._pauli(((v00, v01 * op.lam), (v10, v11 * op.lam)))

    @staticmethod
    def squared_core(op):
        """D = diag(1, lam^2) instead of diag(1, lam)."""
        (u00, u01), (u10, u11) = op.canonical.u.tolist()
        return oracle._pauli(((u00, u01 * op.lam**2), (u10, u11 * op.lam**2)))

    @pytest.mark.parametrize("wrong", ["flipped_trace", "right_factor", "squared_core"])
    def test_wrong_integrand_fails_the_tolerance(self, monkeypatch, wrong):
        """Negative control: with a wrong integrand the fidelity quadrature
        misses the closed form by more than verify's 1e-8. (The sphere
        average of |b0 + b . r|^2 is |b0|^2 + |b|^2 / 3, so slips that keep
        those moduli, such as conj(b) for b or diag(lam, 1) for D with u
        in SU(2) up to a phase, cannot be seen by any exact average.)"""
        reference = analytics.fidelity_of_operator(self.OP)
        assert abs(quadrature_fidelity(self.OP).value - reference) < 1e-12
        monkeypatch.setattr(oracle, "_amplitude_pauli", getattr(self, wrong))
        assert abs(quadrature_fidelity(self.OP).value - reference) > 1e-8

    @pytest.mark.parametrize("wrong", ["flipped_trace", "right_factor", "squared_core"])
    def test_wrong_integrand_fails_the_monte_carlo_gate(self, monkeypatch, wrong):
        """Power: the Monte Carlo fidelity with a wrong integrand misses the
        closed form by more than verify's 4 sigma, at the 2000 samples of the
        dense verify. The slips move the fidelity by -0.26, -0.13 and -0.14,
        which is 62, 20 and 23 sigma on this batch."""
        r = bloch(1, 2000)
        reference = analytics.fidelity_of_operator(self.OP)
        est = estimate_fidelity(self.OP, r)
        assert abs(est.value - reference) <= 4.0 * est.std_error
        monkeypatch.setattr(oracle, "_amplitude_pauli", getattr(self, wrong))
        est = estimate_fidelity(self.OP, r)
        assert abs(est.value - reference) > 4.0 * est.std_error


class TestNodeCache:
    """The graded Gauss-Legendre rules are built once and shared, and only
    the information quadrature builds one."""

    OP = TestMomentForm.OP

    def reference(self):
        """All three quadratures from a freshly built rule, through the same
        formulas as the cached path: line sums for information, and
        coef @ mean of x, the sphere's exact moments, for fidelity and
        reversibility."""
        u, w = leggauss(NODES)
        lam = self.OP.lam
        # The information rule is graded to depth ceil(log_8(1 / lam^2)) = 1
        # at lam = 0.35 / 0.9: one breakpoint, at -1 + 2 / 8.
        edges = np.array([-1.0, -1.0 + 2.0 / 8.0, 1.0])
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        gu, gw = (mid + half * u).ravel(), (half * w).ravel()
        g0, g1, g2, g3 = _q_coef(self.OP)[:4].tolist()
        q = g0 + math.hypot(g1, g2, g3) * gu
        qbar = 0.5 * float(np.sum(gw * q))
        qlog = 0.5 * float(np.sum(gw * (q * np.log2(q))))
        mean = np.array([1.0, 0.0, 0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 3.0])
        fbar, zbar = (_fidelity_coef(self.OP) @ mean).tolist()
        mbar = float(_q_coef(self.OP) @ mean)
        return qlog / qbar - math.log2(qbar), zbar / fbar, lam * lam / mbar

    def test_quadratures_match_fresh_rule(self):
        for _ in range(2):  # the first pass may build the cache, the second reads it
            got = tuple(
                quadrature(self.OP).value
                for quadrature in (
                    quadrature_information, quadrature_fidelity, quadrature_reversibility
                )
            )
            assert got == self.reference()

    def test_rule_is_built_lazily_at_nodes(self):
        """In a fresh process, importing the package calls no leggauss, and
        the quadratures call it only as leggauss(64), from inside the
        information quadrature: a rule built at import would add to every
        start-up, and the polynomial quadratures need none; they read the
        octahedron's read-only point mean."""
        script = """
import json, sys
import numpy as np
import numpy.polynomial.legendre as legendre
calls, real = [], legendre.leggauss
def traced(deg):
    names = set()
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_filename.endswith("oracle.py"):
            names.add(frame.f_code.co_name)
        frame = frame.f_back
    calls.append([deg, sorted(n for n in names if n.startswith("quadrature_"))])
    return real(deg)
legendre.leggauss = traced
import qmtradeoff
from qmtradeoff import oracle
calls.append("imported")
for lam in (0.0, 1e-9, 0.01, 0.35, 1.0):
    op = qmtradeoff.MeasurementOperator(np.diag([1.0, lam]))
    oracle.quadrature_information(op)
    oracle.quadrature_fidelity(op)
    if lam > 0.0:
        oracle.quadrature_reversibility(op)
print(json.dumps(calls))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        assert calls[0] == "imported"
        assert len(calls) > 1
        for deg, quadratures in calls[1:]:
            assert deg == 64
            assert quadratures == ["quadrature_information"]
        # What the polynomial quadratures read instead: the mean of x over the
        # six points +-e_k, written out (each r_k^2 is 1 at two of them).
        points = np.hstack((np.eye(3), -np.eye(3)))
        x = [np.ones(6)] + list(points)
        x += [points[i] * points[j] for i in range(3) for j in range(i, 3)]
        assert _SPHERE_MEAN.tolist() == np.mean(x, axis=1).tolist()
        assert _SPHERE_MEAN.tolist() == [1.0, 0.0, 0.0, 0.0, 1 / 3, 0.0, 0.0, 1 / 3, 0.0, 1 / 3]
        with pytest.raises(ValueError):
            _SPHERE_MEAN[4] = 0.0

    def test_cached_rule_is_read_only(self):
        for a in _gauss_legendre(0) + _gauss_legendre(3):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
