"""Factorization, parameterization, and serialization of 2x2 operators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmtradeoff
from qmtradeoff import linalg
from qmtradeoff.errors import (
    FormatError,
    InvalidStrengthError,
    NotUnitaryError,
    ZeroOperatorError,
)
from qmtradeoff.linalg import (
    DEGENERACY_TOL,
    GAUGE_TIE_TOL,
    ZERO_OPERATOR_TOL,
    Su2Params,
    matrix_from_json,
    matrix_to_json,
    su2_matrix,
    su2_params,
    svd2,
)
from qmtradeoff.measurement import MeasurementOperator, MeasurementSet

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
#: A unitary whose entries all have modulus 1/sqrt(2), with a complex phase.
HADAMARD_COLUMNS = np.array([[0.6 + 0.8j, 1.0], [1.0, -0.6 + 0.8j]]) / np.sqrt(2.0)


def random_matrix(rng, scale=1.0):
    re = rng.normal(size=(2, 2))
    im = rng.normal(size=(2, 2))
    return scale * (re + 1j * im)


def recompose(r):
    """kappa * u @ diag(1, lam) @ v of a factorization."""
    return r.kappa * r.u @ np.diag([1.0, r.lam]) @ r.v


class TestSvd2:
    def test_diagonal_passthrough(self):
        r = svd2(np.diag([1.0, 0.5]))
        assert r.kappa == pytest.approx(1.0, abs=1e-15)
        assert r.lam == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(r.u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(r.v, np.eye(2), atol=1e-15)

    def test_scaled_flip_is_degenerate(self):
        """0.5*X has equal singular values; the factorization must still work."""
        r = svd2(0.5 * X)
        assert r.kappa == pytest.approx(0.5, abs=1e-15)
        assert r.lam == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(recompose(r), 0.5 * X, atol=1e-14)

    def test_rank_one(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        r = svd2(m)
        assert r.kappa == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert r.lam == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(recompose(r), m, atol=1e-14)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroOperatorError):
            svd2(np.zeros((2, 2)))

    def test_random_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1234)
        eye = np.eye(2)
        for _ in range(100):
            m = random_matrix(rng)
            r = svd2(m)
            scale = max(np.abs(m).max(), 1.0)
            np.testing.assert_allclose(recompose(r), m, atol=1e-12 * scale)
            np.testing.assert_allclose(r.u.conj().T @ r.u, eye, atol=1e-12)
            np.testing.assert_allclose(r.v.conj().T @ r.v, eye, atol=1e-12)
            assert 0.0 <= r.lam <= 1.0 + 1e-15

    def test_singular_values_recover_det_and_trace(self):
        """sigma1*sigma2 = |det m| and sigma1^2 + sigma2^2 = tr(m^dagger m)."""
        rng = np.random.default_rng(88)
        for _ in range(100):
            m = random_matrix(rng)
            r = svd2(m)
            s1, s2 = r.kappa, r.kappa * r.lam
            assert s1 * s2 == pytest.approx(abs(np.linalg.det(m)), rel=1e-10, abs=1e-12)
            assert s1 * s1 + s2 * s2 == pytest.approx(
                np.trace(m.conj().T @ m).real, rel=1e-10
            )

    def test_singular_values_match_lapack(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = random_matrix(rng)
            r = svd2(m)
            ref = np.linalg.svd(m, compute_uv=False)
            assert r.kappa == pytest.approx(ref[0], rel=1e-12)
            assert r.kappa * r.lam == pytest.approx(ref[1], abs=1e-12 * ref[0])

    def test_left_factor_ignores_right_rotations(self):
        """The left unitary must depend only on m @ m^dagger, so multiplying
        by a unitary on the right cannot change it."""
        rng = np.random.default_rng(4321)
        for _ in range(25):
            m = random_matrix(rng)
            w = su2_matrix(
                Su2Params(
                    alpha=rng.uniform(-np.pi, np.pi),
                    beta=rng.uniform(-np.pi, np.pi),
                    gamma=rng.uniform(0.0, np.pi / 2),
                    delta=rng.uniform(-np.pi, np.pi),
                )
            )
            a, b = svd2(m), svd2(m @ w)
            if a.lam > 1e-6 and 1.0 - a.lam > 1e-6:  # gauge unique away from ties
                np.testing.assert_allclose(a.u, b.u, atol=1e-10)

    @pytest.mark.parametrize("c", [3.0, 5.0, 0.1, 1e100])
    @pytest.mark.parametrize(
        "m",
        [np.array([[1j, 0.5], [0.5, 1.0]]), HADAMARD_COLUMNS @ np.diag([0.9, 0.3])],
        ids=["tie", "hadamard-columns"],
    )
    def test_gauge_ignores_rounding_of_a_modulus_tie(self, m, c):
        """Columns of u whose two entries tie in modulus keep their gauge
        when c m rounds the tie apart."""
        r, s = svd2(m), svd2(c * m)
        np.testing.assert_allclose(s.u, r.u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(s.v, r.v, rtol=1e-12, atol=1e-12)

    def test_huge_entries_keep_finite_factors(self):
        r = svd2(1e200 * np.diag([1.0, 0.5]))
        assert r.kappa == pytest.approx(1e200, rel=1e-15)
        assert r.lam == pytest.approx(0.5, rel=1e-15)

    def test_overflowing_scale_rejected(self):
        with pytest.raises(FormatError):
            svd2(1.5e308 * np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_tiny_lambda_stays_accurate(self):
        m = np.diag([1.0, 1e-12]).astype(complex)
        r = svd2(m)
        assert r.lam == pytest.approx(1e-12, rel=1e-6)
        np.testing.assert_allclose(r.u.conj().T @ r.u, np.eye(2), atol=1e-13)

    @pytest.mark.parametrize("m", [
        np.array([[0.3 + 0.4j, -0.2], [0.1j, 0.5 - 0.1j]]),  # the general branch
        np.diag([0.7, 0.7]),  # degenerate: v = I
    ])
    def test_factors_are_read_only(self, m):
        """Writing into a canonical factor raises and leaves it as it was. A
        writable u would let ``op.canonical.u[:] = X`` move the fidelity of
        diag(1, 0.5) from 0.93333 to 0.33333 while lam stays 0.5, and
        leave the oracle's cached rows stale against it."""
        canon = MeasurementOperator(m).canonical
        for factor in (canon.u, canon.v):
            before = factor.copy()
            with pytest.raises(ValueError):
                factor[:] = [[0.0, 1.0], [1.0, 0.0]]
            with pytest.raises(ValueError):
                factor[0, 0] = 2.0
            assert factor.tobytes() == before.tobytes()


class TestFloatRangeEdges:
    """Entries at the edges of the float range. svd2 rejects an operator
    whose largest entry modulus is below ZERO_OPERATOR_TOL / 2 before it
    scales the entries by 2^-e (sigma1 <= 2 max |m_ij|), so that scale is a
    finite power of two, from 2^-1024 to 2^47. Each other case pins its
    exception, or the bits of kappa, lam, u and v, signed zeros included."""

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_subnormal_entries_are_zero(self, tiny):
        for m in (np.full((2, 2), tiny), [[tiny, 0.0], [0.0, 0.0]],
                  [[0.0, 1j * tiny], [tiny, 0.0]]):
            for fn in (svd2, MeasurementOperator):
                with pytest.raises(ZeroOperatorError, match="^operator is numerically zero$"):
                    fn(m)

    @pytest.mark.parametrize("big, zero", [
        (0.49 * ZERO_OPERATOR_TOL, True),  # below the early test
        (0.5 * ZERO_OPERATOR_TOL, True),  # kappa = 5e-15: caught after the factorization
        (0.99 * ZERO_OPERATOR_TOL, True),
        (ZERO_OPERATOR_TOL, False),
    ])
    def test_zero_threshold(self, big, zero):
        m = [[big, 0.0], [0.0, 0.3 * big]]
        if zero:
            with pytest.raises(ZeroOperatorError, match="^operator is numerically zero$"):
                svd2(m)
        else:
            assert svd2(m).kappa == big

    @pytest.mark.parametrize("huge", [1e300, 1.7e308])
    def test_huge_entries_exceed_the_norm(self, huge):
        for m in ([[huge, 0.0], [0.0, 0.5]], [[0.0, huge], [0.5j, 0.0]]):
            with pytest.raises(InvalidStrengthError, match="exceeds 1$"):
                MeasurementOperator(m)
        with pytest.raises(InvalidStrengthError, match="exceeds 1$"):
            MeasurementOperator(np.full((2, 2), 1e300))
        with pytest.raises(FormatError, match="^largest singular value exceeds the float range$"):
            MeasurementOperator(np.full((2, 2), 1.7e308))

    @pytest.mark.parametrize("m", [
        [[1.7e308 + 1.7e308j, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1e-300, -1.3e308 + 1.3e308j]],
        [[1e308, 1.7e308 - 1.7e308j], [0.5, 0.25j]],
    ])
    def test_entry_modulus_overflow_rejected(self, m):
        """An entry whose modulus overflows, although both its parts are
        finite, means sigma1 >= |m_ij| exceeds the float range: the
        FormatError that _kappa raises for a sigma1 that overflows, not
        Python's OverflowError from abs."""
        for fn in (svd2, MeasurementOperator):
            with pytest.raises(FormatError, match="^largest singular value exceeds the float"):
                fn(m)

    @staticmethod
    def assert_bits(r, kappa, lam, u, v):
        assert (r.kappa.hex(), r.lam.hex()) == (kappa, lam)
        for got, want in ((r.u, u), (r.v, v)):
            assert got.tobytes() == np.array([complex(*z) for z in want]).tobytes()

    def test_subnormal_entry_beside_normal_ones(self):
        self.assert_bits(
            svd2([[0.9, 0.0], [1e-320, 0.3]]), "0x1.ccccccccccccdp-1", "0x1.5555555555555p-2",
            [(1.0, 0.0), (-1.25e-320, 0.0), (1.25e-320, 0.0), (1.0, 0.0)],
            [(1.0, 0.0), (4.165e-321, 0.0), (-4.165e-321, 0.0), (1.0, 0.0)],
        )

    def test_largest_entries_scale_to_subnormals(self):
        """2^-1024 scales 1.7e308 to 0.94 and 0.5 to a subnormal; lam keeps
        the bits that a subnormal sigma2 has."""
        self.assert_bits(
            svd2([[1.7e308, 0.0], [0.0, 0.5]]), "0x1.e42d130773b76p+1023",
            "0x0.21d6c4171083ep-1022",
            [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
            [(1.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (1.0, 0.0)],
        )

    def test_scale_keeps_signed_zeros(self):
        """Each part is scaled on its own, complex(x.real * s, x.imag * s),
        with ldexp's bits; the complex product x * s would turn the -0.0 of
        (-0.0, -0.0) into +0.0 and move a zero of v."""
        self.assert_bits(
            svd2([[0.7, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.2]]),
            "0x1.6666666666666p-1", "0x1.2492492492493p-2",
            [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
            [(1.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (1.0, 0.0)],
        )
        self.assert_bits(
            svd2([[1e-300j, 0.0], [0.0, 1e-14]]), "0x1.6849b86a12b9bp-47",
            "0x1.e74404f3daadbp-951",
            [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (-0.0, 0.0)],
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -0.0)],
        )


def svd2_reference(m):
    """The NumPy formulation of :func:`svd2`: the same algorithm and guards
    on 2x2 ndarrays, with ``@``, ``np.linalg.norm``, ``column_stack`` and
    ``vstack`` in place of scalar arithmetic. Returns (kappa, lam, u, v)."""
    m = np.array(m, dtype=complex)
    e = math.frexp(max(map(abs, m.flat)))[1]
    m = np.ldexp(m.view(float), -e).view(complex)
    h = m.conj().T @ m
    a, c, b = h[0, 0].real, h[1, 1].real, h[0, 1]
    disc = math.hypot(0.5 * (a - c), abs(b))
    eig1 = 0.5 * (a + c) + disc
    w1 = np.array([b, eig1 - a])
    w2 = np.array([eig1 - c, np.conj(b)])
    n1, n2 = float(np.linalg.norm(w1)), float(np.linalg.norm(w2))
    if max(n1, n2) <= DEGENERACY_TOL * (a + c):
        sigma1 = float(np.linalg.norm(m[:, 0]))
        sigma2 = float(np.linalg.norm(m[:, 1]))
        return math.ldexp(sigma1, e), min(sigma2 / sigma1, 1.0), m / sigma1, np.eye(2)

    def perp(vec):
        return np.array([-np.conj(vec[1]), np.conj(vec[0])])

    v1 = w1 / n1 if n1 >= n2 else w2 / n2
    v2 = perp(v1)
    mv1, mv2 = m @ v1, m @ v2
    sigma1, sigma2 = float(np.linalg.norm(mv1)), float(np.linalg.norm(mv2))
    u1 = mv1 / sigma1
    u2 = perp(u1)
    z = complex(u2.conj() @ mv2)
    if abs(z) > 0.0:
        u2 = u2 * (z / abs(z))
    u = np.column_stack([u1, u2])
    v = np.vstack([v1.conj(), v2.conj()])
    for i in range(2):
        j = int(abs(u[1, i]) > abs(u[0, i]) * (1.0 + GAUGE_TIE_TOL))
        phase = u[j, i] / abs(u[j, i])
        u[:, i] *= np.conj(phase)
        v[i, :] *= phase
    return math.ldexp(sigma1, e), min(sigma2 / sigma1, 1.0), u, v


def su2_params_reference(u):
    """The NumPy formulation of :func:`su2_params` (``np.linalg.det`` and
    array arithmetic), with the same pin of alpha to +pi/2 on the negative
    real axis."""
    u = np.array(u, dtype=complex)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-10
    det = np.linalg.det(u)
    if det.real < 0.0 and abs(det.imag) <= GAUGE_TIE_TOL * abs(det):
        alpha = 0.5 * np.pi
    else:
        alpha = 0.5 * math.atan2(det.imag, det.real)
    w = u * np.exp(-1j * alpha)
    za = 0.5 * (w[0, 0] + np.conj(w[1, 1]))
    zb = 0.5 * (w[1, 0] - np.conj(w[0, 1]))
    gamma = math.atan2(abs(zb), abs(za))
    beta = math.atan2(za.imag, za.real) if abs(za) > 1e-15 else 0.0
    delta = -math.atan2(zb.imag, zb.real) if abs(zb) > 1e-15 else 0.0
    return Su2Params(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def haar_unitary(rng):
    q, r = np.linalg.qr(random_matrix(rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_inputs(kind, rng):
    """Ten 2x2 matrices of one kind for the kernel-versus-reference tests."""
    out = []
    for _ in range(10):
        w, x = haar_unitary(rng), haar_unitary(rng)
        if kind == "haar":
            m = w @ np.diag([1.0, rng.uniform(0.0, 1.0)]) @ x
        elif kind == "gaussian":
            m = random_matrix(rng)
        elif kind == "rank-one":
            m = np.outer(w[:, 0], x[0, :].conj())
        elif kind == "near-degenerate":
            m = w @ np.diag([1.0, 1.0 - 1e-13]) @ x
        elif kind == "degenerate":
            m = rng.uniform(0.1, 10.0) * w
        elif kind == "power-of-two":
            m = 2.0 ** rng.integers(-40, 900) * random_matrix(rng)
        elif kind == "1e+150":
            m = 1e150 * random_matrix(rng)
        elif kind == "1e-150":  # numerically zero: both must reject it
            m = 1e-150 * random_matrix(rng)
        else:  # the benchmark's operator recipe: an outcome and its partner
            g = random_matrix(rng)
            m = g / np.linalg.norm(g, 2) * rng.uniform(0.2, 1.0)
            evals, vecs = np.linalg.eigh(np.eye(2) - m.conj().T @ m)
            out.append(w @ (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T)
        out.append(m)
    return out


def same_angle(a, b, tol):
    """a and b agree as angles, i.e. modulo 2 pi."""
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= tol


class TestScalarKernels:
    """svd2 and su2_params against their NumPy formulations. The scalar
    kernels round differently, so the bounds are set from the dtype:
    kappa to 1e-15 relative, lam to 1e-15 absolute, each angle to 1e-12,
    and the reconstruction to the 1e-12 every factorization must meet; u
    and v to 1e-12 where the singular values are 1e-4 apart and away from
    zero, as in test_svd2_power_of_two_scale_keeps_factors_property."""

    KINDS = ["haar", "gaussian", "rank-one", "near-degenerate", "degenerate",
             "power-of-two", "1e+150", "1e-150", "operators"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_svd2_matches_reference(self, kind):
        rng = np.random.default_rng(1000 + self.KINDS.index(kind))
        for m in reference_inputs(kind, rng):
            kappa, lam, u, v = svd2_reference(m)
            if kappa < ZERO_OPERATOR_TOL:
                with pytest.raises(ZeroOperatorError):
                    svd2(m)
                continue
            r = svd2(m)
            assert abs(r.kappa - kappa) <= 1e-15 * kappa
            assert abs(r.lam - lam) <= 1e-15
            if 1e-4 < lam < 1.0 - 1e-4:  # u and v move by about eps / gap
                np.testing.assert_allclose(r.u, u, rtol=0, atol=1e-12)
                np.testing.assert_allclose(r.v, v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(recompose(r), m, rtol=0, atol=1e-12 * np.abs(m).max())
            for f in (r.u, r.v):
                np.testing.assert_allclose(f.conj().T @ f, np.eye(2), rtol=0, atol=1e-12)
                assert f.dtype == complex and f.shape == (2, 2)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "1e-150"])
    def test_su2_params_matches_reference(self, kind):
        rng = np.random.default_rng(2000 + self.KINDS.index(kind))
        for m in reference_inputs(kind, rng):
            r = svd2(m)
            for w in (r.u, r.v @ r.u, svd2_reference(m)[2]):
                p, q = su2_params(w), su2_params_reference(w)
                assert abs(p.alpha - q.alpha) <= 1e-12
                assert abs(p.gamma - q.gamma) <= 1e-12
                assert same_angle(p.beta, q.beta, 1e-12)
                assert same_angle(p.delta, q.delta, 1e-12)
                np.testing.assert_allclose(su2_matrix(p), w, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("kind", ["haar", "gaussian", "operators"])
    def test_product_helpers_match_numpy(self, kind):
        """_apply and _gram against NumPy's @ and m.conj().T @ m, on
        matrices scaled to operator norm 1, so that every entry of a result
        is at most 1 in modulus and 1e-15 is about 4 ulps."""
        rng = np.random.default_rng(2500 + self.KINDS.index(kind))
        ms = [m / np.linalg.norm(m, 2) for m in reference_inputs(kind, rng)]
        for x, y in zip(ms, ms[1:] + ms[:1]):
            for col in y.T:
                np.testing.assert_allclose(
                    linalg._apply(x, *col.tolist()), x @ col, rtol=0, atol=1e-15
                )
            a, c, b = linalg._gram(x)
            assert type(a) is float and type(c) is float
            np.testing.assert_allclose(
                [[a, b], [b.conjugate(), c]], x.conj().T @ x, rtol=0, atol=1e-15
            )


class TestSu2:
    def test_identity(self):
        p = su2_params(np.eye(2))
        assert (p.alpha, p.beta, p.gamma, p.delta) == (0.0, 0.0, 0.0, 0.0)

    def test_bit_flip(self):
        p = su2_params(X)
        assert p.alpha == pytest.approx(np.pi / 2, abs=1e-14)
        assert p.beta == 0.0
        assert p.gamma == pytest.approx(np.pi / 2, abs=1e-14)
        assert p.delta == pytest.approx(np.pi / 2, abs=1e-14)

    def test_hadamard(self):
        p = su2_params(HADAMARD)
        assert p.alpha == pytest.approx(np.pi / 2, abs=1e-14)
        assert p.beta == pytest.approx(-np.pi / 2, abs=1e-14)
        assert p.gamma == pytest.approx(np.pi / 4, abs=1e-14)
        assert p.delta == pytest.approx(np.pi / 2, abs=1e-14)

    def test_round_trip_from_params(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            u = su2_matrix(
                Su2Params(
                    alpha=rng.uniform(-np.pi / 2, np.pi / 2),
                    beta=rng.uniform(-np.pi, np.pi),
                    gamma=rng.uniform(1e-3, np.pi / 2 - 1e-3),
                    delta=rng.uniform(-np.pi, np.pi),
                )
            )
            np.testing.assert_allclose(
                su2_matrix(su2_params(u)), u, atol=1e-12
            )

    def test_round_trip_from_random_unitary(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            q, _ = np.linalg.qr(random_matrix(rng))
            np.testing.assert_allclose(su2_matrix(su2_params(q)), q, atol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_alpha_pinned_on_negative_real_determinant(self, sign):
        """det = -1 up to a rounding-sized imaginary part of either sign
        gives alpha = +pi/2, not -pi/2 for one of the two."""
        u = X * np.exp(sign * 1e-17j)
        p = su2_params(u)
        assert p.alpha == np.pi / 2
        np.testing.assert_allclose(su2_matrix(p), u, rtol=0, atol=1e-12)

    def test_alpha_ignores_last_bit_of_input(self):
        """About half of all canonical left unitaries have det(u) on the
        negative real axis; changing the operator by an ulp must not move
        their alpha by pi."""
        rng = np.random.default_rng(57)
        for _ in range(200):
            m = random_matrix(rng)
            a = su2_params(svd2(m).u)
            b = su2_params(svd2(m * (1.0 + 2.0**-52)).u)
            assert abs(a.alpha - b.alpha) <= 1e-12
            assert -np.pi / 2 < a.alpha <= np.pi / 2

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            su2_params(np.diag([1.0, 0.5]))

    def test_matrix_is_unitary(self):
        u = su2_matrix(Su2Params(alpha=0.3, beta=-1.2, gamma=0.7, delta=2.5))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-15)


class TestAlgebraHelpers:
    def test_unitary_determinant_modulus(self):
        u = su2_matrix(Su2Params(alpha=1.1, beta=0.4, gamma=0.9, delta=-2.0))
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-14)

    def test_trace_of_gram_sums_squares(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            m = random_matrix(rng)
            a, c, _ = linalg._gram(m)
            assert a + c == pytest.approx(np.sum(np.abs(m) ** 2), rel=1e-13)


class TestEntries:
    """svd2 and su2_params read the four entries without copying the input,
    and keep the shape and finiteness errors of linalg._entries."""

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.ones(3), "expected a 2x2 matrix, got shape (3,)"),
            (np.ones((2, 3)), "expected a 2x2 matrix, got shape (2, 3)"),
            ([[1.0, 0.0]], "expected a 2x2 matrix, got shape (1, 2)"),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite"),
            (np.array([[1.0, 0.0], [complex(0.0, -np.inf), 1.0]]), "matrix entries must be finite"),
            # Ragged nestings, which NumPy refuses with a plain ValueError.
            ([[1, 2], [3]], "expected a 2x2 matrix, got a ragged sequence"),
            ([[1, 0], [0]], "expected a 2x2 matrix, got a ragged sequence"),
            ([[1, 2], [3, [4]]], "expected a 2x2 matrix, got a ragged sequence"),
        ],
    )
    def test_keep_input_errors(self, m, message):
        def one_outcome_set(m):
            return MeasurementSet(operators=(m,))

        for fn in (matrix_to_json, svd2, su2_params, MeasurementOperator, one_outcome_set):
            with pytest.raises(FormatError) as exc:
                fn(m)
            assert str(exc.value) == message, fn.__name__

    def test_operator_copies_its_input_once(self, monkeypatch):
        calls = []
        entries = linalg._entries

        def counting(m):
            calls.append(m)
            return entries(m)

        monkeypatch.setattr(linalg, "_entries", counting)
        for m in (HADAMARD_COLUMNS @ np.diag([0.9, 0.3]), np.eye(2), [[0.5, 0.0], [0.0, 0.2]]):
            calls.clear()
            MeasurementOperator(m)
            assert len(calls) == 1

    def test_strided_input(self):
        rng = np.random.default_rng(68)
        m = random_matrix(rng)
        for view in (m.T, np.hstack((m, m))[:, ::2], m.real):
            r, s = svd2(view), svd2(np.array(view, dtype=complex))
            assert (r.kappa, r.lam) == (s.kappa, s.lam)
            np.testing.assert_array_equal(r.u, s.u)
        w = svd2(m).u
        assert su2_params(w.T) == su2_params(np.array(w.T))


class TestJson:
    def test_round_trip(self):
        m = np.array([[1.0 + 2.0j, -0.5j], [0.25, -1.0 - 1.0j]])
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_payload_shape(self):
        payload = matrix_to_json(np.diag([1.0, 0.5]))
        assert payload == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            [[1, 2], [3, 4]],  # entries must be [re, im] pairs
            [[[1, 0], [0, 0]]],  # one row only
            [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
            [[[1, 0], ["x", 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [True, 0]], [[0, 0], [1, 0]]],
            "nope",
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(FormatError):
            matrix_from_json(payload)

    def test_rejects_non_finite(self):
        with pytest.raises(FormatError):
            matrix_from_json([[[np.nan, 0], [0, 0]], [[0, 0], [1, 0]]])

    @pytest.mark.parametrize("entry", [[10**400, 0], [0, -(10**400)]])
    def test_rejects_integer_beyond_float_range(self, entry):
        with pytest.raises(FormatError, match="^matrix entries must be finite$"):
            matrix_from_json([[entry, [0, 0]], [[0, 0], [1, 0]]])


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(finite, min_size=8, max_size=8))
@example(entries=[5e-324, 0.0, 0.0, 0.5, 5e-324, 0.0, 0.0, 0.0])  # u2's phase from a subnormal
def test_svd2_invariants_property(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    if np.abs(m).max() < 1e-6:
        return
    r = svd2(m)
    assert r.kappa > 0.0
    assert 0.0 <= r.lam <= 1.0 + 1e-12
    scale = max(np.abs(m).max(), 1.0)
    np.testing.assert_allclose(recompose(r), m, atol=1e-11 * scale)
    np.testing.assert_allclose(r.u.conj().T @ r.u, np.eye(2), atol=1e-11)
    np.testing.assert_allclose(r.v.conj().T @ r.v, np.eye(2), atol=1e-11)


def complex_matrix(entries):
    return np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(finite, min_size=8, max_size=8),
    c=st.floats(min_value=1e-10, max_value=1e150),
)
def test_svd2_scale_equivariance_property(entries, c):
    """svd2(c m) has the strength ratio of svd2(m) and the scale c kappa,
    and reconstructs c m, even where m† m of c m would overflow."""
    m = complex_matrix(entries)
    if np.abs(m).max() < 1e-3:
        return
    r = svd2(m)
    s = svd2(c * m)
    assert s.kappa == pytest.approx(c * r.kappa, rel=1e-12)
    assert s.lam == pytest.approx(r.lam, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(recompose(s) / c, m, atol=1e-11 * np.abs(m).max())


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(finite, min_size=8, max_size=8), k=st.integers(-33, 498))
def test_svd2_power_of_two_scale_keeps_factors_property(entries, k):
    """For c = 2^k (1e-10 to 1e150) c m is exact outside the subnormal
    range, so u and v must come out the same to rounding. Other c are not
    drawn here: the rounding of c m moves u and v by about eps over the
    relative gap of the singular values, past 1e-12 once the gap falls
    below about 1e-4. A modulus tie between a column's two entries no
    longer moves the gauge at any c; see
    TestSvd2.test_gauge_ignores_rounding_of_a_modulus_tie."""
    m = complex_matrix(entries)
    if np.abs(m).max() < 1e-3:
        return
    r = svd2(m)
    s = svd2(2.0**k * m)
    assert s.kappa == pytest.approx(2.0**k * r.kappa, rel=1e-12)
    assert s.lam == pytest.approx(r.lam, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(s.u, r.u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s.v, r.v, rtol=1e-12, atol=1e-12)


class TestRecords:
    """A record that checks nothing at construction is a NamedTuple: its
    fields cannot be set, and it compares and hashes by value. A record
    with checks (PureState, MeasurementSet) stays a frozen dataclass."""

    RECORDS = {
        "Estimate": dict(value=0.25, std_error=0.01, samples=2000, method="monte-carlo"),
        "Svd2Result": dict(kappa=0.9, lam=0.5, u=HADAMARD, v=X),
        "Su2Params": dict(alpha=0.1, beta=-0.2, gamma=0.3, delta=0.4),
    }

    @pytest.mark.parametrize("name", RECORDS)
    def test_contract(self, name):
        cls, fields = getattr(qmtradeoff, name), self.RECORDS[name]
        rec = cls(**fields)
        assert rec._fields[:len(fields)] == tuple(fields)
        assert rec == cls(*fields.values())
        for key in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, key, 0.0)
        assert [getattr(rec, key) for key in fields] == list(fields.values())
        if name != "Svd2Result":  # an ndarray field has no hash
            assert hash(rec) == hash(cls(*fields.values()))
            assert rec != cls(**dict(fields, **{next(iter(fields)): 0.5}))

    def test_jackknife_error_defaults_to_none(self):
        est = qmtradeoff.Estimate(0.25, 0.0, 6, "quadrature")
        assert est.std_error_jackknife is None
        assert est == qmtradeoff.Estimate(0.25, 0.0, 6, "quadrature", None)

    @pytest.mark.parametrize("name", [
        "Estimate", "Svd2Result", "Su2Params", "TradeoffRecord", "AveragedQuantities",
        "ReversingMeasurement", "ReversalStats",
    ])
    def test_check_free_records_are_tuples(self, name):
        assert issubclass(getattr(qmtradeoff, name), tuple)

    @pytest.mark.parametrize("name", ["PureState", "MeasurementSet"])
    def test_checked_records_are_dataclasses(self, name):
        cls = getattr(qmtradeoff, name)
        assert dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)
