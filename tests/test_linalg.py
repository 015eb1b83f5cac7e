"""Factorization, parameterization, and serialization of 2x2 operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtradeoff.errors import FormatError, NotUnitaryError, ZeroOperatorError
from qmtradeoff.linalg import (
    Su2Params,
    dagger,
    matrix_from_json,
    matrix_to_json,
    su2_matrix,
    su2_params,
    svd2,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


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
            np.testing.assert_allclose(dagger(r.u) @ r.u, eye, atol=1e-12)
            np.testing.assert_allclose(dagger(r.v) @ r.v, eye, atol=1e-12)
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
                np.trace(dagger(m) @ m).real, rel=1e-10
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

    def test_tiny_lambda_stays_accurate(self):
        m = np.diag([1.0, 1e-12]).astype(complex)
        r = svd2(m)
        assert r.lam == pytest.approx(1e-12, rel=1e-6)
        np.testing.assert_allclose(dagger(r.u) @ r.u, np.eye(2), atol=1e-13)


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

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            su2_params(np.diag([1.0, 0.5]))

    def test_matrix_is_unitary(self):
        u = su2_matrix(Su2Params(alpha=0.3, beta=-1.2, gamma=0.7, delta=2.5))
        np.testing.assert_allclose(dagger(u) @ u, np.eye(2), atol=1e-15)


class TestAlgebraHelpers:
    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(66)
        m = random_matrix(rng)
        np.testing.assert_array_equal(dagger(dagger(m)), m)

    def test_unitary_determinant_modulus(self):
        u = su2_matrix(Su2Params(alpha=1.1, beta=0.4, gamma=0.9, delta=-2.0))
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-14)

    def test_trace_of_gram_sums_squares(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            m = random_matrix(rng)
            assert np.trace(dagger(m) @ m).real == pytest.approx(
                np.sum(np.abs(m) ** 2), rel=1e-13
            )

    def test_is_unitary_tolerance(self):
        from qmtradeoff.linalg import is_unitary

        assert is_unitary(np.eye(2))
        assert not is_unitary(np.diag([1.0, 0.999]))
        r = svd2(random_matrix(np.random.default_rng(68)))
        assert is_unitary(r.u) and is_unitary(r.v)


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


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(finite, min_size=8, max_size=8))
def test_svd2_invariants_property(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    if np.abs(m).max() < 1e-6:
        return
    r = svd2(m)
    assert r.kappa > 0.0
    assert 0.0 <= r.lam <= 1.0 + 1e-12
    scale = max(np.abs(m).max(), 1.0)
    np.testing.assert_allclose(recompose(r), m, atol=1e-11 * scale)
    np.testing.assert_allclose(dagger(r.u) @ r.u, np.eye(2), atol=1e-11)
    np.testing.assert_allclose(dagger(r.v) @ r.v, np.eye(2), atol=1e-11)
