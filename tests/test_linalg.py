"""Unit tests for the dense Hermitian matrix kernels."""

import math

import numpy as np
import pytest
import scipy.linalg

from hamlearn import linalg


def random_hermitian(d, rng, scale=1.0):
    e = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return scale * (e + e.conj().T)


class TestBasics:
    def test_as_square_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.as_square(np.zeros((2, 3)))

    def test_as_square_rejects_vector(self):
        with pytest.raises(ValueError):
            linalg.as_square(np.zeros(4))

    def test_as_square_rejects_nan(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.as_square(a)

    def test_as_square_rejects_oversized(self):
        d = linalg.MAX_DIM + 1
        with pytest.raises(ValueError):
            linalg.as_square(np.eye(d))

    def test_hermitize_known_value(self):
        e = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
        h = linalg.hermitize(e)
        expected = np.array([[2.0, 2.0 + 1j], [2.0 - 1j, 6.0]])
        assert np.allclose(h, expected)
        assert linalg.hermiticity_deviation(h) == 0.0

    def test_check_hermitian_rejects(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            linalg.check_hermitian(a)

    def test_trace_product_matches_full_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert abs(linalg.trace_product(a, b) - np.trace(a @ b)) < 1e-12


class TestEigendecomposition:
    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5, 8):
            a = random_hermitian(d, rng)
            w, u = linalg.eig_hermitian(a)
            assert np.all(np.diff(w) >= 0)
            assert np.allclose((u * w) @ u.conj().T, a, atol=1e-12)
            assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)

    def test_exp_neg_hermitian_against_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_hermitian(4, rng)
            ours = linalg.exp_neg_hermitian(a)
            ref = scipy.linalg.expm(-a)
            assert np.linalg.norm(ours - ref) < 1e-11
            assert linalg.hermiticity_deviation(ours) == 0.0

    def test_exp_neg_diagonal(self):
        a = np.diag([0.0, 1.0, 2.0]).astype(complex)
        out = linalg.exp_neg_hermitian(a)
        assert np.allclose(np.diag(out), np.exp([-0.0, -1.0, -2.0]), atol=1e-14)


class TestFrechetDerivative:
    def test_zero_base_point(self):
        # exp(tE) has derivative E at t = 0
        rng = np.random.default_rng(5)
        e = random_hermitian(4, rng)
        out = linalg.frechet_exp(np.zeros((4, 4)), e)
        assert np.linalg.norm(out - e) < 1e-12

    def test_commuting_direction(self):
        # when E commutes with X the derivative is exp(X) E exactly
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_hermitian(4, rng)
            e = x @ x + 0.5 * x  # a polynomial in X commutes with X
            out = linalg.frechet_exp(x, e)
            ref = scipy.linalg.expm(x) @ e
            assert np.linalg.norm(out - ref) < 1e-9 * max(1.0, np.linalg.norm(ref))

    def test_against_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(15):
            x = random_hermitian(3, rng)
            e = random_hermitian(3, rng)
            out = linalg.frechet_exp(x, e)
            fd = (scipy.linalg.expm(x + h * e) - scipy.linalg.expm(x - h * e)) / (2 * h)
            assert np.linalg.norm(out - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_methods_agree(self):
        rng = np.random.default_rng(13)
        for d in (2, 4, 8, 16):
            for _ in range(5):
                # scale keeps spectra modest so expm of the block matrix is benign
                x = random_hermitian(d, rng, scale=1.0 / d)
                e = random_hermitian(d, rng, scale=1.0 / d)
                a = linalg.frechet_exp(x, e, method="divided_difference")
                b = linalg.frechet_exp(x, e, method="augmented_block")
                assert np.linalg.norm(a - b) < 1e-10

    def test_degenerate_spectrum(self):
        # repeated eigenvalues exercise the exact-tie entries of the table
        x = np.diag([1.0, 1.0, 2.0]).astype(complex)
        rng = np.random.default_rng(21)
        e = random_hermitian(3, rng)
        out = linalg.frechet_exp(x, e)
        ref = linalg.frechet_exp(x, e, method="augmented_block")
        assert np.linalg.norm(out - ref) < 1e-10

    def test_divided_differences_near_ties(self):
        # a cutoff below which pairs count as equal loses up to ~5e-9 just
        # above it; the table must stay at round-off for every gap
        for base in (-30.0, -5.0, 0.0, 2.0):
            for gap in np.logspace(-12, -6, 31):
                w = np.array([base + gap, base])
                exact_gap = w[0] - w[1]
                ref = math.exp(base) * math.expm1(exact_gap) / exact_gap
                phi = linalg._divided_difference_table(w)
                assert abs(phi[0, 1] - ref) <= 1e-14 * ref
                assert phi[0, 1] == phi[1, 0]
        phi = linalg._divided_difference_table(np.array([-1.5, -1.5]))
        assert np.all(phi == math.exp(-1.5))

    def test_linearity(self):
        rng = np.random.default_rng(17)
        x = random_hermitian(4, rng)
        e1 = random_hermitian(4, rng)
        e2 = random_hermitian(4, rng)
        lhs = linalg.frechet_exp(x, 2.0 * e1 - 0.5 * e2)
        rhs = 2.0 * linalg.frechet_exp(x, e1) - 0.5 * linalg.frechet_exp(x, e2)
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_trace_identity(self):
        # tr(D exp(X)[E]) = tr(exp(X) E) by cyclicity
        rng = np.random.default_rng(19)
        x = random_hermitian(4, rng)
        e = random_hermitian(4, rng)
        lhs = np.trace(linalg.frechet_exp(x, e))
        rhs = np.trace(scipy.linalg.expm(x) @ e)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.frechet_exp(np.eye(2), np.eye(3))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            linalg.frechet_exp(np.eye(2), np.eye(2), method="pade")

    def test_factored_matches_direct(self):
        rng = np.random.default_rng(23)
        x = random_hermitian(5, rng)
        e = random_hermitian(5, rng)
        w, u = np.linalg.eigh(x)
        a = linalg.frechet_exp_factored(w, u, e)
        b = linalg.frechet_exp(x, e)
        assert np.linalg.norm(a - b) < 1e-12


class TestSerialization:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(29)
        a = random_hermitian(4, rng)
        back = linalg.matrix_from_json(linalg.matrix_to_json(a))
        assert np.array_equal(back, a)

    def test_matrix_from_json_shape_check(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"dim": 3, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
