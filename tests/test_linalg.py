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

    def test_check_hermitian_rejects(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            linalg.check_hermitian(a)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_check_hermitian_tolerance_scales_with_largest_entry(self, scale):
        # the round-off allowed is ROUNDOFF_TOL times the larger of 1 and max|A_ij|
        allowed = linalg.ROUNDOFF_TOL * max(1.0, scale)
        z = np.diag([scale, -scale])
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        linalg.check_hermitian(z + 0.9 * allowed * skew)
        with pytest.raises(ValueError, match="^term A1 is not Hermitian"):
            linalg.check_hermitian(z + 1.1 * allowed * skew, "term A1")

    def test_trace_product_matches_full_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert abs(linalg.trace_product(a, b) - np.trace(a @ b)) < 1e-12


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
                phi = linalg._divided_difference_table(w, np.exp(w))
                assert abs(phi[0, 1] - ref) <= 1e-14 * ref
                assert phi[0, 1] == phi[1, 0]
        w = np.array([-1.5, -1.5])
        phi = linalg._divided_difference_table(w, np.exp(w))
        assert np.all(phi == math.exp(-1.5))

    def test_divided_differences_ties_exact(self):
        # descending, as the objective passes it: an exact tie and a 1e-12 gap
        w = np.array([0.7, 0.7, -0.3, -0.3 - 1e-12, -2.5, -2.5, -2.5])
        phi = linalg._divided_difference_table(w, np.exp(w))
        assert np.array_equal(phi, phi.T)
        for k in range(w.size):
            for l in range(w.size):
                if w[k] == w[l]:
                    assert phi[k, l] == np.exp(w[k])
        ref = math.exp(-0.3) * math.expm1((-0.3 - 1e-12) - (-0.3)) / ((-0.3 - 1e-12) - (-0.3))
        assert abs(phi[2, 3] - ref) <= 1e-14 * ref

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

