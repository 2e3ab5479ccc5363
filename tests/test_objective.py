"""Unit tests for the reconstruction objective and its exact gradient."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from hamlearn import linalg
from hamlearn import objective as obj_mod
from hamlearn.metrics import recover_eigenstate
from hamlearn.objective import ReconstructionObjective, first_positive_gap
from hamlearn.operators import (
    LatticeSpec,
    OperatorBasis,
    basis_generic,
    basis_two_local,
    eigenstate_measurements,
    shown,
)

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def scalar_closed_form(x):
    """Single-term basis {sigma_z} with measurement a = 1 (its top eigenvalue).

    Hs = x (sigma_z - I) = diag(0, -2x), Hs^2 = diag(0, 4x^2), so
    rho = diag(1, e^{-4x^2}) / Z and
    f(x) = (tanh(2x^2) - 1)^2 + 4x^2 / (1 + e^{4x^2}).
    """
    return (np.tanh(2 * x * x) - 1) ** 2 + 4 * x * x / (1 + np.exp(4 * x * x))


def sigma_z_objective():
    basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
    return ReconstructionObjective(basis, [1.0])


class TestClosedForm:
    def test_matches_closed_form_on_grid(self):
        obj = sigma_z_objective()
        for x in np.linspace(-3.0, 3.0, 25):
            assert abs(obj.value([x]) - scalar_closed_form(x)) < 1e-12

    def test_frozen_values(self):
        obj = sigma_z_objective()
        assert abs(obj.value([0.0]) - 1.0) < 1e-14
        assert abs(obj.value([1.0]) - 0.073238854843568) < 1e-13
        assert abs(obj.value([0.5]) - 0.5582593738840481) < 1e-13

    def test_frozen_gradient(self):
        obj = sigma_z_objective()
        g = obj.gradient([1.0])
        assert abs(g[0] - (-0.4416487682454468)) < 1e-11

    def test_tail_vanishes(self):
        obj = sigma_z_objective()
        assert obj.value([4.0]) < 1e-10


class TestGradient:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(101)
        h = 1e-5
        for _ in range(12):
            d = int(rng.choice([4, 8]))
            m = int(rng.integers(1, 4))
            basis = basis_generic(d, m, rng)
            c = rng.uniform(0, 1, m)
            rec = eigenstate_measurements(basis, c, int(rng.integers(d)))
            obj = ReconstructionObjective(basis, rec.a)
            x = rng.uniform(-1, 1, m)
            g = obj.gradient(x)
            for k in range(m):
                ek = np.zeros(m)
                ek[k] = h
                fd = (obj.value(x + ek) - obj.value(x - ek)) / (2 * h)
                denom = max(1.0, abs(fd))
                assert abs(g[k] - fd) / denom < 1e-6

    def test_sign_symmetry(self):
        rng = np.random.default_rng(103)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 0)
        obj = ReconstructionObjective(basis, rec.a)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            assert abs(obj.value(x) - obj.value(-x)) < 1e-10
            assert np.max(np.abs(obj.gradient(x) + obj.gradient(-x))) < 1e-9

    def test_bad_input(self):
        obj = sigma_z_objective()
        with pytest.raises(ValueError):
            obj.value([1.0, 2.0])
        with pytest.raises(ValueError):
            obj.value([np.nan])


def exact_gradient(obj, x):
    """Reference gradient, independent of the adjoint pass: forward mode with
    one augmented-block Frechet derivative of exp per coordinate, and rho
    from scipy's expm instead of an eigendecomposition."""
    basis, d = obj.basis, obj.basis.dim
    eye = np.eye(d)
    b = [t - ai * eye for t, ai in zip(basis.terms, obj.a)]
    hs = sum(xi * bi for xi, bi in zip(x, b))
    v3 = hs @ hs
    base = np.eye(d) * np.linalg.eigvalsh(v3)[0] - v3  # shifted: exp(base) cannot underflow
    base = (base + base.conj().T) / 2
    ex = scipy.linalg.expm(base)
    z = np.trace(ex).real
    rho = ex / z
    r = np.array([np.trace(t @ rho).real for t in basis.terms]) - obj.a
    grad = np.empty(len(x))
    for k, bk in enumerate(b):
        dv3 = bk @ hs + hs @ bk
        dex = linalg.frechet_exp(base, -dv3, method="augmented_block")
        drho = dex / z - ex * np.trace(dex).real / z**2
        grad[k] = (
            sum(2 * rj * np.trace(t @ drho).real for rj, t in zip(r, basis.terms))
            + np.trace(dv3 @ rho).real
            + np.trace(v3 @ drho).real
        )
    return grad


def relative_error(g, ref):
    return np.linalg.norm(g - ref) / np.linalg.norm(ref)


def near_degenerate_pair():
    """(basis, a, x) where the two lowest levels of Hs^2 differ by about 2e-9.

    Hs = H(x) - (x . a) I; x . a is placed a hair off the midpoint of two
    adjacent eigenvalues of H(x).
    """
    rng = np.random.default_rng(211)
    d, m = 8, 3
    basis = basis_generic(d, m, rng)
    x = rng.normal(size=m) * 2
    h = np.linalg.eigvalsh(sum(xi * t for xi, t in zip(x, basis.terms)))
    shift = (h[3] + h[4]) / 2 + 1e-9 / (h[4] - h[3])
    a = rng.uniform(-1, 1, m)
    a[0] = (shift - x[1:] @ a[1:]) / x[0]
    return basis, a, x


class TestGradientOracle:
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_matches_exact_reference(self, d):
        rng = np.random.default_rng(200 + d)
        # m >= 2: with one term, x along the truth drives the gradient to
        # round-off and a relative error says nothing
        for m in (2, 3):
            basis = basis_generic(d, m, rng)
            rec = eigenstate_measurements(basis, rng.uniform(0, 1, m), int(rng.integers(d)))
            obj = ReconstructionObjective(basis, rec.a)
            for norm in (0.3, 1.0, 3.0, 10.0, 30.0):
                x = rng.normal(size=m)
                x *= norm / np.linalg.norm(x)
                assert relative_error(obj.gradient(x), exact_gradient(obj, x)) < 1e-10

    def test_near_degenerate_pair(self):
        basis, a, x = near_degenerate_pair()
        obj = ReconstructionObjective(basis, a)
        spectrum = obj.diagnostics(x).spectrum
        assert 0 < spectrum[1] - spectrum[0] < 1e-8
        assert relative_error(obj.gradient(x), exact_gradient(obj, x)) < 1e-10


class TestDensityMatrix:
    def test_invariants(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            basis = basis_generic(8, 3, rng)
            c = rng.uniform(0, 1, 3)
            rec = eigenstate_measurements(basis, c, int(rng.integers(8)))
            x = rng.uniform(-1, 1, 3)
            rho = ReconstructionObjective(basis, rec.a)._forward(x)["v6"]
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert abs(np.trace(rho).imag) < 1e-12
            assert np.linalg.norm(rho - rho.conj().T) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_objective_nonnegative(self):
        rng = np.random.default_rng(109)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 1)
        obj = ReconstructionObjective(basis, rec.a)
        for _ in range(20):
            assert obj.value(rng.uniform(-3, 3, 2)) >= 0.0


class TestGraphAndDiagnostics:
    def test_graph_node_consistency(self):
        # the forward pass's nodes agree with each other and with Hs = 0.7 (sigma_z - I)
        fwd = sigma_z_objective()._forward([0.7])
        assert fwd["f"] == fwd["v8"] + fwd["v9"]
        assert np.array_equal(fwd["v2"], np.diag([0.0, -1.4]))
        assert np.allclose((fwd["u"] * fwd["lam"]) @ fwd["uh"], fwd["v2"] @ fwd["v2"])
        assert np.array_equal(fwd["w"], fwd["lam"][0] - fwd["lam"]) and np.all(fwd["w"] <= 0)
        assert np.allclose(fwd["p"], np.exp(fwd["w"]) / np.exp(fwd["w"]).sum())
        assert abs(fwd["p"].sum() - 1.0) < 1e-15
        assert np.allclose((fwd["u"] * fwd["p"]) @ fwd["uh"], fwd["v6"])
        assert abs(np.trace(fwd["v6"]).real - 1.0) < 1e-12
        assert fwd["v8"] == fwd["v7"] @ fwd["v7"]

    def test_graph_finite_when_eigh_round_off_is_large(self):
        # at ||x|| = 1e9 the lowest eigenvalue of Hs^2 comes out of eigh
        # near -1.2e3, far below its exact 0; exp of its negative overflows
        rng = np.random.default_rng(1)
        basis = basis_generic(8, 1, rng)
        obj = ReconstructionObjective(basis, eigenstate_measurements(basis, [1.0], int(rng.integers(8))).a)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fwd = obj._forward(np.array([1e9]))
        assert fwd["lam"][0] < -700
        # the shift by lam[0] keeps rho's eigenvalues p and rho finite
        assert np.all(np.isfinite(fwd["p"])) and abs(fwd["p"].sum() - 1.0) < 1e-12
        assert np.all(np.isfinite(fwd["v6"]))
        assert abs(np.trace(fwd["v6"]).real - 1.0) < 1e-12
        assert np.isfinite(fwd["f"]) and fwd["f"] >= 0

    def test_diagnostics(self):
        obj = sigma_z_objective()
        diag = obj.diagnostics([1.0])
        assert diag.spectrum.shape == (2,)
        assert np.all(diag.spectrum >= 0)
        assert 0 < diag.ground_prob <= 1
        # Hs^2 = diag(0, 4) at x = 1
        assert abs(diag.spectrum[1] - diag.spectrum[0] - 4.0) < 1e-12

    def test_ground_prob_saturates(self):
        obj = sigma_z_objective()
        assert obj.diagnostics([4.0]).ground_prob > 0.999

    def test_first_positive_gap(self):
        assert first_positive_gap(np.array([0.0, 0.0, 1.5, 2.0])) == 1.5
        assert first_positive_gap(np.array([1.0, 1.0])) == 0.0

    def test_one_threshold_for_hs2_levels(self):
        # diagnostics and recover_eigenstate read Hs^2's levels with one
        # threshold: a ground gap of 2e-9 that diagnostics reports as the
        # first positive gap is not warned about as degenerate
        basis, a, x = near_degenerate_pair()
        spectrum = ReconstructionObjective(basis, a).diagnostics(x).spectrum
        assert first_positive_gap(spectrum) == spectrum[1] - spectrum[0] < 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recover_eigenstate(basis, x, a)


def generic_objective(seed=5, d=8, m=3):
    rng = np.random.default_rng(seed)
    basis = basis_generic(d, m, rng)
    rec = eigenstate_measurements(basis, rng.uniform(0, 1, m), 2)
    return ReconstructionObjective(basis, rec.a), rng.uniform(-2, 2, m)


class TestForwardCache:
    def test_one_eigh_per_point(self, monkeypatch):
        obj, x = generic_objective()
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        obj.value(x)
        obj.gradient(x)
        obj.diagnostics(x)
        obj.value(x.copy())
        assert len(calls) == 1
        obj.value(-x)
        assert len(calls) == 2

    def test_hit_still_validates_shape_and_finiteness(self):
        obj, x = generic_objective()
        obj.value(x)
        for method, wrong in ((obj.value, x.reshape(1, -1)), (obj.gradient, x.reshape(-1, 1))):  # cached bytes
            with pytest.raises(ValueError) as info:
                method(wrong)
            assert str(info.value) == f"x must be a real vector of shape (3,), got {shown(wrong.tolist())}"
        bad = x.copy()
        bad[1] = np.nan
        with pytest.raises(ValueError, match=r"^x entry 1 must be finite, got nan$"):
            obj.value(bad)
        assert obj.value(x) == obj.value(list(x))

    def test_returned_gradient_is_a_copy(self):
        obj, x = generic_objective()
        g = obj.gradient(x)
        ref = g.copy()
        g[:] = 7.0
        assert np.array_equal(obj.gradient(x), ref)


class TestStackedKernel:
    @pytest.mark.parametrize("kind", ["generic", "local"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_rows_match_one_row_evaluations(self, kind, k):
        # every row of a K-row stack gets the bits value, gradient and
        # diagnostics give it alone, whatever its batch-mates
        rng = np.random.default_rng(300 + k)
        objs, xs = [], []
        for norm in np.geomspace(0.3, 30.0, k):
            if kind == "generic":
                basis = basis_generic(8, 3, rng)
            else:
                basis = basis_two_local(LatticeSpec.fully_connected(3), rng)
            rec = eigenstate_measurements(basis, rng.uniform(0, 1, basis.size), int(rng.integers(basis.dim)))
            x = rng.normal(size=basis.size)
            objs.append(ReconstructionObjective(basis, rec.a))
            xs.append(x * norm / np.linalg.norm(x))
        fs, gs = obj_mod.evaluate_stacked(obj_mod.stack_operands(objs), xs)
        spectra = obj_mod._forward(obj_mod.stack_operands(objs), np.asarray(xs))["lam"]
        for obj, x, f, g, lam in zip(objs, xs, fs, gs, spectra):
            alone = ReconstructionObjective(obj.basis, obj.a)
            assert f == alone.value(x)
            assert np.array_equal(g, alone.gradient(x))
            assert g.flags.c_contiguous
            assert np.array_equal(np.maximum(lam, 0.0), alone.diagnostics(x).spectrum)

    @pytest.mark.parametrize("n", [3, 16, 21])
    def test_dot_rows_match_one_row_dot(self, n):
        # the kernel's last-axis dot products (sum of squared residuals and
        # the centring of W) give each stacked row the bits of a 1-D a @ b
        rng = np.random.default_rng(n)
        a = rng.normal(size=(5, n)) * np.geomspace(1e-5, 1e5, 5)[:, None]
        b = rng.normal(size=(5, n))
        stacked = obj_mod._dot(a, b)
        assert stacked.shape == (5,)
        for k in range(5):
            assert stacked[k] == a[k] @ b[k] == obj_mod._dot(a[k], b[k])

    def test_non_finite_row_raises(self):
        obj, x = generic_objective()
        bad = x.copy()
        bad[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            obj_mod.evaluate_stacked(obj_mod.stack_operands([obj, obj]), [x, bad])


class TestShiftedTerms:
    def test_values(self):
        # Hs at x = (1) is the single shifted term B = A - a I
        b = sigma_z_objective()._forward([1.0])["v2"]
        assert np.allclose(b, np.diag([0.0, -2.0]))

    def test_length_check(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        with pytest.raises(ValueError):
            ReconstructionObjective(basis, [1.0, 2.0])

    def test_measurements_checked_at_construction(self):
        # every objective, not only a solve's, refuses a bad a by name where it
        # is built, before LAPACK meets a NaN in the first eigh
        basis = OperatorBasis(dim=2, terms=[PAULI_Z, PAULI_Z], labels=["z", "z2"])
        with pytest.raises(ValueError, match=r"^measurement vector a entry 0 must be finite, got nan$"):
            ReconstructionObjective(basis, [np.nan, 0.1])
        with pytest.raises(ValueError, match=r"^measurement vector a entry 0 must be finite, got nan$"):
            recover_eigenstate(basis, [1.0, 1.0], [np.nan, 0.1])
        with pytest.raises(ValueError, match=r"a\[1\] = 1.5 outside the numerical range \[-1, 1\] of term z2"):
            ReconstructionObjective(basis, [0.1, 1.5])

    def test_terms_are_not_copied(self):
        # a basis holds its terms once, as one read-only (m, d, d) stack; an
        # objective reads A_i from it and keeps one array of its own, the B_i
        d, m = 64, 6
        obj, _ = generic_objective(d=d, m=m)
        terms = obj.basis.terms
        assert terms.shape == (m, d, d) and terms.dtype == complex
        assert terms.flags.c_contiguous and not terms.flags.writeable
        assert np.shares_memory(obj._ops[1], terms)
        tracemalloc.start()
        try:
            again = ReconstructionObjective(obj.basis, obj.a)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * m * d * d * 16
        assert np.array_equal(again._ops[0], obj._ops[0])


def nearly_hermitian_d256_basis() -> OperatorBasis:
    """One d = 256 term A = I - u u^T + i delta J (u uniform, J all ones), whose
    max|A - A^dag| = 2 delta = 9.8e-11 passes check_hermitian; the basis keeps
    its Hermitian part I - u u^T, so the residue is gone from the start."""
    d = 256
    u = np.full(d, 1 / 16)
    term = np.eye(d) - np.outer(u, u) + 4.9e-11j * np.ones((d, d))
    return OperatorBasis(dim=d, terms=[term], labels=["a"])


def test_basis_accepted_at_input_is_evaluated():
    # Hermiticity is checked once, at input, which removes the accepted residue:
    # the kept term is exactly Hermitian and is evaluated at every x
    obj = ReconstructionObjective(nearly_hermitian_d256_basis(), [0.0])
    assert np.array_equal(obj.basis.terms[0], obj.basis.terms[0].conj().T)
    for x in (1.0, 3.0, 10.0):
        assert np.isfinite(obj.value([x]))
        assert np.isfinite(obj.gradient([x])).all()
    assert obj.value([10.0]) < 1e-8
    xs = [np.array([3.0]), np.array([10.0])]
    fs, gs = obj_mod.evaluate_stacked(obj_mod.stack_operands([obj, obj]), xs)
    for x, f, g in zip(xs, fs, gs):
        alone = ReconstructionObjective(obj.basis, obj.a)
        assert f == alone.value(x)
        assert np.array_equal(g, alone.gradient(x))
