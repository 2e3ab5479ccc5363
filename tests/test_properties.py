"""Property-based tests of the objective's invariants on random generic bases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn import objective as obj_mod
from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import OperatorBasis, basis_generic, check_measurement_range, eigenstate_measurements
from test_objective import exact_gradient


@st.composite
def instances(draw):
    """(basis, record, x): a generic basis measured on one of its
    eigenstates, and a coefficient vector of norm up to 30."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    basis = basis_generic(d, m, rng)
    rec = eigenstate_measurements(basis, rng.uniform(0, 1, m), int(rng.integers(d)))
    x = np.array(draw(st.lists(st.floats(-15.0, 15.0), min_size=m, max_size=m)))
    return basis, rec, x


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(instances())
def test_objective_nonnegative(inst):
    basis, rec, x = inst
    assert ReconstructionObjective(basis, rec.a).value(x) >= 0.0


@PROPERTY_SETTINGS
@given(instances())
def test_sign_symmetry(inst):
    basis, rec, x = inst
    obj = ReconstructionObjective(basis, rec.a)
    f, g = obj.value(x), obj.gradient(x)
    assert abs(obj.value(-x) - f) <= 1e-12 * max(1.0, f)
    assert np.linalg.norm(obj.gradient(-x) + g) <= 1e-12 * max(1.0, np.linalg.norm(g))


@PROPERTY_SETTINGS
@given(instances())
def test_gradient_matches_oracle(inst):
    # the adjoint pass against the forward-mode Frechet reference; the bound
    # is absolute near a zero gradient: at x = 0 it is exactly 0, and with
    # m = 1 it sits at round-off
    basis, rec, x = inst
    obj = ReconstructionObjective(basis, rec.a)
    ref = exact_gradient(obj, x)
    assert np.linalg.norm(obj.gradient(x) - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


@PROPERTY_SETTINGS
@given(instances())
def test_density_matrix_is_a_state(inst):
    basis, rec, x = inst
    rho = ReconstructionObjective(basis, rec.a)._forward(x)["v6"]
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.array_equal(rho, rho.conj().T)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


@PROPERTY_SETTINGS
@given(instances(), st.integers(-10, 27))
def test_scale_covariance(inst, log2_s):
    # Terms A_i -> s A_i, measured on the same eigenstate, give a_i -> s a_i
    # and make Hs(x) the unscaled Hs(s x): x absorbs the scale, as reading
    # ||x|| as sqrt(beta) needs. rho and tr(Hs^2 rho) follow s x, but each
    # residual tr(A_i rho) - a_i gains a factor s, so f_s(x) is
    # s^2 v8(s x) + v9(s x), not f(s x), and its gradient is s times the
    # adjoint pass at s x with the residuals weighted by s^2. With s a power
    # of two (about 1e-3 to 1e8) every scaling is exact, so these hold bit
    # for bit; no guard may raise on the way.
    basis, rec, x = inst
    s = 2.0**log2_s
    # scaling an underflowing number rounds: keep s x and the traces normal
    x = np.where(np.abs(x) < 1e-100, 0.0, x)
    big = OperatorBasis(dim=basis.dim, terms=[s * t for t in basis.terms], labels=basis.labels)
    big_rec = eigenstate_measurements(big, rec.truth.c_true / s, rec.truth.eigen_index)
    assert np.array_equal(big_rec.a, s * rec.a)
    check_measurement_range(big, big_rec.a)
    obj, big_obj = ReconstructionObjective(basis, rec.a), ReconstructionObjective(big, big_rec.a)
    fwd = obj_mod._forward(obj._ops, s * x)
    assert big_obj.value(x) == s * s * fwd["v8"] + fwd["v9"]
    weighted = obj_mod._gradient(obj._ops, {**fwd, "v7": s * s * fwd["v7"]})
    assert np.array_equal(big_obj.gradient(x), s * weighted)
