"""Property-based tests of the objective's invariants on random generic bases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import basis_generic, eigenstate_measurements


@st.composite
def instances(draw):
    """(basis, measurements, x): a generic basis measured on one of its
    eigenstates, and a coefficient vector of norm up to 30."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    basis = basis_generic(d, m, rng)
    rec = eigenstate_measurements(basis, rng.uniform(0, 1, m), int(rng.integers(d)))
    x = np.array(draw(st.lists(st.floats(-15.0, 15.0), min_size=m, max_size=m)))
    return basis, rec.a, x


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(instances())
def test_objective_nonnegative(inst):
    basis, a, x = inst
    assert ReconstructionObjective(basis, a).value(x) >= 0.0


@PROPERTY_SETTINGS
@given(instances())
def test_sign_symmetry(inst):
    basis, a, x = inst
    obj = ReconstructionObjective(basis, a)
    f, g = obj.value(x), obj.gradient(x)
    assert abs(obj.value(-x) - f) <= 1e-12 * max(1.0, f)
    assert np.linalg.norm(obj.gradient(-x) + g) <= 1e-12 * max(1.0, np.linalg.norm(g))


@PROPERTY_SETTINGS
@given(instances())
def test_density_matrix_is_a_state(inst):
    basis, a, x = inst
    rho = ReconstructionObjective(basis, a).graph(x).v6
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.array_equal(rho, rho.conj().T)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
