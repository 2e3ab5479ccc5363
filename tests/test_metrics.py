"""Unit tests for reconstruction quality metrics."""

import numpy as np
import pytest

from hamlearn.harness import ExperimentConfig, _row_tasks, _start_row
from hamlearn.metrics import (
    hamiltonian_fidelity,
    recover_eigenstate,
    recover_eigenvalue,
    report,
)
from hamlearn.operators import (
    OperatorBasis,
    assemble,
    basis_generic,
    eigenstate_measurements,
    true_eigenstate,
)
from hamlearn.optimizer import SolveConfig, solve_hamiltonian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestFidelity:
    def test_identical(self):
        rng = np.random.default_rng(401)
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = e + e.conj().T
        assert abs(hamiltonian_fidelity(h, h) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert abs(hamiltonian_fidelity(PAULI_X, PAULI_Z)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(403)
        e = rng.standard_normal((3, 3))
        h1 = e + e.T
        e = rng.standard_normal((3, 3))
        h2 = e + e.T
        f = hamiltonian_fidelity(h1, h2)
        assert abs(hamiltonian_fidelity(3.7 * h1, 0.2 * h2) - f) < 1e-12
        assert abs(hamiltonian_fidelity(-h1, h2) + f) < 1e-12

    def test_zero_operator(self):
        with pytest.raises(ValueError):
            hamiltonian_fidelity(np.zeros((2, 2)), PAULI_Z)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hamiltonian_fidelity(np.eye(2), np.eye(3))


class TestEigenvalueRecovery:
    def test_unit_norm_projection(self):
        x = np.array([3.0, 4.0])
        a = np.array([1.0, 2.0])
        basis = OperatorBasis(dim=2, terms=[PAULI_X, PAULI_Z], labels=["x", "z"])
        assert abs(recover_eigenvalue(basis, x, a) - (0.6 * 1.0 + 0.8 * 2.0)) < 1e-14

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            recover_eigenvalue(OperatorBasis(dim=2, terms=[PAULI_X, PAULI_Z], labels=["x", "z"]), np.zeros(2), np.ones(2))


class TestEigenstateRecovery:
    def test_sigma_z_top_state(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        psi = recover_eigenstate(basis, [5.0], [1.0])
        # a = 1 selects the +1 eigenvector of sigma_z
        assert abs(abs(psi[0]) - 1.0) < 1e-10
        assert psi[0].real > 0
        assert abs(psi[0].imag) < 1e-12

    def test_zero_vector(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        with pytest.raises(ValueError):
            recover_eigenstate(basis, [0.0], [1.0])

    def test_matches_objective_hs(self):
        # on a separated ground level of Hs^2, recover_eigenstate gives the
        # lowest eigenvector of Hs^2, Hs = sum_i x_i (A_i - a_i I) built here
        rng = np.random.default_rng(409)
        checked = 0
        for _ in range(20):
            basis = basis_generic(8, 3, rng)
            rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), int(rng.integers(8)))
            x = rng.uniform(-3, 3, 3)
            hs = sum(xi * (t - ai * np.eye(8)) for xi, t, ai in zip(x, basis.terms, rec.a))
            w, u = np.linalg.eigh(hs @ hs)
            if w[1] - w[0] < 1e-2:
                continue
            psi = recover_eigenstate(basis, x, rec.a)
            assert abs(abs(np.vdot(u[:, 0], psi)) - 1.0) < 1e-10
            checked += 1
        assert checked >= 10

    def test_one_eigh(self, monkeypatch):
        # the eigenpairs of Hs^2 come from the objective's forward pass, one eigh
        rng = np.random.default_rng(409)
        basis = basis_generic(8, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), 4)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        recover_eigenstate(basis, rng.uniform(-3, 3, 3), rec.a)
        assert calls == [(8, 8)]

    def test_degenerate_warns(self):
        basis = OperatorBasis(dim=2, terms=[np.eye(2)], labels=["I"])
        with pytest.warns(UserWarning):
            recover_eigenstate(basis, [1.0], [1.0])


class TestReport:
    def test_end_to_end(self):
        rng = np.random.default_rng(409)
        basis = basis_generic(8, 3, rng)
        c = rng.uniform(0, 1, 3)
        rec = eigenstate_measurements(basis, c, 4)
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=2))
        assert result.converged
        rep = report(basis, result, rec)
        assert rep.abs_fidelity > 0.999
        assert rep.state_overlap > 0.999
        # global sign of x_opt is unidentifiable, so compare magnitudes
        w, _ = true_eigenstate(basis, c, 4)
        assert abs(abs(rep.lambda_hat) - abs(w[4]) / np.linalg.norm(c)) < 1e-3

    def test_large_scale_terms_hermitian_to_round_off(self):
        # U diag(1e6 w) U^dag plus an anti-Hermitian part of 2e-10, a couple of
        # ulps of its 1e6 entries: max|A - A^dag| is above an absolute 1e-10 but
        # round-off at the terms' scale, so the basis is accepted and solved
        rng = np.random.default_rng(16)
        ulps = 2e-10j * (np.ones((4, 4)) - np.eye(4))
        terms = []
        for _ in range(2):
            u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            terms.append(u @ np.diag(1e6 * rng.uniform(-1, 1, 4)) @ u.conj().T + ulps)
        assert min(np.max(np.abs(t - t.conj().T)) for t in terms) > 1e-10
        basis = OperatorBasis(dim=4, terms=terms, labels=["A1", "A2"])
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 2), int(rng.integers(4)))
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=0))
        assert result.converged
        assert report(basis, result, rec).abs_fidelity > 0.999
        # an anti-Hermitian part of 2e-3 is far above the round-off of entries near 1e6
        with pytest.raises(ValueError, match="^term A2 is not Hermitian"):
            OperatorBasis(dim=4, terms=[terms[0], terms[1] + 1e7 * ulps], labels=["A1", "A2"])

    def test_requires_truth(self):
        rng = np.random.default_rng(419)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 0)
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=3))
        rec.truth = None
        with pytest.raises(ValueError):
            report(basis, result, rec)

    def test_refuses_truth_level_outside_basis(self):
        # level -1 would index the top eigenvector
        rng = np.random.default_rng(419)
        basis = basis_generic(4, 2, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 2), 3)
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=3))
        rec.truth.eigen_index = -1
        with pytest.raises(ValueError, match=r"^eigen_index -1 out of range for dimension 4$"):
            report(basis, result, rec)


def _correlation_matrix(basis, psi):
    """C_ij = Re<psi|A_i A_j|psi> - <A_i><A_j> on the state psi."""
    v = np.stack([term @ psi for term in basis.terms])  # rows A_i psi
    mean = (v @ psi.conj()).real
    return (v.conj() @ v.T).real - np.outer(mean, mean)


class TestCorrelationOracle:
    """A test-side check: on its eigenstate psi, H = sum_i c_i A_i has zero
    variance, c^T C c = 0, so c spans a null direction of the positive
    semidefinite correlation matrix C (Qi & Ranard, Quantum 3, 159 (2019)).
    A recovered x must lie there too. The solver itself reads expectation
    values only. m = 1 is left out: there C = 0."""

    @pytest.mark.parametrize(
        "preset, extra, seed",
        [("generic", {"m_terms": 3}, 31), ("local_full", {}, 202)],
    )
    def test_solutions_in_near_null_space(self, preset, extra, seed):
        cfg = ExperimentConfig(
            preset=preset, n_qubits=3, num_instances=5, seed=seed, solve=SolveConfig(max_restarts=150), **extra
        )
        converged = 0
        for task in _row_tasks(cfg):
            basis, record, solve_cfg = _start_row(cfg, *task)
            assert basis.size >= 2
            truth = record.truth
            psi = np.linalg.eigh(assemble(basis, truth.c_true))[1][:, truth.eigen_index]
            c = _correlation_matrix(basis, psi)
            scale = np.linalg.norm(c, 2)
            c_hat = truth.c_true / np.linalg.norm(truth.c_true)
            assert np.linalg.norm(c @ c_hat) <= 1e-12 * scale
            result = solve_hamiltonian(basis, record.a, solve_cfg)
            if result.converged:
                converged += 1
                x_hat = result.x_opt / np.linalg.norm(result.x_opt)
                assert np.linalg.norm(c @ x_hat) <= 1e-3 * scale
        assert converged >= 4  # the near-null bound is checked on most rows
