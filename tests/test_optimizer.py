"""Unit tests for the BFGS minimizer, line search, and restart loop."""

import numpy as np
import pytest

from hamlearn import optimizer
from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import PAULI_Z, OperatorBasis, basis_generic, eigenstate_measurements
from hamlearn.optimizer import (
    SolveConfig,
    _LineSearchFailure,
    _wolfe_search,
    bfgs_minimize,
    check_measurement_range,
    solve_hamiltonian,
    solve_steps,
)


class TestSolveConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.eps == 1e-8
        assert optimizer.EPS0 == 1e-6
        assert cfg.max_iters == 500
        assert cfg.max_restarts == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"max_iters": 0},
            {"max_restarts": 0},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"max_restarts": 150.0},
            {"seed": 1.5},
            {"seed": False},
            {"seed": -1},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"eps": "1e-8"},
            {"eps": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_from_dict_rejects_unknown(self):
        for obj in ({"epsilon": 1e-8}, {"hops_per_restart": 12}):
            with pytest.raises(ValueError, match="unknown solve-config keys"):
                SolveConfig.from_dict(obj)


class _Counted:
    """phi(a) that counts its calls; the line search pairs each with one dphi."""

    def __init__(self, phi):
        self.phi, self.calls = phi, 0

    def __call__(self, a):
        self.calls += 1
        return self.phi(a)


class TestWolfeSearch:
    def test_round_off_flat_line_fails_fast(self):
        # a line that is stationary to round-off: f rises by 1e-13 at every
        # a > 0, which no step can undercut, and the slope is 1e-16 * f0
        phi = _Counted(lambda a: 0.25 if a == 0 else 0.25 + 1e-13)
        with pytest.raises(_LineSearchFailure):
            _wolfe_search(phi, lambda a: -1e-16, 0.25, -1e-16, 1e-4, 0.9, 60)
        assert phi.calls <= 5

    @pytest.mark.parametrize(
        "c, s, alpha, evals",
        [(0.3, 1.0, 0.30000000000000004, 2), (0.01, 10.0, 0.009999999999999981, 5), (20.0, 1.0, 2.0, 2)],
    )
    def test_quadratic_steps_unchanged(self, c, s, alpha, evals):
        # phi(a) = s (a - c)^2 / 2 + 1: zooms down to c, or extends past a = 1
        phi = _Counted(lambda a: 0.5 * s * (a - c) ** 2 + 1.0)
        a, fa = _wolfe_search(phi, lambda a: s * (a - c), 0.5 * s * c * c + 1.0, -s * c, 1e-4, 0.9, 60)
        assert (a, phi.calls) == (alpha, evals)
        assert fa == phi.phi(a)


class TestBfgs:
    def test_quadratic(self):
        q = np.array([[3.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -2.0])
        sol = np.linalg.solve(q, b)
        out = bfgs_minimize(
            lambda x: 0.5 * x @ q @ x - b @ x,
            lambda x: q @ x - b,
            np.array([5.0, 5.0]),
            SolveConfig(),
        )
        assert out.grad_norm < optimizer.EPS0
        assert np.linalg.norm(out.x - sol) < 1e-5

    def test_inverse_hessian_estimate(self, monkeypatch):
        # with a near-exact line search the BFGS matrix approaches Q^{-1}
        monkeypatch.setattr(optimizer, "WOLFE_C2", 1e-3)
        monkeypatch.setattr(optimizer, "EPS0", 1e-10)
        rng = np.random.default_rng(211)
        a = rng.standard_normal((3, 3))
        q = a @ a.T + 3 * np.eye(3)
        out = bfgs_minimize(
            lambda x: 0.5 * x @ q @ x,
            lambda x: q @ x,
            rng.standard_normal(3),
            SolveConfig(),
        )
        assert np.linalg.norm(out.inv_hessian - np.linalg.inv(q)) < 1e-4

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(optimizer, "EPS0", 1e-8)

        def f(x):
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

        def g(x):
            return np.array(
                [
                    -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                    200 * (x[1] - x[0] ** 2),
                ]
            )

        out = bfgs_minimize(f, g, np.array([-1.2, 1.0]), SolveConfig())
        assert np.linalg.norm(out.x - np.ones(2)) < 1e-5

    def test_f_target_stops_early(self):
        out = bfgs_minimize(
            lambda x: float(x @ x),
            lambda x: 2 * x,
            np.array([2.0]),
            SolveConfig(),
            f_target=1e-4,
        )
        assert out.f < 1e-4
        assert out.grad_norm < 2e-2  # |2x| at the returned x, where x^2 < 1e-4

    def test_returns_best_iterate(self):
        out = bfgs_minimize(
            lambda x: float(np.cos(x[0]) + 0.01 * x[0] ** 2),
            lambda x: np.array([-np.sin(x[0]) + 0.02 * x[0]]),
            np.array([1.0]),
            SolveConfig(),
        )
        assert out.f <= np.cos(1.0) + 0.01

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            bfgs_minimize(lambda x: 0.0, lambda x: x, np.array([np.inf]), SolveConfig())


class TestMeasurementRange:
    def test_accepts_valid(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        check_measurement_range(basis, [0.3])

    def test_rejects_out_of_range(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        with pytest.raises(ValueError):
            check_measurement_range(basis, [1.5])

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6])
    def test_accepts_edge_levels_of_large_norm_term(self, scale):
        # a term's expectation in its lowest or highest eigenstate sits on the
        # range's edge, up to round-off that grows with the term's norm
        for seed in range(20):
            term = scale * basis_generic(16, 1, np.random.default_rng(seed)).terms[0]
            basis = OperatorBasis(dim=16, terms=[term], labels=["A1"])
            for k in (0, 15):
                check_measurement_range(basis, eigenstate_measurements(basis, [1.0], k).a)

    def test_slack_scales_with_spectral_radius(self):
        basis = OperatorBasis(dim=2, terms=[1e6 * PAULI_Z], labels=["z"])
        check_measurement_range(basis, [1e6 + 1e-5])
        with pytest.raises(ValueError, match="outside the numerical range"):
            check_measurement_range(basis, [1e6 + 1e-3])

    def test_rejects_wrong_length(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        with pytest.raises(ValueError):
            check_measurement_range(basis, [0.1, 0.2])

    @pytest.mark.parametrize("a, k", [([np.nan, 0.1], 0), ([0.1, np.inf], 1), ([0.1, -np.inf], 1)])
    def test_rejects_non_finite(self, a, k):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z, PAULI_Z], labels=["z", "z2"])
        with pytest.raises(ValueError, match=rf"a\[{k}\] = .* is not finite"):
            check_measurement_range(basis, a)


class TestSolveHamiltonian:
    def test_single_term_sigma_z(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        result = solve_hamiltonian(basis, [1.0], SolveConfig(seed=0))
        assert result.converged
        assert result.f_final < 1e-8
        # the flat tail forces the scale out well beyond the init range
        assert abs(result.x_opt[0]) > 2.3
        assert result.ground_prob_final > 0.99

    def test_generic_instance(self):
        rng = np.random.default_rng(307)
        basis = basis_generic(8, 3, rng)
        c = rng.uniform(0, 1, 3)
        rec = eigenstate_measurements(basis, c, 5)
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=1))
        assert result.converged
        u = result.x_opt / np.linalg.norm(result.x_opt)
        v = c / np.linalg.norm(c)
        assert abs(abs(u @ v) - 1.0) < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(311)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 1)
        r1 = solve_hamiltonian(basis, rec.a, SolveConfig(seed=42))
        r2 = solve_hamiltonian(basis, rec.a, SolveConfig(seed=42))
        assert np.array_equal(r1.x_opt, r2.x_opt)
        assert r1.f_final == r2.f_final
        assert r1.restarts == r2.restarts

    def test_gap_growth(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        result = solve_hamiltonian(basis, [1.0], SolveConfig(seed=0))
        assert result.gap_first_final > result.gap_first_initial

    def test_budget_exhaustion_reports(self, monkeypatch):
        # 1 restart, 1 iteration: cannot converge, but must return a result
        monkeypatch.setattr(optimizer, "HOPS_PER_RESTART", 0)
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        cfg = SolveConfig(seed=0, max_restarts=1, max_iters=1)
        result = solve_hamiltonian(basis, [1.0], cfg)
        assert not result.converged
        assert result.restarts == 1

    def test_solve_steps_match_solve_hamiltonian(self):
        # the generator that lockstep callers drive, answered by the same
        # objective calls, returns solve_hamiltonian's result bit for bit
        rng = np.random.default_rng(313)
        basis = basis_generic(8, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), 4)
        cfg = SolveConfig(seed=9, max_restarts=20)
        obj, steps = solve_steps(basis, rec.a, cfg)
        points = []

        def answer(x):
            points.append(x)
            return obj.value(x), obj.gradient(x)

        got = optimizer._drive(steps, answer)
        want = solve_hamiltonian(basis, rec.a, cfg)
        assert np.array_equal(got.x_opt, want.x_opt)
        assert {k: v for k, v in vars(got).items() if k != "x_opt"} == {
            k: v for k, v in vars(want).items() if k != "x_opt"
        }
        assert len(points) > got.iterations
