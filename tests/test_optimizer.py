"""Unit tests for the BFGS minimizer, line search, and restart loop."""

import numpy as np
import pytest

from hamlearn import harness, optimizer
from hamlearn.harness import ExperimentConfig, run_experiment
from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import OperatorBasis, basis_generic, check_measurement_range, eigenstate_measurements
from hamlearn.optimizer import (
    LINE_SEARCH_MAX_EVALS,
    SolveConfig,
    _cubic_minimum,
    _LineSearchFailure,
    _drive,
    _wolfe_steps,
    bfgs_minimize,
    solve_hamiltonian,
    solve_steps,
)

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SWEEP_SEED = 0  # a local_full n=3 level sweep


class TestSolveConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.eps == 1e-8
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
            {"eps": 10**400},
            # past Python's 4,300-digit limit for str() of an integer
            {"eps": 10**5000},
        ],
    )
    def test_validation(self, kwargs):
        # refused by name, in a message that shows at most a short echo of the value
        (key,) = kwargs
        with pytest.raises(ValueError) as info:
            SolveConfig(**kwargs)
        assert key in str(info.value) and len(str(info.value)) < 200

    def test_from_dict_rejects_unknown(self):
        for obj in ({"epsilon": 1e-8}, {"hops_per_restart": 12}):
            with pytest.raises(ValueError, match="unknown solve-config keys"):
                SolveConfig.from_dict(obj)


class _Line:
    """Answers a line search from x = 0 along p (a 1-vector) with
    (phi(t), [dphi(t)]) at the point t = a p, recording each trial point."""

    def __init__(self, phi, dphi):
        self.phi, self.dphi, self.trials = phi, dphi, []

    @property
    def calls(self):
        return len(self.trials)

    def __call__(self, point):
        (t,) = point
        self.trials.append(t)
        return self.phi(t), np.array([self.dphi(t)])

    def search(self, f0, slope, p=1.0):
        return _drive(_wolfe_steps(np.zeros(1), np.array([p]), f0, slope), self)


def _cubic_wall(a):
    # f = -a up to a = 0.1, then a steep cubic wall: the cubic step past the
    # wall's foot lands beyond the minimum, where f is still below f(0)
    return -a + 100 * max(0.0, a - 0.1) ** 3, -1 + 300 * max(0.0, a - 0.1) ** 2


# (phi, dphi, p, the trial points, the returned step or None for a failure),
# one per transition of the search's state; a_max is 1000 along p = 1
WOLFE_TRIALS = {
    # every trial passes sufficient decrease and fails curvature: the steps
    # double up to a_max, where the search takes the capped step
    "extend_to_a_max": (
        lambda t: -t, lambda t: -1.0, 1.0, [2.0**k for k in range(10)] + [1000.0], 1000.0),
    # the first trial breaks sufficient decrease: bracket [0, 1], and the
    # cubic step (the minimizer of this quadratic) meets curvature
    "armijo_fails_first": (
        lambda t: (t - 0.1) ** 2, lambda t: 2 * (t - 0.1), 1.0, [1.0, 0.09999999999999987], 0.09999999999999987),
    # a positive slope at the first trial while unbracketed: the bracket is
    # (1, 0), low end first, and the cubic step lands on the minimum 2/3
    "positive_slope_unbracketed": (
        lambda t: -t + 0.75 * t**3, lambda t: -1 + 2.25 * t**2, 1.0, [1.0, 0.6666666666666666], 0.6666666666666666),
    # the bracketed swap rule, ga (a_hi - a_lo) >= 0: the second trial has f
    # below f(0) but a slope pointing back at the low end 0, which moves to
    # the high end
    "bracketed_swap": (
        lambda t: _cubic_wall(t)[0], lambda t: _cubic_wall(t)[1], 1.0,
        [1.0, 0.18518518518518512, 0.14749998324149532], 0.14749998324149532),
    # f(1) equals f0 and f0 + c1 slope rounds to f0: a trial that does not
    # undercut f_lo brackets only once a_lo > 0, so the first trial, where
    # f' = 0, is accepted (without that guard the search tries 1, then 1/3)
    "no_rise_from_a_lo_0": (
        lambda t: 1e-15 - 1e-30 * t * (1 - t) ** 2, lambda t: -1e-30 * (1 - t) * (1 - 3 * t), 1.0, [1.0], 1.0),
    # the budget runs out while unbracketed: a_max = 1e33 along p = 1e-30
    "budget_unbracketed": (
        lambda t: -t, lambda t: -1.0, 1e-30, [2.0**k * 1e-30 for k in range(LINE_SEARCH_MAX_EVALS)], None),
    # the last trial of the budget brackets a step, which leaves none to narrow it
    "budget_brackets_last": (
        lambda t: -t if t < 1.5 * 2.0**58 * 1e-30 else 1.0, lambda t: -1.0, 1e-30,
        [2.0**k * 1e-30 for k in range(LINE_SEARCH_MAX_EVALS)], None),
}


class TestWolfeSearch:
    @pytest.mark.parametrize("phi, dphi, p, trials, step", WOLFE_TRIALS.values(), ids=WOLFE_TRIALS.keys())
    def test_trials(self, phi, dphi, p, trials, step):
        line = _Line(phi, dphi)
        if step is None:
            with pytest.raises(_LineSearchFailure):
                line.search(phi(0.0), dphi(0.0) * p, p)
        else:
            a, fa, point, grad = line.search(phi(0.0), dphi(0.0) * p, p)
            assert a == step and fa == phi(a * p) and point.tolist() == [a * p] and grad.tolist() == [dphi(a * p)]
        assert line.trials == trials

    def test_round_off_flat_line_fails_fast(self):
        # a line that is stationary to round-off: f rises by 1e-13 at every
        # a > 0, which no step can undercut, and the slope is 1e-16 * f0
        line = _Line(lambda a: 0.25 if a == 0 else 0.25 + 1e-13, lambda a: -1e-16)
        with pytest.raises(_LineSearchFailure):
            line.search(0.25, -1e-16)
        assert line.calls <= 5

    @pytest.mark.parametrize(
        "c, s, alpha, evals",
        [(0.3, 1.0, 0.30000000000000004, 2), (0.01, 10.0, 0.009999999999999981, 5), (20.0, 1.0, 2.0, 2)],
    )
    def test_quadratic_steps_unchanged(self, c, s, alpha, evals):
        # phi(a) = s (a - c)^2 / 2 + 1: zooms down to c, or extends past a = 1
        line = _Line(lambda a: 0.5 * s * (a - c) ** 2 + 1.0, lambda a: s * (a - c))
        a, fa, point, grad = line.search(0.5 * s * c * c + 1.0, -s * c)
        assert (a, line.calls) == (alpha, evals)
        assert fa == line.phi(a)
        assert point.tolist() == [a] and grad.tolist() == [line.dphi(a)]

    def test_zoom_spends_its_budget(self):
        # a cliff: f = -a falls at slope -1 up to a = 1 and stands at 1
        # beyond it. Every trial below the cliff passes the sufficient
        # decrease test and fails the curvature test, and the bracket
        # narrows too slowly to reach its width floor
        line = _Line(lambda a: -a if a < 1 else 1.0, lambda a: -1.0)
        with pytest.raises(_LineSearchFailure):
            line.search(0.0, -1.0)
        assert line.calls == LINE_SEARCH_MAX_EVALS

    @pytest.mark.parametrize(
        "point, why",
        [
            ((0.5, 0.0, -1.0, 0.5, -1.0, 1.0), "a_lo = a_hi"),
            ((0.0, 0.0, 1.0, 1.0, 2 / 3, 1.0), "no real stationary point: d1 = 0, disc = -1"),
            ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0), "a flat cubic: denominator 0"),
        ],
        ids=["same_point", "negative_discriminant", "zero_denominator"],
    )
    def test_cubic_minimum_unusable(self, point, why):
        # the search then bisects its bracket
        assert _cubic_minimum(*point) is None, why


def quadratic():
    """f and grad of a convex quadratic, minimum at Q^{-1} b, and that minimum."""
    q = np.array([[3.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])
    return lambda x: 0.5 * x @ q @ x - b @ x, lambda x: q @ x - b, np.linalg.solve(q, b)


def rosenbrock():
    """f and grad of the Rosenbrock function, minimum 0 at (1, 1)."""
    return (
        lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
        lambda x: np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2), 200 * (x[1] - x[0] ** 2)]),
    )


class TestBfgs:
    def test_quadratic(self):
        f, g, sol = quadratic()
        out = bfgs_minimize(f, g, np.array([5.0, 5.0]), SolveConfig(), f_target=-np.inf)
        assert out.grad_norm < optimizer.GRAD_NORM_STOP
        assert out.stop == "gradient"
        assert np.linalg.norm(out.x - sol) < 1e-5

    def test_inverse_hessian_estimate(self, monkeypatch):
        # with a near-exact line search the BFGS matrix approaches Q^{-1}
        monkeypatch.setattr(optimizer, "WOLFE_C2", 1e-3)
        rng = np.random.default_rng(211)
        a = rng.standard_normal((3, 3))
        q = a @ a.T + 3 * np.eye(3)
        out = bfgs_minimize(
            lambda x: 0.5 * x @ q @ x,
            lambda x: q @ x,
            rng.standard_normal(3),
            SolveConfig(),
            f_target=-np.inf,
        )
        assert np.linalg.norm(out.inv_hessian - np.linalg.inv(q)) < 1e-4

    def test_rosenbrock(self):
        out = bfgs_minimize(*rosenbrock(), np.array([-1.2, 1.0]), SolveConfig(), f_target=-np.inf)
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
        assert out.stop == "target"
        assert out.grad_norm < 2e-2  # |2x| at the returned x, where x^2 < 1e-4

    def test_runaway_stops_at_norm_cap(self):
        # f = -x falls forever: the first search accepts its capped step,
        # a_max = 1e3 * (1 + 0.5) = 1500, and the second step would leave
        # ITERATE_NORM_CAP, so the run ends on the first one's point
        out = bfgs_minimize(lambda x: float(-x[0]), lambda x: -np.ones(1), np.array([0.5]), SolveConfig(), f_target=-np.inf)
        assert (out.stop, out.iterations) == ("norm_cap", 2)
        assert out.x.tolist() == [1500.5]

    def test_bracket_spends_its_budget(self):
        # f = -1e-12 x from x0 = 1000: steepest descent p = 1e-12 caps the
        # step at 1e3 (1 + 1000) / 1e-12, about 2^60, and doubling from 1
        # spends all LINE_SEARCH_MAX_EVALS trials below it, none of which
        # meets the curvature test
        xs = []
        out = bfgs_minimize(
            lambda x: xs.append(x) or float(-1e-12 * x[0]),
            lambda x: np.array([-1e-12]),
            np.array([1000.0]),
            SolveConfig(),
            f_target=-np.inf,
        )
        assert (out.stop, out.iterations, out.x.tolist()) == ("line_search", 0, [1000.0])
        assert len(xs) == 1 + LINE_SEARCH_MAX_EVALS
        assert xs[-1][0] == 1000.0 + 2.0 ** (LINE_SEARCH_MAX_EVALS - 1) * 1e-12

    def test_returns_best_iterate(self):
        out = bfgs_minimize(
            lambda x: float(np.cos(x[0]) + 0.01 * x[0] ** 2),
            lambda x: np.array([-np.sin(x[0]) + 0.02 * x[0]]),
            np.array([1.0]),
            SolveConfig(),
            f_target=-np.inf,
        )
        assert out.f <= np.cos(1.0) + 0.01

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            bfgs_minimize(lambda x: 0.0, lambda x: x, np.array([np.inf]), SolveConfig(), f_target=-np.inf)


class TestLastIterateIsBest:
    """bfgs_minimize returns its last iterate, which is its best only because
    the line search never accepts a step that raises f."""

    @pytest.fixture
    def accepted(self, monkeypatch) -> list:
        """(f0, (a, f, x, grad)) of every step a line search accepts, in order."""
        steps = []
        search = optimizer._wolfe_steps

        def recording(x, p, f0, slope):
            out = yield from search(x, p, f0, slope)
            steps.append((f0, out))
            return out

        monkeypatch.setattr(optimizer, "_wolfe_steps", recording)
        return steps

    def check_run(self, accepted, f, g, x0, f_target):
        accepted.clear()
        out = bfgs_minimize(f, g, x0, SolveConfig(), f_target=f_target)
        for f0, (_, fa, _, _) in accepted:
            assert fa <= f0
        # a step past the norm cap is accepted by the search, not taken
        taken = accepted[:-1] if out.stop == "norm_cap" else accepted
        for (_, (_, f_prev, _, _)), (f0, _) in zip(taken, taken[1:]):
            assert f0 == f_prev
        if taken:
            _, (_, f_last, x_last, g_last) = taken[-1]
        else:
            f_last, x_last, g_last = f(x0), x0, g(x0)
        assert np.array_equal(out.x, x_last)
        assert (out.f, out.grad_norm, out.iterations) == (f_last, float(np.linalg.norm(g_last)), len(taken))
        return len(taken)

    def test_quadratic_and_rosenbrock(self, accepted):
        f, g, _ = quadratic()
        assert self.check_run(accepted, f, g, np.array([5.0, 5.0]), -np.inf) > 0
        assert self.check_run(accepted, *rosenbrock(), np.array([-1.2, 1.0]), -np.inf) > 10

    @pytest.mark.parametrize("seed", [401, 402, 403])
    def test_generic_objectives(self, accepted, seed):
        rng = np.random.default_rng(seed)
        basis = basis_generic(16, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), int(rng.integers(16)))
        obj = ReconstructionObjective(basis, rec.a)
        taken = sum(
            self.check_run(accepted, obj.value, obj.gradient, rng.uniform(-1, 1, 3), 1e-8) for _ in range(4)
        )
        assert taken > 20


def double_well():
    """f and grad of a line with a spurious minimum near 0.96 and the global one near -1.04."""
    return (
        lambda x: float((x[0] ** 2 - 1) ** 2 + 0.3 * x[0]),
        lambda x: np.array([4 * x[0] * (x[0] ** 2 - 1) + 0.3]),
    )


class TestStopReasons:
    def test_iter_cap(self):
        out = bfgs_minimize(*rosenbrock(), np.array([-1.2, 1.0]), SolveConfig(max_iters=3), f_target=-np.inf)
        assert (out.stop, out.iterations) == ("iter_cap", 3)

    def test_hop_back_home_returns(self):
        f, g = double_well()
        spurious = bfgs_minimize(f, g, np.array([0.3]), SolveConfig(), f_target=-np.inf)
        assert spurious.x[0] > 0
        plain = bfgs_minimize(f, g, np.array([0.7]), SolveConfig(), f_target=-np.inf)
        hop = bfgs_minimize(f, g, np.array([0.7]), SolveConfig(), f_target=-np.inf, home=(spurious.x, spurious.f))
        assert (plain.stop, hop.stop) == ("gradient", "returned")
        assert hop.iterations < plain.iterations
        # no lower than the home, so it cannot replace the chain's point
        assert hop.f >= spurious.f
        assert abs(hop.x[0] - spurious.x[0]) <= optimizer.RETURN_RADIUS * abs(spurious.x[0])

    def test_hop_that_escapes_runs_on(self):
        # a hop that crosses into the deeper basin runs as if it had no home
        f, g = double_well()
        spurious = bfgs_minimize(f, g, np.array([0.3]), SolveConfig(), f_target=-np.inf)
        plain = bfgs_minimize(f, g, np.array([1.3]), SolveConfig(), f_target=-np.inf)
        hop = bfgs_minimize(f, g, np.array([1.3]), SolveConfig(), f_target=-np.inf, home=(spurious.x, spurious.f))
        assert hop.stop == "gradient" and hop.f < spurious.f
        assert np.array_equal(hop.x, plain.x) and hop.iterations == plain.iterations


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
        with pytest.raises(ValueError) as info:
            check_measurement_range(basis, a)
        assert str(info.value) == f"measurement vector a entry {k} must be finite, got {a[k]}"


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
        # 1 restart, 1 iteration: cannot converge, but must return a result.
        # An interior level: the probe wins an edge level of one Pauli term
        # in its first iteration
        monkeypatch.setattr(optimizer, "HOPS_PER_RESTART", 0)
        rng = np.random.default_rng(311)
        basis = basis_generic(4, 2, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 2), 1)
        cfg = SolveConfig(seed=0, max_restarts=1, max_iters=1)
        result = solve_hamiltonian(basis, rec.a, cfg)
        assert not result.converged
        assert result.restarts == 1

    def test_hop_proposal_draws_alike_at_zero(self):
        # a chain's variates must not depend on its iterates, x = 0 included
        at_zero, elsewhere = np.random.default_rng(5), np.random.default_rng(5)
        x0 = optimizer._hop_proposal(np.zeros(4), at_zero)
        optimizer._hop_proposal(np.ones(4), elsewhere)
        assert at_zero.bit_generator.state == elsewhere.bit_generator.state
        assert np.linalg.norm(x0) == pytest.approx(optimizer.HOP_MIN_NORM, rel=1e-15)

    def test_returned_hop_keeps_chain_point(self, bfgs_runs):
        # only hops have a home, and a hop that returned leaves the chain's
        # point as it was: the next hop of the chain has the same home
        rng = np.random.default_rng(313)
        basis = basis_generic(8, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), 4)
        solve_hamiltonian(basis, rec.a, SolveConfig(seed=9, max_restarts=20))
        assert bfgs_runs[0][0] is None
        returned = 0
        for (home, out), (next_home, _) in zip(bfgs_runs, bfgs_runs[1:]):
            if home is not None and out.stop == "returned":
                returned += 1
                assert out.f >= home[1]
                if next_home is not None:  # the chain goes on
                    assert next_home[0] is home[0] and next_home[1] == home[1]
        assert returned > 0

    def test_solve_steps_match_solve_hamiltonian(self, bfgs_runs):
        # the generator that lockstep callers drive, answered by the same
        # objective calls, returns solve_hamiltonian's result bit for bit,
        # on an instance where hops return home
        rng = np.random.default_rng(313)
        basis = basis_generic(8, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), 4)
        cfg = SolveConfig(seed=9, max_restarts=20)
        steps = solve_steps(basis, rec.a, cfg)
        obj = next(steps)
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
        stops = [out.stop for _, out in bfgs_runs]
        assert stops[: len(stops) // 2] == stops[len(stops) // 2 :]
        assert "returned" in stops

    def test_restart_starts_do_not_depend_on_outcomes(self):
        # a chain that misses eps runs all HOPS_PER_RESTART hops, and each hop
        # draws the same variates wherever it starts, so every restart's x0 sits
        # at a fixed place in the row's stream whatever the runs before it did
        rng = np.random.default_rng(317)
        basis = basis_generic(4, 3, rng)
        rec = eigenstate_measurements(basis, rng.uniform(0, 1, 3), 1)
        obj = ReconstructionObjective(basis, rec.a)
        cfg = SolveConfig(seed=11, max_restarts=3)

        def starts(outcome_seed):
            fake = np.random.default_rng(outcome_seed)

            def outcome(run):
                runs.append(run)
                x = np.zeros(obj.size) if fake.uniform() < 0.2 else fake.normal(0, 5, obj.size)
                f = float(fake.uniform(cfg.eps, 1.0))
                return optimizer.BfgsOutcome(x, f, 1.0, int(fake.integers(1, 50)), np.eye(obj.size), "iter_cap")

            runs = []
            result = _drive(optimizer._restart_steps(obj, cfg), outcome)
            assert not result.converged and result.restarts == cfg.max_restarts
            assert len(runs) == cfg.max_restarts * (1 + optimizer.HOPS_PER_RESTART)
            return [x0 for x0, home in runs if home is None]

        first, second = starts(1), starts(2)
        assert len(first) == cfg.max_restarts
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestProbe:
    @pytest.fixture
    def probe_evaluations(self, monkeypatch) -> list:
        """The x of every log_partition call the test makes, in order."""
        calls = []
        kernel = ReconstructionObjective.log_partition
        monkeypatch.setattr(ReconstructionObjective, "log_partition", lambda obj, x: calls.append(x) or kernel(obj, x))
        return calls

    def test_wins_d128_ground_state(self, probe_evaluations):
        # criterion 5's suite with one instance: a local_chain n=7 ground state
        cfg = ExperimentConfig(
            preset="local_chain", n_qubits=7, num_instances=1, seed=405, eigen_index_policy=0,
            solve=SolveConfig(max_restarts=150),
        )
        (row,) = run_experiment(cfg, threads=2)
        assert (row.restarts, row.converged, row.gap_first_initial) == (0, True, 0.0)
        assert row.abs_fidelity > 0.9999
        assert 0 < row.iterations < len(probe_evaluations) < 100

    def test_wins_only_the_edges_of_a_level_sweep(self, probe_evaluations):
        cfg = ExperimentConfig(preset="local_full", n_qubits=3, num_instances=1, seed=SWEEP_SEED, eigen_index_policy="all")
        rows = run_experiment(cfg, threads=2)
        assert [r.eigen_index for r in rows] == list(range(8))
        assert [r.eigen_index for r in rows if r.restarts == 0] == [0, 7]
        assert all(r.converged for r in rows)

    def test_unwon_row_runs_as_without_probe(self, monkeypatch):
        # an interior level: the probe draws no random numbers, so the
        # restarts run as they run with no probe, and only iterations grow
        cfg = ExperimentConfig(preset="local_full", n_qubits=3, num_instances=1, seed=SWEEP_SEED, eigen_index_policy="all")
        basis, rec, solve_cfg = harness._start_row(cfg, 4, 0, 4)  # row 4: level 4, four restarts
        probe, won = optimizer._probe(ReconstructionObjective(basis, rec.a), solve_cfg)
        assert won is None and probe.iterations > 0
        with_probe = solve_hamiltonian(basis, rec.a, solve_cfg)
        monkeypatch.setattr(optimizer, "_probe", lambda obj, cfg: (probe._replace(iterations=0), None))
        without = solve_hamiltonian(basis, rec.a, solve_cfg)
        assert np.array_equal(with_probe.x_opt, without.x_opt)
        assert (with_probe.f_final, with_probe.restarts) == (without.f_final, without.restarts)
        assert with_probe.restarts > 0 and with_probe.iterations == without.iterations + probe.iterations
