"""Acceptance gate: nine numbered criteria, one printed pass/fail line each.

The suites are deliberately seeded so reruns are byte-reproducible; each
criterion asserts both its quality threshold and its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from hamlearn import linalg
from hamlearn.harness import ExperimentConfig, run_experiment, write_rows
from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import basis_generic, eigenstate_measurements, random_hermitian
from hamlearn.optimizer import SolveConfig, solve_hamiltonian


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# Restart budget for the reconstruction suites: 150 instead of the default 50.
# Hard instances (small spectral gap at the target level) converge within a
# few dozen restart/hop chains on average, so 150 covers unlucky seeds.
ACCEPT_SOLVE = {"max_restarts": 150}

# The suites run with threads=2, which gives the serial run's rows: the
# d = 16 suites in lockstep, for less CPU, and the d = 128 suite one row at a
# time, as serially; the max-entropy probe solves its ground states in 44-51
# evaluations a row. Criterion 9 reruns the generic suite serially and
# compares the bytes.


@pytest.fixture(scope="module")
def suite_generic_n4():
    cfg = ExperimentConfig(
        preset="generic",
        n_qubits=4,
        num_instances=20,
        seed=301,
        m_terms=3,
        solve=SolveConfig(**ACCEPT_SOLVE),
    )
    return timed(lambda: run_experiment(cfg, threads=2))


@pytest.fixture(scope="module")
def suite_local_full_n4():
    cfg = ExperimentConfig(
        preset="local_full",
        n_qubits=4,
        num_instances=30,
        seed=202,
        solve=SolveConfig(**ACCEPT_SOLVE),
    )
    return timed(lambda: run_experiment(cfg, threads=2))


@pytest.fixture(scope="module")
def suite_chain_n7():
    # ground states: at d = 128 a bulk level sits ~0.02-0.07 away from its
    # neighbors and the objective's global basin becomes needle-thin, while
    # spectrum-edge gaps are an order of magnitude wider and solvable
    cfg = ExperimentConfig(
        preset="local_chain",
        n_qubits=7,
        num_instances=5,
        seed=405,
        eigen_index_policy=0,
        solve=SolveConfig(**ACCEPT_SOLVE),
    )
    return timed(lambda: run_experiment(cfg, threads=2))


@pytest.fixture(scope="module")
def suite_level_sweep_n4():
    # one 2-local Hamiltonian, solved at every one of its 16 levels
    cfg = ExperimentConfig(
        preset="local_full",
        n_qubits=4,
        num_instances=1,
        seed=505,
        eigen_index_policy="all",
        solve=SolveConfig(**ACCEPT_SOLVE),
    )
    return timed(lambda: run_experiment(cfg, threads=2))


def test_criterion_1_gradient_correctness():
    def run():
        rng = np.random.default_rng(1001)
        h = 1e-5
        worst = 0.0
        for _ in range(50):
            n = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 4))
            basis = basis_generic(2**n, m, rng)
            c = rng.uniform(0, 1, m)
            rec = eigenstate_measurements(basis, c, int(rng.integers(2**n)))
            obj = ReconstructionObjective(basis, rec.a)
            x = rng.uniform(-1, 1, m)
            g = obj.gradient(x)
            for k in range(m):
                ek = np.zeros(m)
                ek[k] = h
                fd = (obj.value(x + ek) - obj.value(x - ek)) / (2 * h)
                worst = max(worst, abs(g[k] - fd) / max(abs(fd), 1.0))
        return worst

    worst, dt = timed(run)
    ok = worst < 1e-6 and dt < 60
    announce(1, ok, f"max gradient-vs-FD relative error {worst:.2e} over 50 instances in {dt:.1f}s")


def test_criterion_2_frechet_equivalence():
    def run():
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(50):
            d = int(rng.choice([2, 4, 8, 16, 32]))
            # scale keeps the spectra modest so both routes stay well conditioned
            x = random_hermitian(d, rng) / d
            e = random_hermitian(d, rng) / d
            a = linalg.frechet_exp(x, e, method="divided_difference")
            b = linalg.frechet_exp(x, e, method="augmented_block")
            worst = max(worst, float(np.linalg.norm(a - b)))
        return worst

    worst, dt = timed(run)
    ok = worst < 1e-8 and dt < 60
    announce(2, ok, f"max Frobenius discrepancy between routes {worst:.2e} over 50 pairs in {dt:.1f}s")


def test_criterion_3_generic_reconstruction(suite_generic_n4):
    rows, dt = suite_generic_n4
    fids = np.array([r.abs_fidelity for r in rows])
    hits = int(np.sum(fids > 0.998))
    median = float(np.median(fids))

    def spot():
        rng = np.random.default_rng(1003)
        basis = basis_generic(64, 3, rng)
        c = rng.uniform(0, 1, 3)
        rec = eigenstate_measurements(basis, c, int(rng.integers(64)))
        result = solve_hamiltonian(basis, rec.a, SolveConfig(seed=0))
        from hamlearn.metrics import report

        return report(basis, result, rec).abs_fidelity

    spot_fid, spot_dt = timed(spot)
    ok = hits >= 18 and median >= 0.998 and dt < 600 and spot_fid > 0.998 and spot_dt < 600
    announce(
        3,
        ok,
        f"n=4 generic: {hits}/20 above 0.998, median {median:.5f} in {dt:.1f}s; "
        f"n=6 spot fidelity {spot_fid:.5f} in {spot_dt:.1f}s",
    )


def test_criterion_4_local_full(suite_local_full_n4):
    rows, dt = suite_local_full_n4
    mean = float(np.mean([r.abs_fidelity for r in rows]))
    ok = mean >= 0.999 and dt < 900
    announce(4, ok, f"4-qubit fully connected 2-local: mean fidelity {mean:.5f} over 30 in {dt:.1f}s")


def test_criterion_5_chain_n7(suite_chain_n7):
    rows, dt = suite_chain_n7
    fids = [r.abs_fidelity for r in rows]
    ok = all(f >= 0.995 for f in fids) and dt < 3600
    announce(5, ok, f"7-qubit chain: per-instance fidelities {['%.4f' % f for f in fids]} in {dt:.1f}s")


def test_criterion_6_level_independence(suite_level_sweep_n4):
    rows, dt = suite_level_sweep_n4
    fids = [r.abs_fidelity for r in rows]
    ok = len(rows) == 16 and all(f >= 0.999 for f in fids) and dt < 900
    announce(6, ok, f"level sweep: min fidelity {min(fids):.5f} across 16 eigenstates in {dt:.1f}s")


def test_criterion_7_diagnostics(
    suite_generic_n4, suite_local_full_n4, suite_chain_n7, suite_level_sweep_n4
):
    rows = [
        r
        for suite in (suite_generic_n4, suite_local_full_n4, suite_chain_n7, suite_level_sweep_n4)
        for r in suite[0]
        if r.converged
    ]
    bad_prob = [r.instance_id for r in rows if r.ground_prob_final <= 0.99]
    bad_gap = [r.instance_id for r in rows if r.gap_first_final <= r.gap_first_initial]
    ok = len(rows) > 0 and not bad_prob and not bad_gap
    announce(
        7,
        ok,
        f"{len(rows)} converged rows: ground_prob > 0.99 and first-gap growth on all "
        f"(violations: prob {bad_prob}, gap {bad_gap})",
    )


def test_criterion_8_objective_invariants():
    def run():
        rng = np.random.default_rng(1008)
        worst_trace = worst_psd = worst_sym = worst_eig = 0.0
        min_f = np.inf
        for _ in range(15):
            n = int(rng.choice([2, 3]))
            m = int(rng.integers(1, 4))
            basis = basis_generic(2**n, m, rng)
            c = rng.uniform(0, 1, m)
            k = int(rng.integers(2**n))
            rec = eigenstate_measurements(basis, c, k)
            w = np.linalg.eigvalsh(sum(ci * t for ci, t in zip(c, basis.terms)))
            worst_eig = max(worst_eig, abs(float(c @ rec.a) - w[k]))
            obj = ReconstructionObjective(basis, rec.a)
            for _ in range(4):
                x = rng.uniform(-2, 2, m)
                rho = obj._forward(x)["v6"]
                worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
                worst_psd = max(worst_psd, max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))))
                worst_sym = max(worst_sym, abs(obj.value(x) - obj.value(-x)))
                min_f = min(min_f, obj.value(x))
        return worst_trace, worst_psd, worst_sym, worst_eig, min_f

    (wt, wp, ws, we, mf), dt = timed(run)
    ok = wt < 1e-10 and wp < 1e-10 and ws < 1e-10 and we < 1e-10 and mf >= 0 and dt < 60
    announce(
        8,
        ok,
        f"rho trace dev {wt:.1e}, PSD dev {wp:.1e}, sign-symmetry dev {ws:.1e}, "
        f"eigenvalue identity dev {we:.1e}, min f {mf:.2e} in {dt:.1f}s",
    )


def test_criterion_9_determinism(tmp_path, suite_generic_n4):
    cfg = ExperimentConfig(
        preset="generic",
        n_qubits=4,
        num_instances=20,
        seed=301,
        m_terms=3,
        solve=SolveConfig(**ACCEPT_SOLVE),
    )
    rows_again = run_experiment(cfg)  # serial, against the fixture's lockstep rows

    def canonical(rows, path):
        write_rows(rows, path)
        lines = []
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            payload.pop("wall_ms")
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines)

    first = canonical(suite_generic_n4[0], tmp_path / "a.jsonl")
    second = canonical(rows_again, tmp_path / "b.jsonl")
    ok = first == second
    announce(9, ok, "serial rerun of the lockstep generic suite is byte-identical modulo wall_ms")
