"""Unit tests for the experiment harness: configs, seeding, rows, summaries."""

import concurrent.futures
import json
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from hamlearn import harness
from hamlearn.harness import (
    ExperimentConfig,
    ResultRow,
    _gen_rng,
    _instance_seed,
    _row_tasks,
    read_rows,
    run_experiment,
    summarize,
    write_rows,
)
from hamlearn.objective import ReconstructionObjective, stack_operands
from hamlearn.operators import (
    GAP_TOL,
    DegenerateEigenstateError,
    LatticeSpec,
    OperatorBasis,
    basis_generic,
    eigenstate_measurements,
    levels_separated,
    read_json,
    true_eigenstate,
)
from hamlearn.optimizer import SolveConfig


def small_config(**overrides):
    base = dict(preset="generic", n_qubits=2, num_instances=3, seed=7, m_terms=2)
    base.update(overrides)
    return ExperimentConfig(**base)


# two-term bases of d = 4: every level of DEGENERATE is degenerate, levels 0
# and 1 of PARTIAL are, and with positive coefficients levels 2 and 3 are not
DEGENERATE = OperatorBasis(dim=4, terms=[np.eye(4), np.eye(4)], labels=["I1", "I2"])
PARTIAL = OperatorBasis(dim=4, terms=[np.diag([0.0, 0.0, 1.0, 2.0]), np.eye(4)], labels=["D", "I"])


def without_wall(row) -> dict:
    out = row.to_json()
    del out["wall_ms"]
    return out


class TestConfig:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="exotic", n_qubits=2, num_instances=1)

    def test_generic_needs_m_terms(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="generic", n_qubits=2, num_instances=1)

    def test_custom_needs_lattice(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="custom", n_qubits=3, num_instances=1)

    def test_custom_levels_follow_lattice(self):
        # a custom lattice's rows have 2**n_qubits levels, as its num_qubits agrees
        custom = dict(preset="custom", n_qubits=2, m_terms=None, lattice=LatticeSpec.chain(2))
        assert len(_row_tasks(small_config(num_instances=1, eigen_index_policy="all", **custom))) == 4
        assert small_config(eigen_index_policy=3, **custom).eigen_index_policy == 3
        with pytest.raises(ValueError, match="out of range"):
            small_config(eigen_index_policy=4, **custom)

    def test_n_qubits_beyond_max_dim_refused(self):
        # 2**9 = 512 > linalg.MAX_DIM: refused by the config, before a draw allocates a term
        with pytest.raises(ValueError, match=r"^n_qubits must be <= 8 \(dimension <= 256\), got 9$"):
            small_config(n_qubits=9)
        assert small_config(n_qubits=8).n_qubits == 8
        # past Python's 4,300-digit limit for str() of an integer: still refused by name
        with pytest.raises(ValueError) as info:
            ExperimentConfig(preset="generic", n_qubits=10**5000, num_instances=1, m_terms=2)
        assert str(info.value) == "n_qubits must be <= 8 (dimension <= 256), got a 5001-digit integer"

    @pytest.mark.parametrize("n_qubits", [1, 3, 6])
    def test_custom_n_qubits_must_match_lattice(self, n_qubits):
        with pytest.raises(ValueError, match="differs from the lattice num_qubits 2"):
            small_config(preset="custom", n_qubits=n_qubits, m_terms=None, lattice=LatticeSpec.chain(2))

    def test_level_sweep_preset_is_gone(self):
        # a level sweep is eigen_index_policy "all" on any preset
        with pytest.raises(ValueError, match="unknown preset 'level_sweep'"):
            ExperimentConfig.from_dict({"preset": "level_sweep", "n_qubits": 2, "num_instances": 1})

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            small_config(eigen_index_policy="lowest")
        with pytest.raises(ValueError):
            small_config(eigen_index_policy=4)  # out of range for 2 qubits

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_instances": 2.5},
            {"n_qubits": 2.0},
            {"n_qubits": True},
            {"seed": 1.5},
            {"seed": -1},
            {"m_terms": 2.0},
            {"eigen_index_policy": True},
        ],
    )
    def test_rejects_non_integers(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {
                "preset": "custom",
                "n_qubits": 3,
                "num_instances": 2,
                "seed": 5,
                "lattice": {"num_qubits": 3, "edges": [[1, 2], [2, 3]]},
                "solve": {"max_restarts": 10},
            }
        )
        assert cfg.lattice == LatticeSpec(3, ((1, 2), (2, 3)))
        assert cfg.solve.max_restarts == 10

    def test_from_dict_solve_null_is_default(self):
        base = {"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 1}
        assert ExperimentConfig.from_dict({**base, "solve": None}).solve == SolveConfig()

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 1, "mystery": 1})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 2}))
        cfg = ExperimentConfig.from_dict(read_json(path))
        assert cfg.preset == "generic"


class TestSeeding:
    def test_streams_differ(self):
        assert _instance_seed(7, 0, 0) != _instance_seed(7, 0, 1)
        assert _instance_seed(7, 0, 0) != _instance_seed(7, 1, 0)

    def test_gen_rng_reproducible(self):
        a = _gen_rng(7, 2).uniform(size=4)
        b = _gen_rng(7, 2).uniform(size=4)
        assert np.array_equal(a, b)


class TestRowTasks:
    def test_plain(self):
        tasks = _row_tasks(small_config())
        assert tasks == [(0, 0, None), (1, 1, None), (2, 2, None)]

    def test_fixed_index(self):
        tasks = _row_tasks(small_config(eigen_index_policy=2))
        assert all(t[2] == 2 for t in tasks)

    def test_level_sweep_single_instance(self):
        cfg = ExperimentConfig(
            preset="local_full", n_qubits=2, num_instances=1, seed=1, eigen_index_policy="all"
        )
        tasks = _row_tasks(cfg)
        assert len(tasks) == 4  # one instance, every level
        assert [t[2] for t in tasks] == [0, 1, 2, 3]

    def test_level_sweep_every_instance(self):
        # each instance is swept in turn, row ids counting on across them
        tasks = _row_tasks(small_config(num_instances=2, eigen_index_policy="all"))
        assert tasks == [(r, r // 4, r % 4) for r in range(8)]


class TestDrawInstance:
    @pytest.mark.parametrize(
        "policy, level, first",
        [("random", None, DEGENERATE), (1, 1, DEGENERATE), ("all", 2, PARTIAL)],
        ids=["random_level", "fixed_level", "level_sweep"],
    )
    def test_degenerate_draw_is_redrawn(self, monkeypatch, policy, level, first):
        # a sweep redraws a Hamiltonian with any degenerate level, even where its own level is not
        draws = []
        draw = harness._draw_instance

        def degenerate_first(cfg, rng):
            basis, c_true = draw(cfg, rng)
            draws.append((basis, c_true))
            return (first, c_true) if len(draws) == 1 else (basis, c_true)

        monkeypatch.setattr(harness, "_draw_instance", degenerate_first)
        basis, record = harness.draw_instance(small_config(eigen_index_policy=policy), 0, level)
        assert len(draws) == 2
        assert basis is draws[1][0]
        assert np.array_equal(record.truth.c_true, draws[1][1])
        if level is not None:
            assert record.truth.eigen_index == level

    def test_degenerate_level_is_redrawn(self, monkeypatch):
        # a random level that is degenerate is drawn again on the same Hamiltonian
        draw = harness._draw_instance
        monkeypatch.setattr(harness, "_draw_instance", lambda cfg, rng: (PARTIAL, draw(cfg, rng)[1]))
        measure = harness.eigenstate_measurements
        tried = []
        monkeypatch.setattr(
            harness, "eigenstate_measurements", lambda basis, c, k: tried.append(k) or measure(basis, c, k)
        )
        attempts = []
        for instance_index in range(8):
            tried.clear()
            basis, record = harness.draw_instance(small_config(), instance_index, None)
            assert basis is PARTIAL
            assert record.truth.eigen_index == tried[-1] and tried[-1] in (2, 3)
            assert all(k in (0, 1) for k in tried[:-1])
            attempts.append(len(tried))
        assert max(attempts) > 1

    @pytest.mark.parametrize("gap", [GAP_TOL, np.nextafter(GAP_TOL, 1.0)], ids=["at_gap_tol", "one_ulp_above"])
    def test_gap_tol_boundary(self, monkeypatch, gap):
        # levels exactly GAP_TOL apart are one level for the sweep and for
        # true_eigenstate alike; one ulp further apart they are two for both
        basis, c = OperatorBasis(dim=4, terms=[np.diag([0.0, gap, 1.0, 2.0])], labels=["D"]), np.ones(1)
        assert true_eigenstate(basis, c, 3)[0][1] == gap  # eigh of a diagonal H is exact
        monkeypatch.setattr(harness, "_draw_instance", lambda cfg, rng: (basis, c))
        sweep = small_config(eigen_index_policy="all")
        assert harness.draw_instance(small_config(eigen_index_policy=2), 0, 2)[1].truth.eigen_index == 2
        if gap == GAP_TOL:
            assert not levels_separated(basis, c)
            with pytest.raises(DegenerateEigenstateError, match=r"^eigenvalue 0 is degenerate \(gap 1\.000e-08 "):
                true_eigenstate(basis, c, 0)
            with pytest.raises(RuntimeError, match="could not draw a non-degenerate instance"):
                harness.draw_instance(sweep, 0, 2)  # level 2 alone is separated; the sweep needs every level
        else:
            assert levels_separated(basis, c)
            true_eigenstate(basis, c, 0)
            assert harness.draw_instance(sweep, 0, 0)[1].truth.eigen_index == 0

    def test_gives_up_after_max_redraws(self, monkeypatch):
        draws = []
        monkeypatch.setattr(harness, "_draw_instance", lambda cfg, rng: draws.append(rng) or (DEGENERATE, np.ones(2)))
        with pytest.raises(RuntimeError, match=r"^could not draw a non-degenerate instance after 10 attempts$"):
            harness.draw_instance(small_config(), 0, None)
        assert len(draws) == harness.MAX_REDRAWS


class TestRunExperiment:
    def test_rows_and_fields(self):
        rows = run_experiment(small_config())
        assert len(rows) == 3
        for r in rows:
            payload = r.to_json()
            assert tuple(payload) == tuple(f.name for f in fields(ResultRow))
            assert r.converged
            assert r.abs_fidelity > 0.99
            assert r.m == 2
            assert r.wall_ms > 0

    def test_determinism_modulo_wall_ms(self):
        rows1 = run_experiment(small_config())
        rows2 = run_experiment(small_config())
        for a, b in zip(rows1, rows2):
            da, db = a.to_json(), b.to_json()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

    @pytest.mark.parametrize("threads", [0, -1, 1.5])
    def test_rejects_bad_threads(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(small_config(), threads=threads)

    def test_threads_match_serial(self):
        # every field but wall_ms, on a generic, a local_full, a local_chain and a level-sweep suite
        for overrides in (
            {},
            {"preset": "local_full", "n_qubits": 3, "num_instances": 4, "m_terms": None},
            {"preset": "local_chain", "n_qubits": 3, "num_instances": 4, "m_terms": None},
            {"preset": "local_full", "n_qubits": 2, "num_instances": 1, "m_terms": None, "eigen_index_policy": "all"},
        ):
            cfg = small_config(**overrides)
            serial = [without_wall(r) for r in run_experiment(cfg, threads=1)]
            for threads in (2, 3):
                assert [without_wall(r) for r in run_experiment(cfg, threads=threads)] == serial

    def test_threads_match_serial_with_returning_hops(self, bfgs_runs):
        # a generic n=4 (d = 16) suite whose hops fall back home on every
        # path: the serial run and the lockstep worker stop them alike
        cfg = small_config(n_qubits=4, num_instances=4, m_terms=3)
        serial = [without_wall(r) for r in run_experiment(cfg, threads=1)]
        for threads in (2, 3):
            assert "returned" in [out.stop for _, out in bfgs_runs]
            bfgs_runs.clear()
            assert [without_wall(r) for r in run_experiment(cfg, threads=threads)] == serial
        assert "returned" in [out.stop for _, out in bfgs_runs]

    def test_lockstep_under_contention(self, monkeypatch):
        # more _run_row threads than cores and a switch interval short
        # enough to interleave them everywhere: every row must still come
        # back once, as the serial run has it. d = 4 rows count as wide
        # here, so they take the thread pool
        monkeypatch.setattr(harness, "STACK_DIM_MAX", 2)
        cfg = small_config(num_instances=9)
        serial = [without_wall(r) for r in run_experiment(cfg, threads=1)]
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: out.append(run_experiment(cfg, threads=5)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [without_wall(r) for r in out[0]] == serial

    def test_narrow_rows_start_no_thread(self, monkeypatch):
        # at d <= STACK_DIM_MAX one lockstep worker runs in the calling thread
        cfg = small_config()
        serial = [without_wall(r) for r in run_experiment(cfg, threads=1)]

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert [without_wall(r) for r in run_experiment(cfg, threads=3)] == serial

    def test_refills_match_serial(self, monkeypatch):
        # more rows than ROWS_IN_FLIGHT: rows leave mid-stack, new ones fill
        # their slots, and the operands are stacked again each time, and
        # only then. A stale stack that no longer has one row a point would
        # be answered row by row, so the row counts are checked directly
        cfg = small_config(num_instances=20)
        assert cfg.num_instances > harness.ROWS_IN_FLIGHT
        serial = [without_wall(r) for r in run_experiment(cfg, threads=1)]
        stacks, steps = [], []
        stack, evaluate = harness.stack_operands, harness.evaluate_stacked
        monkeypatch.setattr(harness, "stack_operands", lambda objs: stacks.append(len(objs)) or stack(objs))
        monkeypatch.setattr(
            harness, "evaluate_stacked", lambda ops, xs: steps.append((len(ops[2]), len(xs))) or evaluate(ops, xs)
        )
        assert [without_wall(r) for r in run_experiment(cfg, threads=2)] == serial
        assert all(rows == points for rows, points in steps)
        assert cfg.num_instances / harness.ROWS_IN_FLIGHT < len(stacks) < len(steps) / 10

    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_error_propagates(self, monkeypatch, threads):
        # a row that raises inside a lockstep batch raises what the serial run raises
        draw = harness.draw_instance

        def failing_draw(cfg, instance_index, *args):  # instance i is row i here
            if instance_index in (1, 2):
                raise RuntimeError(f"row {instance_index} cannot be drawn")
            return draw(cfg, instance_index, *args)

        monkeypatch.setattr(harness, "draw_instance", failing_draw)
        with pytest.raises(RuntimeError, match=r"^row 1 cannot be drawn$"):
            run_experiment(small_config(num_instances=4), threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_report_error_propagates(self, monkeypatch, threads):
        # a row whose report raises after its solve counts as failed like a
        # row that cannot be drawn; the lower row id's error is raised
        draw, report = harness.draw_instance, harness.metrics.report
        rows = {}  # id of each drawn record: its row

        def failing_draw(cfg, instance_index, *args):  # instance i is row i here
            if instance_index == 3:
                raise RuntimeError("row 3 cannot be drawn")
            basis, record = draw(cfg, instance_index, *args)
            rows[id(record)] = instance_index
            return basis, record

        def failing_report(basis, result, record):
            if rows[id(record)] == 2:
                raise RuntimeError("row 2 cannot be reported")
            return report(basis, result, record)

        monkeypatch.setattr(harness, "draw_instance", failing_draw)
        monkeypatch.setattr(harness.metrics, "report", failing_report)
        with pytest.raises(RuntimeError, match=r"^row 2 cannot be reported$"):
            run_experiment(small_config(num_instances=4), threads=threads)

    def test_row_whose_evaluation_raises_fails_alone(self, monkeypatch):
        # a row whose point raises even when evaluated alone gets that
        # exception as its result; the rows stacked beside it run on
        cfg = small_config(num_instances=4)
        serial = [without_wall(r) for r in run_experiment(cfg)]
        error, failing = ValueError("row 1 cannot be evaluated"), []
        answers = harness._answers

        def failing_answers(objectives, points, ops):
            if not failing:  # the first step holds every row, in row-id order
                failing.append(objectives[1])
            return [error if obj is failing[0] else a for obj, a in zip(objectives, answers(objectives, points, ops))]

        monkeypatch.setattr(harness, "_answers", failing_answers)
        done = harness._lockstep_worker(cfg, harness._row_tasks(cfg))
        assert done[1] is error
        assert [without_wall(done[k]) for k in (0, 2, 3)] == [serial[k] for k in (0, 2, 3)]

    def test_rows_in_flight_follow_row_dimension(self, monkeypatch):
        # n_qubits sets the rows' dimension, a custom lattice's too: wide
        # rows run _run_row in a pool, narrow ones start no thread
        pools = []
        pool = concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or pool(**kw))
        monkeypatch.setattr(harness, "_run_row", lambda cfg, row_id, *args: row_id)
        wide = small_config(preset="custom", n_qubits=5, m_terms=None, lattice=LatticeSpec.chain(5))
        assert run_experiment(wide, threads=2) == [0, 1, 2]
        assert pools == [{"max_workers": 2}]
        narrow = small_config(preset="custom", n_qubits=2, m_terms=None, lattice=LatticeSpec.chain(2))
        assert len(run_experiment(narrow, threads=2)) == 3
        assert len(pools) == 1

    def test_failed_stack_answered_row_by_row(self):
        # one row's non-finite point makes the stacked evaluation raise; each
        # row is then answered alone, and only that row gets the exception
        rng = np.random.default_rng(5)
        objectives, points = [], []
        for i in range(3):
            basis = basis_generic(4, 2, rng)
            rec = eigenstate_measurements(basis, rng.uniform(0, 1, 2), 1)
            objectives.append(ReconstructionObjective(basis, rec.a))
            points.append(np.array([np.nan, 0.0]) if i == 1 else rng.uniform(-1, 1, 2))
        answers = harness._answers(objectives, points, stack_operands(objectives))
        assert isinstance(answers[1], ValueError)
        for i in (0, 2):
            alone = ReconstructionObjective(objectives[i].basis, objectives[i].a)
            f, g = answers[i]
            assert f == alone.value(points[i])
            assert np.array_equal(g, alone.gradient(points[i]))


class TestSummarizeAndIo:
    def test_summarize(self):
        rows = run_experiment(small_config())
        s = summarize([r.to_json() for r in rows])
        assert s["count"] == 3
        assert 0 <= s["mean_abs_fidelity"] <= 1
        assert s["convergence_rate"] == 1.0
        assert len(s["histogram"]["counts"]) == 20

    def test_summarize_bins_fidelity_past_one(self):
        # a fidelity past 1 by round-off is binned at 1; the statistics keep the raw values
        fids = [1.0000000000000002, 1.0, 0.995, 0.5]
        s = summarize([{"abs_fidelity": f, "converged": True} for f in fids])
        hist = s["histogram"]
        assert sum(hist["counts"]) + hist["below_range"] == len(fids)
        assert (hist["counts"][-1], hist["below_range"]) == (2, 1)
        assert s["mean_abs_fidelity"] == float(np.mean(fids))

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_jsonl_round_trip(self, tmp_path):
        rows = run_experiment(small_config())
        path = tmp_path / "rows.jsonl"
        write_rows(rows, path)
        back = read_rows(path)
        assert len(back) == 3
        assert back[0]["instance_id"] == 0
        assert summarize(back)["count"] == 3
