"""Unit tests for the experiment harness: configs, seeding, rows, summaries."""

import json
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from hamlearn import harness
from hamlearn.harness import (
    RESULT_FIELDS,
    ExperimentConfig,
    _gen_rng,
    _instance_seed,
    _row_tasks,
    read_rows,
    run_experiment,
    summarize,
    write_rows,
)
from hamlearn.objective import ReconstructionObjective, stack_operands
from hamlearn.operators import LatticeSpec, basis_generic, eigenstate_measurements
from hamlearn.optimizer import SolveConfig


def small_config(**overrides):
    base = dict(preset="generic", n_qubits=2, num_instances=3, seed=7, m_terms=2)
    base.update(overrides)
    return ExperimentConfig(**base)


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
        # a custom lattice's rows have 2**lattice.num_qubits levels, whatever n_qubits says
        custom = dict(preset="custom", n_qubits=1, m_terms=None, lattice=LatticeSpec.chain(2))
        assert len(_row_tasks(small_config(num_instances=1, eigen_index_policy="all", **custom))) == 4
        assert small_config(eigen_index_policy=3, **custom).eigen_index_policy == 3
        with pytest.raises(ValueError, match="out of range"):
            small_config(eigen_index_policy=4, **custom)

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
                "solve": {"seed": 1, "max_restarts": 10},
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
        cfg = ExperimentConfig.from_file(path)
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
            preset="level_sweep", n_qubits=2, num_instances=5, seed=1, eigen_index_policy="all"
        )
        tasks = _row_tasks(cfg)
        assert len(tasks) == 4  # one instance, every level
        assert [t[2] for t in tasks] == [0, 1, 2, 3]


class TestRunExperiment:
    def test_rows_and_fields(self):
        rows = run_experiment(small_config())
        assert len(rows) == 3
        for r in rows:
            payload = r.to_json()
            assert tuple(payload) == RESULT_FIELDS
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
        # every field but wall_ms, on a generic, a local_full and a level_sweep suite
        for overrides in (
            {},
            {"preset": "local_full", "n_qubits": 3, "num_instances": 4, "m_terms": None},
            {"preset": "level_sweep", "n_qubits": 2, "num_instances": 1, "m_terms": None, "eigen_index_policy": "all"},
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

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
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

        def failing_draw(cfg, row_id, *args):
            if row_id in (1, 2):
                raise RuntimeError(f"row {row_id} cannot be drawn")
            return draw(cfg, row_id, *args)

        monkeypatch.setattr(harness, "draw_instance", failing_draw)
        with pytest.raises(RuntimeError, match=r"^row 1 cannot be drawn$"):
            run_experiment(small_config(num_instances=4), threads=threads)

    def test_rows_in_flight_follow_row_dimension(self, monkeypatch):
        # a custom lattice sets the rows' dimension, whatever n_qubits says:
        # wide rows run _run_row in a pool, narrow ones start no thread
        pools = []
        pool = harness.ThreadPoolExecutor
        monkeypatch.setattr(harness, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or pool(**kw))
        monkeypatch.setattr(harness, "_run_row", lambda cfg, row_id, *args: row_id)
        wide = small_config(preset="custom", n_qubits=1, m_terms=None, lattice=LatticeSpec.chain(5))
        assert run_experiment(wide, threads=2) == [0, 1, 2]
        assert pools == [{"max_workers": 2}]
        narrow = small_config(preset="custom", n_qubits=6, m_terms=None, lattice=LatticeSpec.chain(2))
        assert len(run_experiment(narrow, threads=2)) == 3
        assert len(pools) == 1

    def test_failed_stack_answered_row_by_row(self):
        # one row's non-finite point makes the stacked evaluation raise; each
        # row is then answered alone, and only that row gets the exception
        rng = np.random.default_rng(5)
        flights = []
        for i in range(3):
            basis = basis_generic(4, 2, rng)
            rec = eigenstate_measurements(basis, rng.uniform(0, 1, 2), 1)
            x = np.array([np.nan, 0.0]) if i == 1 else rng.uniform(-1, 1, 2)
            flights.append(SimpleNamespace(objective=ReconstructionObjective(basis, rec.a), x=x))
        answers = harness._answers(flights, stack_operands([fl.objective for fl in flights]))
        assert isinstance(answers[1], ValueError)
        for i in (0, 2):
            alone = ReconstructionObjective(flights[i].objective.basis, flights[i].objective.a)
            f, g = answers[i]
            assert f == alone.value(flights[i].x)
            assert np.array_equal(g, alone.gradient(flights[i].x))


class TestSummarizeAndIo:
    def test_summarize(self):
        rows = run_experiment(small_config())
        s = summarize(rows)
        assert s["count"] == 3
        assert 0 <= s["mean_abs_fidelity"] <= 1
        assert s["convergence_rate"] == 1.0
        assert len(s["histogram"]["counts"]) == 20

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

    def test_csv_write(self, tmp_path):
        rows = run_experiment(small_config())
        path = tmp_path / "rows.csv"
        write_rows(rows, path, fmt="csv")
        text = path.read_text().splitlines()
        assert text[0].split(",") == list(RESULT_FIELDS)
        assert len(text) == 4

    def test_unknown_format(self, tmp_path):
        rows = run_experiment(small_config())
        with pytest.raises(ValueError):
            write_rows(rows, tmp_path / "x", fmt="xml")
