"""Unit tests for the experiment harness: configs, seeding, rows, summaries."""

import json

import numpy as np
import pytest

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
from hamlearn.operators import LatticeSpec
from hamlearn.optimizer import SolveConfig


def small_config(**overrides):
    base = dict(preset="generic", n_qubits=2, num_instances=3, seed=7, m_terms=2)
    base.update(overrides)
    return ExperimentConfig(**base)


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
        cfg = small_config()
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=3)
        for a, b in zip(serial, parallel):
            assert a.instance_id == b.instance_id
            assert a.f_final == b.f_final
            assert a.fidelity == b.fidelity


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
