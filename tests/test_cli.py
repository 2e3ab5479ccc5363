"""End-to-end tests of the command-line interface."""

import json

import pytest

from hamlearn.cli import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main
from hamlearn.operators import load_basis, load_record


@pytest.fixture
def exp_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "preset": "generic",
                "n_qubits": 2,
                "num_instances": 2,
                "seed": 3,
                "m_terms": 2,
            }
        )
    )
    return path


class TestGenSolve:
    def test_round_trip(self, tmp_path, exp_config, capsys):
        out_dir = tmp_path / "instances"
        assert main(["gen", "--config", str(exp_config), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "basis_0000.json").exists()
        assert (out_dir / "record_0001.json").exists()

        result_path = tmp_path / "result.json"
        code = main(
            [
                "solve",
                "--basis",
                str(out_dir / "basis_0000.json"),
                "--measurements",
                str(out_dir / "record_0000.json"),
                "--out",
                str(result_path),
                "--seed",
                "0",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(result_path.read_text())
        assert payload["converged"]
        assert payload["f_final"] < 1e-8
        assert payload["report"]["abs_fidelity"] > 0.99

    def test_solve_prints_without_out(self, tmp_path, exp_config, capsys):
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        capsys.readouterr()  # drop the gen confirmation line
        code = main(
            [
                "solve",
                "--basis",
                str(out_dir / "basis_0000.json"),
                "--measurements",
                str(out_dir / "record_0000.json"),
                "--seed",
                "0",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "x_opt" in payload

    @pytest.mark.parametrize(
        "policy, num_instances", [("random", 3), ("all", 1)], ids=["generic", "all_levels"]
    )
    def test_gen_then_solve_reproduces_exp(self, tmp_path, capsys, policy, num_instances):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "preset": "generic",
                    "n_qubits": 2,
                    "num_instances": num_instances,
                    "seed": 11,
                    "m_terms": 2,
                    "eigen_index_policy": policy,
                    "solve": {"max_restarts": 20},
                }
            )
        )
        rows_path, out_dir = tmp_path / "rows.jsonl", tmp_path / "instances"
        main(["exp", "--config", str(cfg_path), "--out", str(rows_path)])
        assert main(["gen", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        rows = [json.loads(line) for line in rows_path.read_text().splitlines() if line]
        assert len(rows) == (4 if policy == "all" else num_instances)
        for row in rows:
            i = row.pop("instance_id")
            row.pop("wall_ms")
            basis_path, record_path = out_dir / f"basis_{i:04d}.json", out_dir / f"record_{i:04d}.json"
            result_path = tmp_path / f"result_{i:04d}.json"
            code = main(
                ["solve", "--basis", str(basis_path), "--measurements", str(record_path),
                 "--config", str(cfg_path), "--seed", str(row["seed"]), "--out", str(result_path)]
            )
            payload = json.loads(result_path.read_text())
            assert code == (EXIT_OK if payload["converged"] else EXIT_NOT_CONVERGED)
            basis, record = load_basis(basis_path), load_record(record_path)
            solved = {
                "n": basis.n_qubits,
                "m": basis.size,
                "eigen_index": record.truth.eigen_index,
                "f_final": payload["f_final"],
                "grad_norm": payload["grad_norm_final"],
                "restarts": payload["restarts_used"],
                "iterations": payload["iterations_total"],
                "ground_prob_final": payload["ground_prob_final"],
                "gap_first_initial": payload["gap_first_initial"],
                "gap_first_final": payload["gap_first_final"],
                "converged": payload["converged"],
                "seed": row["seed"],
                **{k: payload["report"][k] for k in ("fidelity", "abs_fidelity", "lambda_hat", "state_overlap")},
            }
            assert solved == row
        if policy == "all":
            assert sorted(r["eigen_index"] for r in rows) == [0, 1, 2, 3]


class TestExp:
    def test_runs_suite(self, tmp_path, exp_config, capsys):
        out_path = tmp_path / "rows.jsonl"
        code = main(["exp", "--config", str(exp_config), "--out", str(out_path)])
        assert code == EXIT_OK
        lines = [l for l in out_path.read_text().splitlines() if l]
        assert len(lines) == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 2

    def test_summarize(self, tmp_path, exp_config, capsys):
        out_path = tmp_path / "rows.jsonl"
        main(["exp", "--config", str(exp_config), "--out", str(out_path)])
        capsys.readouterr()
        assert main(["summarize", "--in", str(out_path)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 2

    def test_csv_format(self, tmp_path, exp_config, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["exp", "--config", str(exp_config), "--out", str(out_path), "--format", "csv"])
        assert code == EXIT_OK
        assert out_path.read_text().startswith("instance_id,")


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["exp", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "generic", "n_qubits": 2, "num_instances": 1}))
        code = main(["exp", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR

    def test_exp_without_out(self, tmp_path, exp_config, capsys):
        code = main(["exp", "--config", str(exp_config)])
        assert code == EXIT_CONFIG_ERROR
