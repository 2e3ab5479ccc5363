"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from hamlearn import cli
from hamlearn.cli import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main
from hamlearn.harness import ResultRow
from hamlearn.operators import MeasurementRecord, OperatorBasis, eigenstate_measurements, read_json
from test_objective import nearly_hermitian_d256_basis


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


NO_SOLVE_KEY = object()

# a basis term as `gen` writes it, and a record for exp_config's d = 4, two-term basis
TERM = {"label": "A1", "matrix": {"re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}}


DIGITS_401 = 10**400  # no float64 holds it, as none holds 1e400
DIGITS_4000 = 10**3999


def record_with(**truth) -> dict:
    truth = {"c_true": [0.5, 0.5], "eigen_index": 0, **truth}
    return {"a": [0.5, 0.5], "truth": truth}


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

    def test_solve_keys_are_row_fields(self, tmp_path, exp_config):
        out_dir, result_path = tmp_path / "instances", tmp_path / "result.json"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        main(["solve", "--basis", str(out_dir / "basis_0000.json"), "--measurements",
              str(out_dir / "record_0000.json"), "--seed", "0", "--out", str(result_path)])
        payload = json.loads(result_path.read_text())
        row_fields = {f.name for f in fields(ResultRow)}
        assert set(payload) - {"x_opt", "report"} <= row_fields
        assert set(payload["report"]) <= row_fields

    @pytest.mark.parametrize("lambda_true", [None, 123.0], ids=["null", "wrong"])
    def test_solve_ignores_lambda_true(self, tmp_path, exp_config, capsys, lambda_true):
        # records of earlier versions carry a truth "lambda_true", an
        # eigenvalue derived from c_true; it is ignored, whatever it holds
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        old = read_json(out_dir / "record_0000.json")
        old["truth"]["lambda_true"] = lambda_true
        (tmp_path / "old.json").write_text(json.dumps(old))
        capsys.readouterr()
        payloads = []
        for record in (out_dir / "record_0000.json", tmp_path / "old.json"):
            code = main(["solve", "--basis", str(out_dir / "basis_0000.json"), "--measurements", str(record),
                         "--seed", "0"])
            assert code == EXIT_OK
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[1] == payloads[0]

    def test_solve_ignores_keys_of_earlier_versions(self, tmp_path, exp_config, capsys):
        # files of earlier versions carry a basis n_qubits, term supports,
        # matrix dims and a record basis_ref; a pair of them solves as before
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        basis, record = read_json(out_dir / "basis_0000.json"), read_json(out_dir / "record_0000.json")
        assert set(basis) == {"dim", "terms"} and set(record) == {"a", "truth"}
        basis["n_qubits"] = 2
        for t in basis["terms"]:
            t["support"] = None
            t["matrix"]["dim"] = 4
        record["basis_ref"] = "basis_0000"
        old_basis, old_record = tmp_path / "old_basis.json", tmp_path / "old_record.json"
        old_basis.write_text(json.dumps(basis))
        old_record.write_text(json.dumps(record))
        capsys.readouterr()
        payloads = []
        for pair in ((out_dir / "basis_0000.json", out_dir / "record_0000.json"), (old_basis, old_record)):
            assert main(["solve", "--basis", str(pair[0]), "--measurements", str(pair[1]), "--seed", "0"]) == EXIT_OK
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[1] == payloads[0]

    def test_solve_basis_accepted_at_input(self, tmp_path, capsys):
        # a d = 256 term that passes check_hermitian is solved, not refused mid-run
        basis_path, record_path = tmp_path / "basis.json", tmp_path / "record.json"
        basis_path.write_text(json.dumps(nearly_hermitian_d256_basis().to_json()))
        record_path.write_text(json.dumps({"a": [0.0], "truth": None}))
        code = main(["solve", "--basis", str(basis_path), "--measurements", str(record_path), "--seed", "0"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["converged"]

    def test_solve_reports_on_basis_accepted_at_input(self, tmp_path, capsys):
        # the report rebuilds H from the kept terms, whose every real
        # combination is exactly Hermitian, so its own check passes
        basis = nearly_hermitian_d256_basis()
        basis_path, record_path = tmp_path / "basis.json", tmp_path / "record.json"
        basis_path.write_text(json.dumps(basis.to_json()))
        record_path.write_text(json.dumps(eigenstate_measurements(basis, [0.7], 0).to_json()))
        code = main(["solve", "--basis", str(basis_path), "--measurements", str(record_path), "--seed", "0"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["report"]["abs_fidelity"] >= 0.998

    @pytest.mark.parametrize(
        "policy, num_instances, solve",
        [
            ("random", 3, {"max_restarts": 20}),
            ("all", 1, {"max_restarts": 20}),
            ("random", 2, NO_SOLVE_KEY),
            ("random", 2, None),
        ],
        ids=["generic", "all_levels", "no_solve_key", "solve_null"],
    )
    def test_gen_then_solve_reproduces_exp(self, tmp_path, capsys, policy, num_instances, solve):
        cfg = {
            "preset": "generic",
            "n_qubits": 2,
            "num_instances": num_instances,
            "seed": 11,
            "m_terms": 2,
            "eigen_index_policy": policy,
        }
        if solve is not NO_SOLVE_KEY:
            cfg["solve"] = solve
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
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
            basis = OperatorBasis.from_json(read_json(basis_path))
            record = MeasurementRecord.from_json(read_json(record_path))
            del payload["x_opt"]
            report = payload.pop("report")
            assert basis.dim == 2 ** row["n"]
            identity = {"n": row["n"], "m": basis.size, "eigen_index": record.truth.eigen_index, "seed": row["seed"]}
            assert {**payload, **report, **identity} == row
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

    def test_summarize_into_closed_pipe(self, tmp_path, exp_config):
        # `hamlearn summarize ... | head -n 1`, with the reader gone before anything is written
        out_path = tmp_path / "rows.jsonl"
        main(["exp", "--config", str(exp_config), "--out", str(out_path)])
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hamlearn.cli", "summarize", "--in", str(out_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def test_solve_null_means_defaults(self, tmp_path, exp_config, capsys):
        cfg = json.loads(exp_config.read_text())
        cfg["solve"] = None
        exp_config.write_text(json.dumps(cfg))
        out_path = tmp_path / "rows.jsonl"
        code = main(["exp", "--config", str(exp_config), "--out", str(out_path)])
        assert code == EXIT_OK
        assert len([l for l in out_path.read_text().splitlines() if l]) == 2

    def test_not_converged_exits_2(self, tmp_path, exp_config, capsys):
        # one restart of one iteration solves neither row: exp still writes and
        # summarizes both, and exits with the "not converged" code
        cfg = json.loads(exp_config.read_text())
        cfg["solve"] = {"max_restarts": 1, "max_iters": 1}
        exp_config.write_text(json.dumps(cfg))
        out_path = tmp_path / "rows.jsonl"
        code = main(["exp", "--config", str(exp_config), "--out", str(out_path)])
        assert code == EXIT_NOT_CONVERGED
        rows = [json.loads(l) for l in out_path.read_text().splitlines() if l]
        assert [(r["instance_id"], r["converged"]) for r in rows] == [(0, False), (1, False)]
        summary = json.loads(capsys.readouterr().out)
        assert (summary["count"], summary["convergence_rate"]) == (2, 0.0)


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("num_instances", 2.5, "num_instances must be an integer"),
            ("n_qubits", 2.0, "n_qubits must be an integer"),
            ("eigen_index_policy", True, "bad eigen_index_policy"),
            ("solve", {"max_restarts": 1.5}, "max_restarts must be an integer"),
            ("solve", {"hops_per_restart": 12}, "unknown solve-config keys"),
            ("solve", {"eps": "1e-8"}, "eps must be a number, got '1e-8'"),
            # an integer no float64 holds is refused like 1e400, not read as a huge eps
            ("solve", {"eps": DIGITS_401}, "eps must fit a float64, got a 401-digit integer"),
            # settings no row reads: local_full runs m = 1 whatever m_terms says, generic draws no lattice
            ("preset", "local_full", "m_terms is needed by preset generic and refused"),
            ("lattice", {"num_qubits": 2, "edges": [[1, 2]]}, "lattice is needed by preset custom and refused"),
            # a level sweep is "eigen_index_policy": "all" on any preset
            ("preset", "level_sweep", "unknown preset 'level_sweep'"),
            # exp writes where --out says, and nowhere a config names
            ("out_path", "rows.jsonl", "unknown experiment-config keys: ['out_path']"),
        ],
        ids=["num_instances_float", "n_qubits_float", "policy_bool", "max_restarts_float", "removed_solve_key",
             "eps_string", "eps_401_digits", "m_terms_local_full", "lattice_generic", "level_sweep", "removed_out_path"],
    )
    def test_exp_rejects_bad_values(self, tmp_path, exp_config, capsys, key, value, message):
        cfg = json.loads(exp_config.read_text())
        cfg[key] = value
        exp_config.write_text(json.dumps(cfg))
        code = main(["exp", "--config", str(exp_config), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lattice, message",
        [
            ({"num_qubits": 3.7, "edges": [[1, 2]]}, "lattice num_qubits must be an integer"),
            ({"num_qubits": 3, "edges": ["12"]}, "lattice edges must be a list of [i, j] qubit pairs"),
            ({"num_qubits": 3, "edges": [["1", "2"]]}, "lattice edge qubit must be an integer"),
            ({"num_qubits": 3, "edge": [[1, 2]]}, "lattice must be an object with keys num_qubits and edges"),
            (5, "lattice must be an object with keys num_qubits and edges"),
            # the config's n_qubits is 2: it sizes the rows, so the lattice must agree
            ({"num_qubits": 3, "edges": [[1, 2], [2, 3]]}, "n_qubits 2 differs from the lattice num_qubits 3"),
            # capped like n_qubits, before any per-qubit check lists its qubits
            ({"num_qubits": 100000, "edges": [[1, 2], [2, 3]]},
             "lattice num_qubits must be <= 8 (dimension <= 256), got 100000"),
        ],
        ids=["num_qubits_float", "edges_strings", "qubit_strings", "key_misspelt", "number", "num_qubits_differs",
             "num_qubits_100000"],
    )
    def test_exp_rejects_malformed_lattice(self, tmp_path, exp_config, capsys, lattice, message):
        cfg = {**json.loads(exp_config.read_text()), "preset": "custom", "m_terms": None, "lattice": lattice}
        exp_config.write_text(json.dumps(cfg))
        code = main(["exp", "--config", str(exp_config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert message in err and err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("command", ["exp", "gen"])
    def test_bare_qubit_lattice_refused(self, tmp_path, capsys, command):
        # qubit 3 has no edge, so every level of every draw would be degenerate
        lattice = {"num_qubits": 3, "edges": [[1, 2]]}
        cfg = {"preset": "custom", "n_qubits": 3, "num_instances": 1, "lattice": lattice}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("error: lattice leaves qubit(s) [3] without an edge") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["exp", "gen"])
    def test_too_many_qubits_refused(self, tmp_path, capsys, command):
        # rows wider than the supported d = 256 are refused by the key that
        # sizes them, before any term is drawn
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "generic", "n_qubits": 9, "num_instances": 1, "m_terms": 2}))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: n_qubits must be <= 8 (dimension <= 256), got 9\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["exp", "gen"])
    def test_missing_keys_refused(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "generic", "n_qubits": 2, "m_terms": 2}))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err == "error: missing experiment-config keys: ['num_instances']\n"

    @pytest.mark.parametrize("command", ["exp", "gen", "solve"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ([1, 2], "error: {path} must be a JSON object, got [1, 2]\n"),
            ("generic", "error: {path} must be a JSON object, got 'generic'\n"),
            ({"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 2, "solve": 5},
             "error: solve config must be a JSON object, got 5\n"),
            ({"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 2, "solve": []},
             "error: solve config must be a JSON object, got []\n"),
            # each row's solve seed derives from the config's "seed", so a "solve" seed would go unread
            ({"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 2, "solve": {"seed": 1}},
             "error: solve.seed is refused: each row derives its solve seed from the config's seed\n"),
        ],
        ids=["list", "string", "solve_number", "solve_list", "solve_seed"],
    )
    def test_non_object_config_refused(self, tmp_path, exp_config, capsys, command, config, message):
        instances = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(instances)])
        capsys.readouterr()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        args = {
            "exp": ["--out", str(tmp_path / "rows.jsonl")],
            "gen": ["--out", str(tmp_path / "o")],
            "solve": [
                "--basis", str(instances / "basis_0000.json"),
                "--measurements", str(instances / "record_0000.json"),
            ],
        }[command]
        code = main([command, "--config", str(path), *args])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == message.format(path=path)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("basis", "[1, 2]", "error: {path} must be a JSON object, got [1, 2]\n"),
            ("record", "[1, 2]", "error: {path} must be a JSON object, got [1, 2]\n"),
            ("basis", '{"dim": 2, "terms": [1]}', "error: basis term 0 must be a JSON object, got 1\n"),
            ("basis", '{"dim": 2, "terms": [{"label": "A1", "matrix": [1]}]}',
             "error: basis term 0 matrix must be a JSON object, got [1]\n"),
            ("record", '{"a": [0.5], "truth": 3}', "error: record truth must be a JSON object, got 3\n"),
            ("config", '{"preset": "generic", "n_qubits": 2,',
             "error: {path}: Expecting property name enclosed in double quotes at column 37\n"),
            # each field from_json reads is checked for its type and named
            ("basis", {"dim": 2, "terms": 5}, "error: basis terms must be a list, got 5\n"),
            ("basis", {"dim": None, "terms": [TERM]}, "error: basis dim must be an integer, got None\n"),
            ("basis", {"terms": [TERM]}, "error: basis dim must be an integer, got None\n"),
            ("basis", {"dim": 2, "terms": [{"matrix": TERM["matrix"]}]},
             "error: basis term 0 label must be a string, got None\n"),
            # a part that is not d x d is refused, not broadcast against the other
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "re": [[1]]}}]},
             "error: basis term 0 matrix re and im differ in shape\n"),
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "im": [[0]]}}]},
             "error: basis term 0 matrix re and im differ in shape\n"),
            # an entry that is not a number is refused by term, part and entry, not read by numpy as one
            ("basis", {"dim": 2, "terms": [{"label": "A1", "matrix": {"re": [["1", "0"], ["0", "-1"]],
                                                                     "im": [[False, False], [False, False]]}}]},
             "error: basis term 0 matrix re row 0 entry 0 must be a number, got '1'\n"),
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "im": [[False, False]] * 2}}]},
             "error: basis term 0 matrix im row 0 entry 0 must be a number, got False\n"),
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "re": [[1, True], [1, -1]]}}]},
             "error: basis term 0 matrix re row 0 entry 1 must be a number, got True\n"),
            # a term that is not Hermitian is refused by its label
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "re": [[1, 1], [0, -1]]}}]},
             "error: term A1 is not Hermitian: max|A - A^dag| = 1.000e+00 > 1.0e-10\n"),
            # a truth the basis (d = 4, two terms) cannot hold is refused before the solve
            ("record", record_with(c_true=[0.5]), "error: c_true must be a real vector of shape (2,), got [0.5]\n"),
            ("record", record_with(c_true=[float("nan"), 0.5]), "error: c_true entry 0 must be finite, got nan\n"),
            ("record", record_with(c_true=[float("inf"), 0.5]), "error: c_true entry 0 must be finite, got inf\n"),
            ("record", record_with(eigen_index=7), "error: eigen_index 7 out of range for dimension 4\n"),
            ("record", record_with(eigen_index=-1), "error: eigen_index -1 out of range for dimension 4\n"),
            ("record", record_with(eigen_index=1.5), "error: eigen_index must be an integer, got 1.5\n"),
            ("record", record_with(eigen_index=None), "error: eigen_index must be an integer, got None\n"),
            ("record", record_with(c_true=[0.0, 0.0]),
             "error: eigenvalue 0 is degenerate (gap 0.000e+00 to a neighbour)\n"),
            # an entry of a or c_true that is not a number is refused by name, not by numpy
            ("record", {"a": [[0.5], [0.1, 0.2]], "truth": None},
             "error: record a entry 0 must be a number, got [0.5]\n"),
            ("record", {"a": ["x", 0.1], "truth": None}, "error: record a entry 0 must be a number, got 'x'\n"),
            ("record", record_with(c_true=[[0.5], [0.1, 0.2]]),
             "error: record truth c_true entry 0 must be a number, got [0.5]\n"),
            ("record", record_with(c_true=["x", 0.1]),
             "error: record truth c_true entry 0 must be a number, got 'x'\n"),
            # an integer no float64 holds is refused by its entry, not by an OverflowError
            ("record", {"a": [DIGITS_401, 0.1], "truth": None},
             "error: record a entry 0 must fit a float64, got a 401-digit integer\n"),
            ("record", record_with(c_true=[0.5, -DIGITS_401]),
             "error: record truth c_true entry 1 must fit a float64, got a 401-digit integer\n"),
            ("basis", {"dim": 2, "terms": [{**TERM, "matrix": {**TERM["matrix"], "re": [[1, 0], [0, DIGITS_401]]}}]},
             "error: basis term 0 matrix re row 1 entry 1 must fit a float64, got a 401-digit integer\n"),
            ("config", {"preset": "generic", "n_qubits": 2, "num_instances": 1, "m_terms": 2,
                        "solve": {"eps": DIGITS_401}},
             "error: eps must fit a float64, got a 401-digit integer\n"),
            # a dimension past linalg.MAX_DIM is refused by the key that sizes it, and a term of
            # another dimension by its label, as linalg.require_matrix refuses any matrix
            ("basis", {"dim": 257, "terms": [TERM]}, "error: basis dim must be <= 256, got 257\n"),
            ("basis", {"dim": 3, "terms": [TERM]}, "error: term A1 must be a 3 x 3 matrix, got shape (2, 2)\n"),
        ],
        ids=["basis_list", "record_list", "term_number", "matrix_list", "truth_number", "config_truncated",
             "terms_number", "dim_null", "dim_missing", "label_missing", "re_one_by_one", "im_one_by_one",
             "re_strings", "im_bools", "re_mixed_row", "not_hermitian",
             "c_true_short", "c_true_nan", "c_true_inf", "level_7", "level_negative", "level_float", "level_null",
             "level_degenerate", "a_ragged", "a_string", "c_true_ragged", "c_true_string", "a_401_digits",
             "c_true_401_digits", "re_401_digits", "eps_401_digits", "dim_257", "term_of_other_dimension"],
    )
    def test_solve_rejects_bad_files(self, tmp_path, exp_config, capsys, monkeypatch, name, text, message):
        instances = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(instances)])
        capsys.readouterr()

        def solve_hamiltonian(*args, **kwargs):
            raise AssertionError("solved an instance it should have refused")

        monkeypatch.setattr(cli, "solve_hamiltonian", solve_hamiltonian)
        files = {
            "basis": instances / "basis_0000.json",
            "record": instances / "record_0000.json",
            "config": exp_config,
        }
        files[name].write_text(text if isinstance(text, str) else json.dumps(text))
        code = main(["solve", "--basis", str(files["basis"]), "--measurements", str(files["record"]),
                     "--config", str(files["config"])])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == message.format(path=files[name])

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--config", "{cfg}", "--seed", "4", "--out", "{out}"], "error: unrecognized arguments: --seed 4\n"),
            (["--out", "{out}"], "error: the following arguments are required: --config\n"),
            (["--config", "{cfg}", "--out", "{out}", "--format", "csv"], "error: unrecognized arguments: --format csv\n"),
        ],
        ids=["removed_seed_flag", "no_config", "removed_format_flag"],
    )
    def test_usage_error_exits_1(self, tmp_path, exp_config, capsys, args, message):
        # exit 2 is exp's "not converged", so a usage error exits 1
        out = tmp_path / "rows.jsonl"
        assert main(["exp", *(a.format(cfg=exp_config, out=out) for a in args)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.endswith(message) and err.count("error:") == 1
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["exp", "--help"]) == EXIT_OK
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_exp_rejects_threads_below_one(self, tmp_path, exp_config, capsys, threads):
        out_path = tmp_path / "rows.jsonl"
        code = main(["exp", "--config", str(exp_config), "--out", str(out_path), "--threads", threads])
        assert code == EXIT_CONFIG_ERROR
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out_path.exists()

    def test_solve_rejects_nan_measurement(self, tmp_path, exp_config, capsys):
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        record_path = out_dir / "record_0000.json"
        record = json.loads(record_path.read_text())
        record["a"][1] = float("nan")
        record_path.write_text(json.dumps(record))  # written as the bare token NaN
        assert "NaN" in record_path.read_text()
        code = main(["solve", "--basis", str(out_dir / "basis_0000.json"), "--measurements", str(record_path)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: measurement vector a entry 1 must be finite, got nan\n"

    def test_exp_without_out(self, tmp_path, exp_config, capsys):
        code = main(["exp", "--config", str(exp_config)])
        assert code == EXIT_CONFIG_ERROR

    def test_exp_without_out_solves_nothing(self, exp_config, capsys, monkeypatch):
        calls = []

        def run_experiment(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solved a suite with nowhere to write it")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert main(["exp", "--config", str(exp_config)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --out\n") and err.count("error:") == 1
        assert calls == []

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "line 2 must be a JSON object, got [1, 2]\n"),
            ('{"abs_fidelity": "x", "converged": true}', "error: row 2: abs_fidelity must be a number, got 'x'\n"),
            ('{"abs_fidelity": 0.5}', "error: row 2 has no converged\n"),
            ('{"abs_fidelity": NaN, "converged": true}', "error: row 2: abs_fidelity must be a finite real number, got nan\n"),
            ('{"abs_fidelity": 0.9, "converged": tru}', "rows.jsonl line 2: Expecting value at column 36\n"),
            ('{"abs_fidelity": 0.9, "converged": "yes"}', "error: row 2: converged must be true or false, got 'yes'\n"),
            ('{"abs_fidelity": %d, "converged": true}' % DIGITS_401,
             "error: row 2: abs_fidelity must fit a float64, got a 401-digit integer\n"),
        ],
        ids=["list", "string_fidelity", "no_converged", "nan_fidelity", "bad_json", "string_converged",
             "fidelity_401_digits"],
    )
    def test_summarize_refuses_non_row(self, tmp_path, capsys, line, message):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"abs_fidelity": 0.999, "converged": true}\n' + line + "\n")
        assert main(["summarize", "--in", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, edit, field",
        [
            ("config", lambda c: {**c, "preset": list(range(100_000))}, "unknown preset"),
            ("config", lambda c: {**c, "eigen_index_policy": ["x"] * 100_000}, "eigen_index_policy"),
            ("config", lambda c: {**c, "eigen_index_policy": DIGITS_4000}, "eigen_index_policy"),
            ("config", lambda c: {**c, "n_qubits": DIGITS_4000}, "n_qubits"),
            ("config", lambda c: {**c, "num_instances": [0.5] * 100_000}, "num_instances"),
            ("config", lambda c: {**c, **{f"k{i}": 1 for i in range(100_000)}}, "unknown experiment-config keys"),
            ("config", lambda c: {**c, "preset": "custom", "m_terms": None,
                                  "lattice": {"num_qubits": 2, "edges": [[1, 2, 3]] * 100_000}}, "lattice edges"),
            ("config", lambda c: {**c, "preset": "custom", "m_terms": None,
                                  "lattice": {"num_qubits": 2, "edges": [[1, DIGITS_4000]]}}, "bad edge"),
            ("config", lambda c: {**c, "solve": {"eps": "x" * 100_000}}, "eps"),
            ("record", lambda r: {**r, "a": [[0.5] * 100_000, 0.1]}, "record a entry 0"),
            ("record", lambda r: {**r, "truth": {**r["truth"], "eigen_index": DIGITS_4000}}, "eigen_index"),
            ("basis", lambda b: {**b, "terms": [{**b["terms"][0], "label": list(range(100_000))}]}, "label"),
            ("basis", lambda b: {**b, "terms": [{**b["terms"][0], "label": "L" * 100_000,
                                                 "matrix": {"re": [[0, 1, 0, 0]] + [[0] * 4] * 3,
                                                            "im": [[0] * 4] * 4}}]}, "is not Hermitian"),
            ("rows", lambda rows: [rows[0], {**rows[1], "converged": ["s"] * 100_000}], "row 2: converged"),
        ],
        ids=["preset_list", "policy_list", "policy_4000_digits", "n_qubits_4000_digits", "num_instances_list",
             "unknown_keys", "lattice_triples", "edge_qubit_4000_digits", "eps_long_string", "a_long_entry",
             "eigen_index_4000_digits", "label_list", "label_long", "converged_list"],
    )
    def test_oversized_value_refused_in_short_line(self, tmp_path, exp_config, capsys, monkeypatch, name, edit,
                                                   field):
        # a refusal names the field and shows at most ECHO_MAX characters of the value
        instances, rows = tmp_path / "instances", tmp_path / "rows.jsonl"
        main(["gen", "--config", str(exp_config), "--out", str(instances)])
        main(["exp", "--config", str(exp_config), "--out", str(rows)])
        capsys.readouterr()
        monkeypatch.setattr(cli, "solve_hamiltonian", None)  # nothing may reach a solve
        monkeypatch.setattr(cli, "run_experiment", None)
        files = {"config": exp_config, "basis": instances / "basis_0000.json",
                 "record": instances / "record_0000.json", "rows": rows}
        if name == "rows":
            edited = edit([json.loads(line) for line in rows.read_text().splitlines()])
            rows.write_text("".join(json.dumps(r) + "\n" for r in edited))
        else:
            files[name].write_text(json.dumps(edit(json.loads(files[name].read_text()))))
        args = {
            "config": ["exp", "--config", str(exp_config), "--out", str(tmp_path / "o.jsonl")],
            "rows": ["summarize", "--in", str(rows)],
        }.get(name, ["solve", "--basis", str(files["basis"]), "--measurements", str(files["record"])])
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1 and len(err) < 200, err[:500]

    @pytest.mark.parametrize("name", ["config", "basis", "record", "rows"])
    @pytest.mark.parametrize(
        "text", ["[" * 100_000 + "]" * 100_000, '{"a": [%s]}' % ("1" * 5000)], ids=["nested_100000", "digits_5000"]
    )
    def test_unparseable_file_named(self, tmp_path, exp_config, capsys, monkeypatch, name, text):
        # nesting past the recursion limit and an integer past Python's digit
        # limit are refused like a syntax error: one error line naming the file
        instances = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(instances)])
        capsys.readouterr()

        def solve_hamiltonian(*args, **kwargs):
            raise AssertionError("solved an instance it should have refused")

        monkeypatch.setattr(cli, "solve_hamiltonian", solve_hamiltonian)
        basis, record, rows = instances / "basis_0000.json", instances / "record_0000.json", tmp_path / "rows.jsonl"
        if name == "rows":
            rows.write_text('{"abs_fidelity": 0.999, "converged": true}\n' + text + "\n")
            args, where = ["summarize", "--in", str(rows)], f"{rows} line 2"
        else:
            where = {"config": exp_config, "basis": basis, "record": record}[name]
            where.write_text(text)
            args = ["solve", "--basis", str(basis), "--measurements", str(record), "--config", str(exp_config)]
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_exp_unwritable_out_solves_nothing(self, tmp_path, exp_config, capsys, monkeypatch, where):
        calls = []

        def run_experiment(*args, **kwargs):
            calls.append(args)
            raise AssertionError("solved a suite that it cannot write")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "nonexistent" / "rows.jsonl" if where == "missing_parent" else tmp_path
        assert main(["exp", "--config", str(exp_config), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_solve_unwritable_out_solves_nothing(self, tmp_path, exp_config, capsys, monkeypatch, where):
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        capsys.readouterr()

        def solve_hamiltonian(*args, **kwargs):
            raise AssertionError("solved an instance that it cannot write")

        monkeypatch.setattr(cli, "solve_hamiltonian", solve_hamiltonian)
        out = tmp_path / "nonexistent" / "result.json" if where == "missing_parent" else tmp_path
        code = main(
            [
                "solve",
                "--basis",
                str(out_dir / "basis_0000.json"),
                "--measurements",
                str(out_dir / "record_0000.json"),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_solve_config_is_directory(self, tmp_path, exp_config, capsys):
        out_dir = tmp_path / "instances"
        main(["gen", "--config", str(exp_config), "--out", str(out_dir)])
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--basis",
                str(out_dir / "basis_0000.json"),
                "--measurements",
                str(out_dir / "record_0000.json"),
                "--config",
                str(tmp_path),
            ]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err

    def test_gen_out_is_existing_file(self, tmp_path, exp_config, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main(["gen", "--config", str(exp_config), "--out", str(taken)]) == EXIT_CONFIG_ERROR
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"
