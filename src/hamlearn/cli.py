"""Command-line entry points: instance generation, single solves, experiment
suites, and result summaries."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, metrics
from .harness import ExperimentConfig, read_rows, run_experiment, summarize, write_rows
from .operators import load_basis, load_record, save_basis, save_record
from .optimizer import SolveConfig, solve_hamiltonian

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_experiment_config(path, seed_override=None) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(path)
    if seed_override is not None:
        cfg = ExperimentConfig.from_dict({**_config_dict(cfg), "seed": seed_override})
    return cfg


def _config_dict(cfg: ExperimentConfig) -> dict:
    obj = dict(cfg.__dict__)
    if obj.get("lattice") is not None:
        lat = obj["lattice"]
        obj["lattice"] = {"num_qubits": lat.num_qubits, "edges": [list(e) for e in lat.edges]}
    if obj.get("solve") is not None:
        obj["solve"] = dict(obj["solve"].__dict__)
    return obj


def cmd_gen(args) -> int:
    """Write the basis and record of every row `exp` would solve, named by row id."""
    cfg = _load_experiment_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = harness._row_tasks(cfg)
    for row_id, instance_index, eigen_index in tasks:
        basis, record = harness.draw_instance(cfg, row_id, instance_index, eigen_index)
        save_basis(basis, out / f"basis_{row_id:04d}.json")
        save_record(record, out / f"record_{row_id:04d}.json")
    print(f"wrote {len(tasks)} instance(s) to {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    basis = load_basis(args.basis)
    record = load_record(args.measurements)
    solve_cfg = SolveConfig()
    if args.config:
        with open(args.config) as fh:
            obj = json.load(fh)
        solve_cfg = SolveConfig.from_dict(obj.get("solve", obj))
    if args.seed is not None:
        solve_cfg = SolveConfig.from_dict({**solve_cfg.__dict__, "seed": args.seed})
    result = solve_hamiltonian(basis, record.a, solve_cfg)
    payload = {
        "x_opt": result.x_opt.tolist(),
        "f_final": result.f_final,
        "grad_norm_final": result.grad_norm_final,
        "restarts_used": result.restarts_used,
        "iterations_total": result.iterations_total,
        "converged": result.converged,
        "ground_prob_final": result.ground_prob_final,
        "gap_first_initial": result.gap_first_initial,
        "gap_first_final": result.gap_first_final,
    }
    if record.truth is not None:
        payload["report"] = metrics.report(basis, result, record).to_json()
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_exp(args) -> int:
    cfg = _load_experiment_config(args.config, args.seed)
    rows = run_experiment(cfg, threads=args.threads)
    out = args.out or cfg.out_path
    if out is None:
        raise ValueError("no output path: pass --out or set out_path in the config")
    write_rows(rows, out, fmt=args.format)
    summary = summarize(rows)
    print(json.dumps(summary, indent=2))
    if any(not r.converged for r in rows):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_summarize(args) -> int:
    rows = read_rows(args.infile)
    print(json.dumps(summarize(rows), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit operator bases and measurement records")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="single reconstruction from files")
    p_solve.add_argument("--basis", required=True)
    p_solve.add_argument("--measurements", required=True)
    p_solve.add_argument("--config", default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("exp", help="run a full experiment suite")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_exp.set_defaults(func=cmd_exp)

    p_sum = sub.add_parser("summarize", help="aggregate a JSONL result file")
    p_sum.add_argument("--in", dest="infile", required=True)
    p_sum.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
