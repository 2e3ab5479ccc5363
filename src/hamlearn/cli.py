"""Command-line entry points: instance generation, single solves, experiment
suites, and result summaries."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import harness, metrics
from .harness import ExperimentConfig, read_rows, run_experiment, summarize, write_rows
from .operators import MeasurementRecord, OperatorBasis, read_json, true_eigenstate
from .optimizer import SolveConfig, solve_hamiltonian

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NOT_CONVERGED = 2


def cmd_gen(args) -> int:
    """Write the basis and record of every row `exp` would solve, named by row id."""
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = harness._row_tasks(cfg)
    for row_id, instance_index, eigen_index in tasks:
        basis, record = harness.draw_instance(cfg, instance_index, eigen_index)
        (out / f"basis_{row_id:04d}.json").write_text(json.dumps(basis.to_json()))
        (out / f"record_{row_id:04d}.json").write_text(json.dumps(record.to_json()))
    print(f"wrote {len(tasks)} instance(s) to {out}")
    return EXIT_OK


def _check_writable(out) -> None:
    """Refuse an output path that cannot be written, before any solving."""
    if Path(out).is_dir():
        raise ValueError(f"output path {out} is a directory")
    if not Path(out).parent.is_dir():
        raise ValueError(f"output directory {Path(out).parent} does not exist")


def cmd_solve(args) -> int:
    basis = OperatorBasis.from_json(read_json(args.basis))
    record = MeasurementRecord.from_json(read_json(args.measurements))
    if record.truth is not None:  # refuse a truth the basis cannot hold before solving
        true_eigenstate(basis, record.truth.c_true, record.truth.eigen_index)
    solve_cfg = ExperimentConfig.from_dict(read_json(args.config)).solve if args.config else SolveConfig()
    if args.seed is not None:
        solve_cfg = replace(solve_cfg, seed=args.seed)
    if args.out:
        _check_writable(args.out)
    result = solve_hamiltonian(basis, record.a, solve_cfg)
    payload = {**asdict(result), "x_opt": result.x_opt.tolist()}
    if record.truth is not None:
        payload["report"] = asdict(metrics.report(basis, result, record))
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_exp(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    _check_writable(args.out)
    rows = run_experiment(cfg, threads=args.threads)
    write_rows(rows, args.out)
    print(json.dumps(summarize([r.to_json() for r in rows]), indent=2))
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
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="single reconstruction from files")
    p_solve.add_argument("--basis", required=True)
    p_solve.add_argument("--measurements", required=True)
    p_solve.add_argument("--config", default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--seed", type=int, default=None, help="seed of the restart draws; without it they come "
                         "from fresh entropy, so two runs can differ. An exp row's seed, with that exp's --config, "
                         "reproduces the row")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("exp", help="run a full experiment suite")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True, help="rows file")
    p_exp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="1 (default) solves one row at a time; T >= 2 solves rows of d <= 16 "
        "in lockstep on one worker, evaluating all their pending points in one "
        "stacked call per step, and runs wider rows one at a time on a pool of T "
        "threads (at d = 128 on 2 cores, about half the wall time for the same CPU); "
        "rows are identical either way but wall_ms",
    )
    p_exp.set_defaults(func=cmd_exp)

    p_sum = sub.add_parser("summarize", help="aggregate a JSONL result file")
    p_sum.add_argument("--in", dest="infile", required=True)
    p_sum.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, exp's "not converged"
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at the null device so
        # the exit flush has somewhere to go, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
