"""Config-driven experiment suites: seeded instance generation, solving,
reporting, and aggregate summaries.

Randomness is split from the master seed: instance i draws its Hamiltonian
and levels from SeedSequence(master_seed, spawn_key=(i, 0)), which every row
of a level sweep shares, and row r its solver restarts from spawn_key=(r, 1),
so rows can run in lockstep and still reproduce byte-identically.
"""

from __future__ import annotations

import collections
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .objective import evaluate_stacked, stack_operands
from .operators import (
    DegenerateEigenstateError,
    LatticeSpec,
    basis_generic,
    basis_two_local,
    eigenstate_measurements,
    json_object,
    levels_separated,
    require_float,
    require_int,
    require_json,
    require_keys,
    require_qubits,
    shown,
)
from .optimizer import SolveConfig, solve_hamiltonian, solve_steps

PRESETS = ("generic", "local_full", "local_chain", "custom")
MAX_REDRAWS = 10

HIST_BINS = 20
HIST_RANGE = (0.99, 1.0)


@dataclass
class ResultRow:
    """One suite row: the row's identity, the SolveResult fields but x_opt,
    and the ReconstructionReport fields, under the same names."""

    instance_id: int
    n: int
    m: int
    eigen_index: int
    fidelity: float
    abs_fidelity: float
    f_final: float
    grad_norm: float
    restarts: int
    iterations: int
    ground_prob_final: float
    gap_first_initial: float
    gap_first_final: float
    lambda_hat: float
    state_overlap: Optional[float]
    converged: bool
    wall_ms: float  # draw to report; in lockstep it includes the rows solved alongside
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentConfig:
    preset: str
    n_qubits: int
    num_instances: int
    seed: int = 0
    m_terms: Optional[int] = None  # generic preset only
    lattice: Optional[LatticeSpec] = None  # custom preset only
    eigen_index_policy: object = "random"  # "random" | "all" | int (fixed)
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {shown(self.preset)}; expected one of {PRESETS}")
        require_int("num_instances", self.num_instances, 1)
        require_qubits("n_qubits", self.n_qubits, 1)
        require_int("seed", self.seed, 0)
        # a setting no row of the preset reads is refused, not ignored
        if (self.m_terms is None) == (self.preset == "generic"):
            raise ValueError(f"m_terms is needed by preset generic and refused by the others, got {shown(self.preset)}")
        if (self.lattice is None) == (self.preset == "custom"):
            raise ValueError(f"lattice is needed by preset custom and refused by the others, got {shown(self.preset)}")
        # n_qubits sizes every preset's rows, so a lattice must agree with it
        if self.lattice is not None and self.lattice.num_qubits != self.n_qubits:
            raise ValueError(f"n_qubits {self.n_qubits} differs from the lattice num_qubits {self.lattice.num_qubits}")
        if self.m_terms is not None:
            require_int("m_terms", self.m_terms, 1)
        if self.solve.seed is not None:
            raise ValueError("solve.seed is refused: each row derives its solve seed from the config's seed")
        pol = self.eigen_index_policy
        if not (pol in ("random", "all") or (isinstance(pol, int) and not isinstance(pol, bool))):
            raise ValueError(f"bad eigen_index_policy {shown(pol)}")
        if isinstance(pol, int) and not (0 <= pol < 2**self.n_qubits):
            raise ValueError(f"eigen_index_policy {shown(pol)} out of range for dimension {2**self.n_qubits}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        require_json("experiment config", obj)
        obj = dict(obj)
        if obj.get("lattice") is not None:
            obj["lattice"] = LatticeSpec.from_json(obj["lattice"])
        if obj.get("solve") is None:  # null means the default settings, like an absent key
            obj.pop("solve", None)
        else:
            obj["solve"] = SolveConfig.from_dict(obj["solve"])
        require_keys("experiment-config", obj, cls)
        return cls(**obj)


def _instance_seed(master: int, row_id: int, stream: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(row_id, stream)).generate_state(1)[0])


def _gen_rng(master: int, instance_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(instance_index, 0)))


def _draw_instance(cfg: ExperimentConfig, rng: np.random.Generator):
    """One (basis, c_true) draw; coefficients uniform on (0, 1)."""
    if cfg.preset == "generic":
        basis = basis_generic(2**cfg.n_qubits, cfg.m_terms, rng)
    elif cfg.preset == "local_full":
        basis = basis_two_local(LatticeSpec.fully_connected(cfg.n_qubits), rng)
    elif cfg.preset == "local_chain":
        basis = basis_two_local(LatticeSpec.chain(cfg.n_qubits), rng)
    else:
        basis = basis_two_local(cfg.lattice, rng)
    c_true = rng.uniform(0.0, 1.0, basis.size)
    return basis, c_true


def _row_tasks(cfg: ExperimentConfig) -> list:
    """(row_id, instance_index, eigen_index-or-None) for the whole suite.

    A level sweep, eigen_index_policy "all", solves every level of each instance.
    """
    pol = cfg.eigen_index_policy
    levels = range(2**cfg.n_qubits) if pol == "all" else (pol if isinstance(pol, int) else None,)
    pairs = [(i, k) for i in range(cfg.num_instances) for k in levels]
    return [(row_id, i, k) for row_id, (i, k) in enumerate(pairs)]


def draw_instance(cfg: ExperimentConfig, instance_index: int, eigen_index):
    """(basis, record) of a suite row: instance instance_index at level
    eigen_index, where None draws a random level.

    The Hamiltonian comes from the instance's generator stream, so the rows of
    a level sweep share it. A degenerate target level is redrawn, and a sweep
    redraws until every level is separated.
    """
    rng = _gen_rng(cfg.seed, instance_index)
    sweep = cfg.eigen_index_policy == "all"
    for _ in range(MAX_REDRAWS):
        basis, c_true = _draw_instance(cfg, rng)
        if sweep and not levels_separated(basis, c_true):
            continue  # a sweep needs every level non-degenerate; redraw the Hamiltonian
        if eigen_index is None:
            levels = (int(rng.integers(basis.dim)) for _ in range(MAX_REDRAWS))
        else:
            levels = (eigen_index,)
        for k in levels:
            try:
                return basis, eigenstate_measurements(basis, c_true, k)
            except DegenerateEigenstateError:
                pass
    raise RuntimeError(f"could not draw a non-degenerate instance after {MAX_REDRAWS} attempts")


def _start_row(cfg: ExperimentConfig, row_id: int, instance_index: int, eigen_index):
    """(basis, record, solve settings) of one suite row."""
    basis, record = draw_instance(cfg, instance_index, eigen_index)
    return basis, record, replace(cfg.solve, seed=_instance_seed(cfg.seed, row_id, 1))


def _finish_row(cfg: ExperimentConfig, row_id: int, basis, record, seed: int, result, t0: float) -> ResultRow:
    rep = metrics.report(basis, result, record)
    solved = asdict(result)
    del solved["x_opt"]
    return ResultRow(
        instance_id=row_id, n=cfg.n_qubits, m=basis.size, eigen_index=record.truth.eigen_index, seed=seed,
        wall_ms=(time.perf_counter() - t0) * 1000.0, **solved, **asdict(rep),
    )


def _run_row(cfg: ExperimentConfig, row_id: int, instance_index: int, eigen_index) -> ResultRow:
    t0 = time.perf_counter()
    basis, record, solve_cfg = _start_row(cfg, row_id, instance_index, eigen_index)
    result = solve_hamiltonian(basis, record.a, solve_cfg)
    return _finish_row(cfg, row_id, basis, record, solve_cfg.seed, result, t0)


def _row_steps(cfg: ExperimentConfig, row_id: int, instance_index: int, eigen_index):
    """_run_row as a generator: yields the row's objective, then each point
    its solve needs evaluated (see solve_steps), and returns the ResultRow."""
    t0 = time.perf_counter()
    basis, record, solve_cfg = _start_row(cfg, row_id, instance_index, eigen_index)
    result = yield from solve_steps(basis, record.a, solve_cfg)
    return _finish_row(cfg, row_id, basis, record, solve_cfg.seed, result, t0)


# Rows the lockstep worker stacks at d <= STACK_DIM_MAX; wider rows run
# _run_row one at a time. Measured (2 cores, one BLAS thread): at d = 16,
# m = 3 a stacked evaluation costs 115-118 us a row alone, 79-93 at 2 rows,
# 63-66 at 8 and 57-64 at 16. A second stacking worker bought no wall time
# for a quarter more CPU (the GIL serialises its small calls), hence one.
# 40 generic n=4 rows took 1.29-1.44 s with 8 in flight, 1.28-1.51 s with 16
# and 1.34-1.43 s with 40, and 8, 16, 24 and 40 peaked at 38.2, 39.2, 40.2
# and 41.9 MB, so 8; at d = 4 and 8, 8 also took less CPU than 1 or 4. At
# d = 32 a row costs 249-269 us alone, 285-445 at 2 and 246-261 at 8, and at
# d = 64 four cost 1.1x-1.7x a row: wide rows are not stacked.
ROWS_IN_FLIGHT = 8
STACK_DIM_MAX = 16


def _answers(objectives: Sequence, points: Sequence, ops: tuple) -> list:
    """(f, grad) of each objective at its point, or the exception evaluating
    it raised.

    One stacked evaluation over ops, the objectives' stacked operands,
    answers all of them. If it raises, each row is evaluated alone, so a
    failure is charged to the row that raises it, with the message it
    raises alone.
    """
    try:
        fs, gs = evaluate_stacked(ops, points)
        return list(zip(fs, gs))
    except Exception:
        pass
    out = []
    for obj, x in zip(objectives, points):
        try:
            out.append((obj.value(x), obj.gradient(x)))
        except Exception as exc:
            out.append(exc)
    return out


def _lockstep_worker(cfg: ExperimentConfig, tasks: list) -> dict:
    """Solve the rows of `tasks`, up to ROWS_IN_FLIGHT of them in lockstep.

    Each row is a _row_steps generator. Every step answers the pending point
    of each row in flight with one stacked evaluation; a row that ends is
    replaced by the next task. The rows' operands are stacked again only
    when the rows in flight change. Returns {row_id: ResultRow, or the
    exception the row raised}.
    """
    pending = collections.deque(tasks)
    done = {}
    flights = []  # (row_id, steps, objective, point) of each row in flight
    ops = None  # the flights' stacked operands; None once the flights change
    while True:
        while pending and len(flights) < ROWS_IN_FLIGHT:
            row_id, instance_index, eigen_index = pending.popleft()
            steps = _row_steps(cfg, row_id, instance_index, eigen_index)
            try:  # the row's objective, then its first point: a row the probe wins has none
                flights.append((row_id, steps, next(steps), next(steps)))
                ops = None
            except StopIteration as stop:
                done[row_id] = stop.value
            except Exception as exc:
                done[row_id] = exc
        if not flights:
            return done
        _, _, objectives, points = zip(*flights)
        if ops is None:
            ops = stack_operands(objectives)
        waiting = []
        for (row_id, steps, obj, _), answer in zip(flights, _answers(objectives, points, ops)):
            try:
                if isinstance(answer, Exception):
                    raise answer
                waiting.append((row_id, steps, obj, steps.send(answer)))
            except StopIteration as stop:
                done[row_id] = stop.value
            except Exception as exc:
                done[row_id] = exc
        if len(waiting) < len(flights):
            ops = None
        flights = waiting


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Run the full suite; rows come back in instance-id order.

    threads = 1 solves one row at a time. With threads >= 2, rows of
    d <= STACK_DIM_MAX are solved by one lockstep worker (see
    _lockstep_worker) in the calling thread, ROWS_IN_FLIGHT rows at a time:
    a second worker would only contend for the GIL. Wider rows run one at a
    time, as at threads = 1. No path starts a thread. The rows are the same
    bits either way but wall_ms; an exception raised by any row is raised
    here, the lowest row id's first, as the serial run raises it.
    """
    require_int("threads", threads, 1)
    tasks = _row_tasks(cfg)
    if threads == 1 or 2**cfg.n_qubits > STACK_DIM_MAX:
        return [_run_row(cfg, *t) for t in tasks]
    done = _lockstep_worker(cfg, tasks)
    rows = [done[row_id] for row_id, _, _ in tasks]
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return rows


def summarize(rows) -> dict:
    """Aggregate fidelity statistics and histogram counts over JSON row
    objects, as read_rows returns them; a row is named by its place from 1."""
    if not rows:
        raise ValueError("no rows to summarize")
    for i, r in enumerate(rows, 1):
        for key in ("abs_fidelity", "converged"):
            if key not in r:
                raise ValueError(f"row {i} has no {key}")
        if not math.isfinite(require_float(f"row {i}: abs_fidelity", r["abs_fidelity"])):
            raise ValueError(f"row {i}: abs_fidelity must be a finite real number, got {shown(r['abs_fidelity'])}")
        require_json(f"row {i}: converged", r["converged"], bool)
    fid = np.array([r["abs_fidelity"] for r in rows])
    # a fidelity exceeds 1 by round-off only; binned at 1, it is not left out
    counts, edges = np.histogram(np.minimum(fid, HIST_RANGE[1]), bins=HIST_BINS, range=HIST_RANGE)
    return {
        "count": len(rows),
        "mean_abs_fidelity": float(np.mean(fid)),
        "median_abs_fidelity": float(np.median(fid)),
        "min_abs_fidelity": float(np.min(fid)),
        "convergence_rate": float(np.mean([r["converged"] for r in rows])),
        "histogram": {
            "bin_edges": edges.tolist(),
            "counts": counts.tolist(),
            "below_range": int(np.sum(fid < HIST_RANGE[0])),
        },
    }


def write_rows(rows, path) -> None:
    """Write the rows to a JSONL file, one JSON object a line."""
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r.to_json()) + "\n")


def read_rows(path) -> list:
    """The row objects of a JSONL file, one a line; blank lines are skipped."""
    with open(path) as fh:
        return [json_object(line, f"{path} line {n}") for n, line in enumerate(fh, 1) if line.strip()]
