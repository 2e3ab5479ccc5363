"""Config-driven experiment suites: seeded instance generation, solving,
reporting, and aggregate summaries.

Instance-level randomness is split from the master seed as
SeedSequence(master_seed, spawn_key=(row_id, stream)) with stream 0 for
generation and stream 1 for the solver restarts, so instances can run in
parallel and still reproduce byte-identically.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import metrics
from .operators import (
    DegenerateEigenstateError,
    LatticeSpec,
    OperatorBasis,
    basis_generic,
    basis_two_local,
    eigenstate_measurements,
)
from .optimizer import SolveConfig, solve_hamiltonian

PRESETS = ("generic", "local_full", "local_chain", "level_sweep", "custom")
MAX_REDRAWS = 10

RESULT_FIELDS = (
    "instance_id",
    "n",
    "m",
    "eigen_index",
    "fidelity",
    "abs_fidelity",
    "f_final",
    "grad_norm",
    "restarts",
    "iterations",
    "ground_prob_final",
    "gap_first_initial",
    "gap_first_final",
    "lambda_hat",
    "state_overlap",
    "converged",
    "wall_ms",
    "seed",
)


@dataclass
class ResultRow:
    instance_id: int
    n: Optional[int]
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
    wall_ms: float
    seed: int

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in RESULT_FIELDS}


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
    out_path: Optional[str] = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.preset == "generic":
            if self.m_terms is None or self.m_terms < 1:
                raise ValueError("generic preset requires m_terms >= 1")
        if self.preset == "custom" and self.lattice is None:
            raise ValueError("custom preset requires an explicit lattice")
        pol = self.eigen_index_policy
        if not (pol in ("random", "all") or isinstance(pol, int)):
            raise ValueError(f"bad eigen_index_policy {pol!r}")
        if isinstance(pol, int) and not (0 <= pol < 2**self.n_qubits):
            raise ValueError(f"fixed eigen index {pol} out of range")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        if "lattice" in obj and obj["lattice"] is not None:
            lat = obj["lattice"]
            obj["lattice"] = LatticeSpec(
                num_qubits=int(lat["num_qubits"]),
                edges=tuple(tuple(e) for e in lat["edges"]),
            )
        if "solve" in obj and obj["solve"] is not None:
            obj["solve"] = SolveConfig.from_dict(obj["solve"])
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown experiment-config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _instance_seed(master: int, row_id: int, stream: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(row_id, stream)).generate_state(1)[0])


def _gen_rng(master: int, row_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(row_id, 0)))


def _lattice_for(cfg: ExperimentConfig) -> Optional[LatticeSpec]:
    if cfg.preset in ("local_full", "level_sweep"):
        return LatticeSpec.fully_connected(cfg.n_qubits)
    if cfg.preset == "local_chain":
        return LatticeSpec.chain(cfg.n_qubits)
    if cfg.preset == "custom":
        return cfg.lattice
    return None


def _draw_instance(cfg: ExperimentConfig, rng: np.random.Generator):
    """One (basis, c_true) draw; coefficients uniform on (0, 1)."""
    lattice = _lattice_for(cfg)
    if cfg.preset == "generic":
        basis = basis_generic(2**cfg.n_qubits, cfg.m_terms, rng)
    else:
        basis = basis_two_local(lattice, rng)
    c_true = rng.uniform(0.0, 1.0, basis.size)
    return basis, c_true


def _all_levels_separated(basis: OperatorBasis, c_true: np.ndarray) -> bool:
    from .operators import GAP_TOL, assemble

    w = np.linalg.eigvalsh(assemble(basis, c_true))
    return bool(np.all(np.diff(w) > GAP_TOL))


def _row_tasks(cfg: ExperimentConfig) -> list:
    """(row_id, instance_index, eigen_index-or-None) for the whole suite."""
    d = 2**cfg.n_qubits
    pol = cfg.eigen_index_policy
    sweep = cfg.preset == "level_sweep" or pol == "all"
    n_instances = 1 if cfg.preset == "level_sweep" else cfg.num_instances
    tasks = []
    row_id = 0
    for i in range(n_instances):
        if sweep:
            for k in range(d):
                tasks.append((row_id, i, k))
                row_id += 1
        else:
            tasks.append((row_id, i, pol if isinstance(pol, int) else None))
            row_id += 1
    return tasks


def draw_instance(cfg: ExperimentConfig, row_id: int, instance_index: int, eigen_index):
    """(basis, record) of one suite row; eigen_index None draws a random level.

    The Hamiltonian comes from the instance's generator stream, so the rows of
    a level sweep share it. A degenerate target level is redrawn, and a sweep
    redraws until every level is separated.
    """
    rng = _gen_rng(cfg.seed, instance_index)
    sweep = eigen_index is not None and (cfg.preset == "level_sweep" or cfg.eigen_index_policy == "all")
    basis_ref = f"basis_{row_id:04d}"
    for _ in range(MAX_REDRAWS):
        basis, c_true = _draw_instance(cfg, rng)
        if sweep and not _all_levels_separated(basis, c_true):
            continue  # a sweep needs every level non-degenerate; redraw the Hamiltonian
        if eigen_index is None:
            levels = (int(rng.integers(basis.dim)) for _ in range(MAX_REDRAWS))
        else:
            levels = (eigen_index,)
        for k in levels:
            try:
                return basis, eigenstate_measurements(basis, c_true, k, seed=cfg.seed, basis_ref=basis_ref)
            except DegenerateEigenstateError:
                pass
    raise RuntimeError(f"could not draw a non-degenerate instance after {MAX_REDRAWS} attempts")


def _run_row(cfg: ExperimentConfig, row_id: int, instance_index: int, eigen_index) -> ResultRow:
    t0 = time.perf_counter()
    basis, record = draw_instance(cfg, row_id, instance_index, eigen_index)
    solve_seed = _instance_seed(cfg.seed, row_id, 1)
    solve_cfg = SolveConfig(**{**cfg.solve.__dict__, "seed": solve_seed})
    result = solve_hamiltonian(basis, record.a, solve_cfg)
    rep = metrics.report(basis, result, record)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return ResultRow(
        instance_id=row_id,
        n=basis.n_qubits,
        m=basis.size,
        eigen_index=record.truth.eigen_index,
        fidelity=rep.fidelity,
        abs_fidelity=rep.abs_fidelity,
        f_final=result.f_final,
        grad_norm=result.grad_norm_final,
        restarts=result.restarts_used,
        iterations=result.iterations_total,
        ground_prob_final=result.ground_prob_final,
        gap_first_initial=result.gap_first_initial,
        gap_first_final=result.gap_first_final,
        lambda_hat=rep.lambda_hat,
        state_overlap=rep.state_overlap,
        converged=result.converged,
        wall_ms=wall_ms,
        seed=solve_seed,
    )


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Run the full suite; rows come back in instance-id order."""
    tasks = _row_tasks(cfg)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _run_row(cfg, *t), tasks))
    else:
        rows = [_run_row(cfg, *t) for t in tasks]
    return rows


def summarize(rows, bins: int = 20, bin_range=(0.99, 1.0)) -> dict:
    """Aggregate fidelity statistics and histogram counts over the rows."""
    if not rows:
        raise ValueError("no rows to summarize")
    dicts = [r.to_json() if isinstance(r, ResultRow) else dict(r) for r in rows]
    fid = np.array([r["abs_fidelity"] for r in dicts])
    counts, edges = np.histogram(fid, bins=bins, range=bin_range)
    return {
        "count": len(dicts),
        "mean_abs_fidelity": float(np.mean(fid)),
        "median_abs_fidelity": float(np.median(fid)),
        "min_abs_fidelity": float(np.min(fid)),
        "convergence_rate": float(np.mean([bool(r["converged"]) for r in dicts])),
        "histogram": {
            "bin_edges": edges.tolist(),
            "counts": counts.tolist(),
            "below_range": int(np.sum(fid < bin_range[0])),
        },
    }


def write_rows(rows, path, fmt: str = "jsonl") -> None:
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r.to_json()) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
            writer.writeheader()
            for r in rows:
                writer.writerow(r.to_json())
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_rows(path) -> list:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
