"""Hamiltonian coefficient reconstruction from single-eigenstate expectation
values, via a thermal-state objective with exact matrix-valued gradients."""

from .linalg import frechet_exp
from .metrics import ReconstructionReport, hamiltonian_fidelity, recover_eigenstate, recover_eigenvalue, report
from .objective import Diagnostics, ReconstructionObjective
from .operators import (
    LatticeSpec,
    MeasurementRecord,
    OperatorBasis,
    assemble,
    basis_generic,
    basis_two_local,
    eigenstate_measurements,
    embed_two_local,
    random_hermitian,
)
from .optimizer import SolveConfig, SolveResult, bfgs_minimize, solve_hamiltonian
from .harness import ExperimentConfig, ResultRow, run_experiment, summarize

__all__ = [
    "frechet_exp",
    "ReconstructionReport",
    "hamiltonian_fidelity",
    "recover_eigenstate",
    "recover_eigenvalue",
    "report",
    "Diagnostics",
    "ReconstructionObjective",
    "LatticeSpec",
    "MeasurementRecord",
    "OperatorBasis",
    "assemble",
    "basis_generic",
    "basis_two_local",
    "eigenstate_measurements",
    "embed_two_local",
    "random_hermitian",
    "SolveConfig",
    "SolveResult",
    "bfgs_minimize",
    "solve_hamiltonian",
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "summarize",
]

__version__ = "0.1.0"
