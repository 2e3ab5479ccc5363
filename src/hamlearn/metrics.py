"""Comparison of reconstructed and true Hamiltonians; eigenpair recovery."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .objective import HS2_GAP_TOL, ReconstructionObjective
from .operators import MeasurementRecord, OperatorBasis, assemble, require_vector, true_eigenstate
from .optimizer import SolveResult

PHASE_TOL = 1e-8  # recover_eigenstate makes the first component above this in magnitude real positive


@dataclass
class ReconstructionReport:
    fidelity: float
    abs_fidelity: float
    lambda_hat: float  # eigenvalue of the unit-norm Hamiltonian
    state_overlap: Optional[float] = None


def hamiltonian_fidelity(h1, h2) -> float:
    """tr(H1 H2) / sqrt(tr H1^2 tr H2^2); invariant under positive rescaling."""
    h1 = linalg.check_hermitian(h1, "H1")
    h2 = linalg.check_hermitian(h2, "H2", h1.shape[0])
    n1 = linalg.trace_product(h1, h1).real
    n2 = linalg.trace_product(h2, h2).real
    if n1 <= 0 or n2 <= 0:
        raise ValueError("fidelity undefined for the zero operator")
    return float(linalg.trace_product(h1, h2).real / np.sqrt(n1 * n2))


def _scaled(x: np.ndarray) -> np.ndarray:
    """x, or x / max|x_i| where ||x|| underflows to 0 or overflows to inf: an x of the same direction
    whose norm is finite and nonzero. ValueError if x is zero."""
    if not x.any():
        raise ValueError("coefficient vector is zero")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x)
    return x / np.max(np.abs(x)) if norm == 0 or np.isinf(norm) else x


def recover_eigenvalue(basis: OperatorBasis, x, a) -> float:
    """Eigenvalue of the unit-norm Hamiltonian: sum_i (x_i/||x||) a_i, for x and a of one entry per term.

    Only the unit-norm value is recoverable; the absolute scale of the
    coefficients is absorbed into the effective inverse temperature.
    """
    x = _scaled(require_vector("x", x, basis.size))
    a = require_vector("measurement vector a", a, basis.size)
    return float((x / np.linalg.norm(x)) @ a)


def recover_eigenstate(basis: OperatorBasis, x, a) -> np.ndarray:
    """Ground state of Hs(x)^2 = (sum_i x_i (A_i - a_i I))^2.

    Returned up to global phase; the first component above PHASE_TOL in
    magnitude is made real positive. A ground gap of at most HS2_GAP_TOL
    only warns: the returned vector is then one arbitrary member of the
    ground space. The eigenvectors depend on x's direction alone, so an x
    whose norm under- or overflows is read as _scaled reads it.
    """
    x = _scaled(require_vector("x", x, basis.size))
    fwd = ReconstructionObjective(basis, a)._forward(x)
    w, u = fwd["lam"], fwd["u"]
    if basis.dim > 1 and w[1] - w[0] <= HS2_GAP_TOL:  # levels first_positive_gap reads as one
        warnings.warn(
            f"ground space of Hs^2 nearly degenerate (gap {w[1] - w[0]:.3e}); "
            "recovered eigenstate is not unique"
        )
    psi = u[:, 0]
    comp = psi[np.flatnonzero(np.abs(psi) > PHASE_TOL)[0]]  # some |psi_k| >= 1/sqrt(d)
    return psi * (comp.conjugate() / abs(comp))


def report(basis: OperatorBasis, solve_result: SolveResult, record: MeasurementRecord) -> ReconstructionReport:
    """Assemble fidelity, recovered eigenvalue, and state overlap against truth."""
    if record.truth is None:
        raise ValueError("measurement record carries no truth fields")
    truth = record.truth
    h_al = assemble(basis, solve_result.x_opt)
    h_rd = assemble(basis, truth.c_true)
    fid = hamiltonian_fidelity(h_al, h_rd)
    lam_hat = recover_eigenvalue(basis, solve_result.x_opt, record.a)
    psi_hat = recover_eigenstate(basis, solve_result.x_opt, record.a)
    _, psi_true = true_eigenstate(basis, truth.c_true, truth.eigen_index)
    overlap = float(abs(psi_hat.conj() @ psi_true) ** 2)
    return ReconstructionReport(fidelity=fid, abs_fidelity=abs(fid), lambda_hat=lam_hat, state_overlap=overlap)
