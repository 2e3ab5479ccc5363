"""Reconstruction objective, its exact gradient, and spectrum diagnostics.

The objective for a coefficient estimate x (which absorbs the inverse
temperature: a converged x equals sqrt(beta) * c) is

    f(x) = sum_i (tr(A_i rho(x)) - a_i)^2 + tr(Hs^2 rho(x)),

with Hs = sum_i x_i (A_i - a_i I) and rho = exp(-Hs^2) / tr exp(-Hs^2).
f depends on x only through v3 = Hs^2, so the gradient is one reverse-mode
(adjoint) pass: the single d x d adjoint G = df/dv3, built in the eigenbasis
of v3, gives every component as grad_k = tr(B_k (Hs G + G Hs)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .operators import OperatorBasis

IMAG_RESIDUE_TOL = 1e-8


@dataclass
class GraphEval:
    """All intermediate node values of one objective evaluation."""

    x: np.ndarray
    v2: np.ndarray  # Hs
    v3: np.ndarray  # Hs^2
    v4: np.ndarray  # exp(-Hs^2)
    v5: float  # tr v4
    v6: np.ndarray  # rho
    v7: np.ndarray  # residuals tr(A_j rho) - a_j
    v8: float  # sum of squared residuals
    v9: float  # tr(Hs^2 rho)
    v10: float  # f = v8 + v9
    grad: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        return {
            "x": self.x.tolist(),
            "v2": linalg.matrix_to_json(self.v2),
            "v3": linalg.matrix_to_json(self.v3),
            "v4": linalg.matrix_to_json(self.v4),
            "v5": self.v5,
            "v6": linalg.matrix_to_json(self.v6),
            "v7": self.v7.tolist(),
            "v8": self.v8,
            "v9": self.v9,
            "v10": self.v10,
            "grad": None if self.grad is None else self.grad.tolist(),
        }


@dataclass
class Diagnostics:
    """Spectrum of Hs^2 and the Boltzmann weight of its ground level."""

    spectrum: np.ndarray
    ground_prob: float
    gaps: np.ndarray


def first_positive_gap(spectrum: np.ndarray, tol: float = 1e-12) -> float:
    """First gap of an ascending spectrum exceeding tol (0.0 if none)."""
    gaps = np.diff(spectrum)
    for g in gaps:
        if g > tol:
            return float(g)
    return 0.0


def build_shifted_terms(basis: OperatorBasis, a: Sequence[float]) -> list:
    """B_i = A_i - a_i I; these are also the per-coefficient derivatives of Hs."""
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.size,):
        raise ValueError(f"measurement vector length {a.shape} != basis size {basis.size}")
    eye = np.eye(basis.dim)
    return [term - ai * eye for term, ai in zip(basis.terms, a)]


def _real_traces(values: np.ndarray, scales=1.0) -> np.ndarray:
    """Real parts of an array of traces that are real in exact arithmetic.

    scales carries the conditioning of each expression (product of operand
    norms); the imaginary residue is judged against it, since traces of large
    nearly-cancelling products legitimately carry round-off of that size.
    """
    bound = IMAG_RESIDUE_TOL * np.maximum(1.0, np.maximum(np.abs(values.real), scales))
    residue = np.abs(values.imag)
    if np.any(residue > bound):
        worst = float(np.max(residue))
        raise RuntimeError(f"trace expected real, imaginary residue {worst:.3e}")
    return values.real


class ReconstructionObjective:
    """f(x), grad f(x), and diagnostics for one (basis, measurements) pair.

    The forward pass (one Hermitian eigendecomposition of Hs^2) is cached on
    the argument, so value/gradient/diagnostics at the same x share it. The
    exponential is evaluated with the minimum eigenvalue subtracted; the
    shift cancels in rho and in all reported ratios but prevents underflow
    once the spectrum grows large near convergence.
    """

    def __init__(self, basis: OperatorBasis, a: Sequence[float]):
        self.basis = basis
        self.a = np.asarray(a, dtype=float)
        d, m = basis.dim, basis.size
        self._b_stack = np.asarray(build_shifted_terms(basis, self.a), dtype=complex)
        # flattened stacks: tr(X_j Y) for every j is one product with Y^T raveled
        self._b_flat = self._b_stack.reshape(m, d * d)
        self._a_flat = np.asarray(basis.terms, dtype=complex).reshape(m, d * d)
        self._b_norms = np.linalg.norm(self._b_flat, axis=1)
        self._cache_key: Optional[bytes] = None
        self._cache: Optional[dict] = None

    @property
    def size(self) -> int:
        return self.basis.size

    def _forward(self, x: np.ndarray) -> dict:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.size},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite entries")
        key = x.tobytes()
        if self._cache_key == key:
            return self._cache
        v2 = np.tensordot(x, self._b_stack, axes=1)
        v3 = v2 @ v2
        lam, u = np.linalg.eigh(v3)
        mu = lam[0]
        wexp = np.exp(-(lam - mu))  # spectral shift: e^{-v3} = e^{-mu} U diag(wexp) U^dag
        v5s = float(np.sum(wexp))
        v4s = (u * wexp) @ u.conj().T
        v6 = v4s / v5s
        v6 = (v6 + v6.conj().T) / 2
        v7 = _real_traces(self._a_flat @ v6.T.ravel()) - self.a
        v8 = float(v7 @ v7)
        # tr(v3 v6) in the shared eigenbasis; v3 is PSD, so clip the tiny
        # negative eigh round-off (visible at ||x|| ~ 1e2+) to keep f >= 0
        v9 = float(np.sum(np.maximum(lam, 0.0) * wexp) / v5s)
        fwd = {
            "x": x.copy(),
            "v2": v2,
            "v3": v3,
            "lam": lam,
            "u": u,
            "mu": mu,
            "wexp": wexp,
            "v5s": v5s,
            "v4s": v4s,
            "v6": v6,
            "v7": v7,
            "v8": v8,
            "v9": v9,
            "f": v8 + v9,
        }
        self._cache_key = key
        self._cache = fwd
        return fwd

    def value(self, x) -> float:
        return self._forward(np.asarray(x, dtype=float))["f"]

    def gradient(self, x) -> np.ndarray:
        """Exact gradient by one adjoint (reverse-mode) pass.

        With r = v7, the derivative of f along a Hermitian change D of v3 is
        tr(G D), where, in the eigenbasis U of v3 (primes),

            W = sum_j 2 r_j A_j + v3,   W~ = W - tr(W rho) I,
            G' = (diag(wexp) - Phi * W~') / v5s,

        Phi being the divided-difference table of exp at the shifted spectrum
        -(lam - mu); the Frechet derivative of exp at a Hermitian matrix is
        self-adjoint under the trace inner product, which moves it onto W~.
        Coefficient k changes v3 by B_k Hs + Hs B_k, so
        grad_k = tr(B_k S) with S = Hs G + G Hs and G = U G' U^dag. The
        spectral shift mu cancels in rho and every downstream node, so
        holding it fixed gives the exact derivative.
        """
        fwd = self._forward(np.asarray(x, dtype=float))
        lam, u, wexp, v5s = fwd["lam"], fwd["u"], fwd["wexp"], fwd["v5s"]
        phi = linalg._divided_difference_table(-(lam - fwd["mu"]))
        uh = u.conj().T
        # sum_j 2 r_j B_j differs from sum_j 2 r_j A_j by a multiple of I,
        # which the centring on tr(W rho) removes
        w_rep = uh @ np.tensordot(2.0 * fwd["v7"], self._b_stack, axes=1) @ u
        diag = np.diag_indices_from(w_rep)
        w_diag = w_rep[diag].real + lam
        w_rep[diag] = w_diag - (w_diag @ wexp) / v5s
        g_rep = -phi * w_rep
        g_rep[diag] += wexp
        hg = fwd["v2"] @ (u @ (g_rep / v5s) @ uh)
        s = hg + hg.conj().T
        grad = _real_traces(self._b_flat @ s.T.ravel(), self._b_norms * np.linalg.norm(s))
        fwd["grad"] = grad
        return grad.copy()

    def graph(self, x) -> GraphEval:
        """Full node-by-node evaluation, with v4/v5 reported unshifted."""
        fwd = self._forward(np.asarray(x, dtype=float))
        scale = np.exp(-fwd["mu"])  # may underflow to 0 for debug output; rho is unaffected
        return GraphEval(
            x=fwd["x"].copy(),
            v2=fwd["v2"].copy(),
            v3=fwd["v3"].copy(),
            v4=scale * fwd["v4s"],
            v5=scale * fwd["v5s"],
            v6=fwd["v6"].copy(),
            v7=fwd["v7"].copy(),
            v8=fwd["v8"],
            v9=fwd["v9"],
            v10=fwd["f"],
            grad=None if "grad" not in fwd else fwd["grad"].copy(),
        )

    def diagnostics(self, x) -> Diagnostics:
        """Spectrum of Hs^2, its gaps, and the ground-level Boltzmann weight.

        ground_prob = e^{-E_g} / tr e^{-Hs^2}, computed in the shifted form
        1 / sum_i e^{-(E_i - E_g)} which is identical by cancellation.
        """
        fwd = self._forward(np.asarray(x, dtype=float))
        spectrum = np.maximum(fwd["lam"], 0.0)  # Hs^2 is PSD; clip eigh round-off
        ground_prob = float(1.0 / np.sum(np.exp(-(fwd["lam"] - fwd["lam"][0]))))
        return Diagnostics(spectrum=spectrum, ground_prob=ground_prob, gaps=np.diff(spectrum))


def density_matrix(basis: OperatorBasis, a, x) -> np.ndarray:
    """rho(x) = exp(-Hs^2) / tr exp(-Hs^2)."""
    return ReconstructionObjective(basis, a)._forward(np.asarray(x, dtype=float))["v6"].copy()
