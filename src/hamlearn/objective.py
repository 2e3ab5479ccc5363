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


@dataclass
class Diagnostics:
    """Spectrum of Hs^2 and the Boltzmann weight of its ground level."""

    spectrum: np.ndarray
    ground_prob: float


def first_positive_gap(spectrum: np.ndarray, tol: float = 1e-12) -> float:
    """First gap of an ascending spectrum exceeding tol (0.0 if none)."""
    gaps = np.diff(spectrum)
    for g in gaps:
        if g > tol:
            return float(g)
    return 0.0


def _real_traces(values: np.ndarray, scales=1.0) -> np.ndarray:
    """Real parts of an array of traces that are real in exact arithmetic.

    scales carries the conditioning of each expression (product of operand
    norms); the imaginary residue is judged against it, since traces of large
    nearly-cancelling products legitimately carry round-off of that size.
    """
    residue = np.abs(values.imag)
    worst = float(residue.max())
    # every bound is at least IMAG_RESIDUE_TOL, so only a larger residue can fail
    if worst > IMAG_RESIDUE_TOL:
        bound = IMAG_RESIDUE_TOL * np.maximum(1.0, np.maximum(np.abs(values.real), scales))
        if np.any(residue > bound):
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
        if self.a.shape != (m,):
            raise ValueError(f"measurement vector length {self.a.shape} != basis size {m}")
        # B_i = A_i - a_i I, also the per-coefficient derivatives of Hs
        eye = np.eye(d)
        b_stack = np.asarray([term - ai * eye for term, ai in zip(basis.terms, self.a)], dtype=complex)
        # flattened stacks: tr(X_j Y) for every j is one product with Y^T
        # raveled, and sum_j c_j X_j is c @ X_flat reshaped to d x d
        self._b_flat = b_stack.reshape(m, d * d)
        self._a_flat = np.asarray(basis.terms, dtype=complex).reshape(m, d * d)
        self._b_norms = np.linalg.norm(self._b_flat, axis=1)
        self._x_shape = (m,)
        self._cache_key: Optional[bytes] = None
        self._cache: Optional[dict] = None

    @property
    def size(self) -> int:
        return self.basis.size

    def _forward(self, x: np.ndarray) -> dict:
        x = np.asarray(x, dtype=float)
        # a cached x passed both checks below, so equal bytes and shape need neither
        key = x.tobytes()
        if key == self._cache_key and x.shape == self._x_shape:
            return self._cache
        if x.shape != self._x_shape:
            raise ValueError(f"x has shape {x.shape}, expected {self._x_shape}")
        if not np.isfinite(x).all():
            raise ValueError("x contains non-finite entries")
        d = self.basis.dim
        v2 = (x @ self._b_flat).reshape(d, d)
        v3 = v2 @ v2
        lam, u = np.linalg.eigh(v3)
        uh = u.conj().T
        mu = lam[0]
        wexp = np.exp(-(lam - mu))  # spectral shift: e^{-v3} = e^{-mu} U diag(wexp) U^dag
        v5s = float(wexp.sum())
        v4s = (u * wexp) @ uh
        v6 = v4s / v5s
        v6 = (v6 + v6.conj().T) / 2
        v7 = _real_traces(self._a_flat @ v6.T.ravel()) - self.a
        v8 = float(v7 @ v7)
        # tr(v3 v6) in the shared eigenbasis; v3 is PSD, so clip the tiny
        # negative eigh round-off (visible at ||x|| ~ 1e2+) to keep f >= 0
        v9 = float((np.maximum(lam, 0.0) * wexp).sum() / v5s)
        fwd = {
            "x": x.copy(),
            "v2": v2,
            "v3": v3,
            "lam": lam,
            "u": u,
            "uh": uh,
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
        return self._forward(x)["f"]

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
        fwd = self._forward(x)
        lam, u, uh, wexp, v5s = fwd["lam"], fwd["u"], fwd["uh"], fwd["wexp"], fwd["v5s"]
        d = lam.size
        phi = linalg._divided_difference_table(-(lam - fwd["mu"]))
        # sum_j 2 r_j B_j differs from sum_j 2 r_j A_j by a multiple of I,
        # which the centring on tr(W rho) removes
        w_rep = uh @ ((2.0 * fwd["v7"]) @ self._b_flat).reshape(d, d) @ u
        w_diag = w_rep.reshape(-1)[:: d + 1]  # strided views of the diagonals
        w_real = w_diag.real + lam
        w_diag[:] = w_real - (w_real @ wexp) / v5s
        g_rep = -phi * w_rep
        g_rep.reshape(-1)[:: d + 1] += wexp
        hg = fwd["v2"] @ (u @ (g_rep / v5s) @ uh)
        s = hg + hg.conj().T
        grad = _real_traces(self._b_flat @ s.T.ravel(), self._b_norms * np.linalg.norm(s))
        return grad.copy()  # contiguous, not a strided view of the complex traces

    def graph(self, x) -> GraphEval:
        """Full node-by-node evaluation, with v4/v5 reported unshifted."""
        fwd = self._forward(x)
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
        )

    def diagnostics(self, x) -> Diagnostics:
        """Spectrum of Hs^2 and the ground-level Boltzmann weight.

        ground_prob = e^{-E_g} / tr e^{-Hs^2}, computed in the shifted form
        1 / sum_i e^{-(E_i - E_g)} which is identical by cancellation.
        """
        fwd = self._forward(x)
        spectrum = np.maximum(fwd["lam"], 0.0)  # Hs^2 is PSD; clip eigh round-off
        ground_prob = float(1.0 / np.sum(np.exp(-(fwd["lam"] - fwd["lam"][0]))))
        return Diagnostics(spectrum=spectrum, ground_prob=ground_prob)
