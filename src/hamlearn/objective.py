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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .operators import OperatorBasis, check_measurement_range, require_vector

HS2_GAP_TOL = 1e-12  # levels of Hs^2 closer than this count as one
RAY_SCALES = np.logspace(0.0, 5.0, 400)  # the norms t at which log_partition tests f along its ray


@dataclass
class Diagnostics:
    """Spectrum of Hs^2 and the Boltzmann weight of its ground level."""

    spectrum: np.ndarray
    ground_prob: float


def first_positive_gap(spectrum: np.ndarray) -> float:
    """First gap of an ascending spectrum of Hs^2 exceeding HS2_GAP_TOL (0.0 if none)."""
    for g in np.diff(spectrum):
        if g > HS2_GAP_TOL:
            return float(g)
    return 0.0


# The kernel. Leading axes of x and of the operands are row axes: none for
# one objective at one x, one of length K for a stack. Every step is an @,
# an eigh, an elementwise operation or a sum over the last axis, each of
# which gives a row the same bits stacked as alone, so a row evaluated in a
# stack of any K matches the row evaluated by itself. (einsum and sums over
# other axes do not; contractions are therefore written as @.)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, row by row: one @ of a row vector by a column."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _forward(ops: tuple, x: np.ndarray) -> dict:
    """Forward pass at x, (m,) or (K, m); ops = (b_flat, a_flat, a).

    Returns the nodes of f that the gradient and the diagnostics read: v2 =
    Hs, the eigenpairs lam, u (uh = u^dag) of v3 = Hs^2, the shifted
    spectrum w = lam[0] - lam <= 0 and rho's eigenvalues p = e^w / sum e^w
    (the shift cancels in p and keeps e^w from overflowing), v6 = rho =
    U diag(p) U^dag, the residuals v7, v8 = sum of their squares,
    v9 = tr(v3 rho) and f = v8 + v9.
    """
    b_flat, a_flat, a = ops
    rows = x.shape[:-1]
    dd = b_flat.shape[-1]
    d = math.isqrt(dd)
    v2 = (x[..., None, :] @ b_flat).reshape(rows + (d, d))
    v3 = v2 @ v2
    lam, u = np.linalg.eigh(v3)
    uh = u.conj().swapaxes(-1, -2)
    w = lam[..., :1] - lam
    p = np.exp(w)
    p /= p.sum(axis=-1, keepdims=True)
    v6 = (u * p[..., None, :]) @ uh
    v6 = (v6 + v6.conj().swapaxes(-1, -2)) / 2
    # tr(A_j v6) for every j: one product with v6^T raveled
    v7 = (a_flat @ v6.swapaxes(-1, -2).reshape(rows + (dd, 1)))[..., 0].real - a
    v8 = _dot(v7, v7)
    # tr(v3 v6) in the shared eigenbasis; v3 is PSD, so clip the tiny
    # negative eigh round-off (visible at ||x|| ~ 1e2+) to keep f >= 0
    v9 = (np.maximum(lam, 0.0) * p).sum(axis=-1)
    return {
        "v2": v2,
        "lam": lam,
        "u": u,
        "uh": uh,
        "w": w,
        "p": p,
        "v6": v6,
        "v7": v7,
        "v8": v8,
        "v9": v9,
        "f": v8 + v9,
    }


def _gradient(ops: tuple, fwd: dict) -> np.ndarray:
    """Gradient at the x of a forward pass, (m,) or (K, m), by one adjoint pass.

    With r = v7, the derivative of f along a Hermitian change D of v3 is
    tr(G D), where, in the eigenbasis U of v3 (primes),

        W = sum_j 2 r_j A_j + v3,   W~ = W - tr(W rho) I,
        G' = diag(p) - Phi * W~',

    Phi being the divided-difference table of exp at the shifted spectrum
    w, divided by sum e^w (the table built on w and p); the Frechet
    derivative of exp at a Hermitian matrix is self-adjoint under the trace
    inner product, which moves it onto W~. Coefficient k changes v3 by
    B_k Hs + Hs B_k, so grad_k = tr(B_k S) with S = Hs G + G Hs and
    G = U G' U^dag. The shift lam[0] cancels in rho and every downstream
    node, so holding it fixed gives the exact derivative.
    """
    b_flat = ops[0]
    lam, u, uh, p = fwd["lam"], fwd["u"], fwd["uh"], fwd["p"]
    rows, d = lam.shape[:-1], lam.shape[-1]
    phi = linalg._divided_difference_table(fwd["w"], p)
    # sum_j 2 r_j B_j differs from sum_j 2 r_j A_j by a multiple of I,
    # which the centring on tr(W rho) removes
    w_rep = uh @ ((2.0 * fwd["v7"])[..., None, :] @ b_flat).reshape(rows + (d, d)) @ u
    w_diag = w_rep.reshape(rows + (-1,))[..., :: d + 1]  # strided views of the diagonals
    w_real = w_diag.real + lam
    w_diag[...] = w_real - _dot(w_real, p)[..., None]
    g_rep = -phi * w_rep
    g_rep.reshape(rows + (-1,))[..., :: d + 1] += p
    hg = fwd["v2"] @ (u @ g_rep @ uh)
    s = hg + hg.conj().swapaxes(-1, -2)
    traces = (b_flat @ s.swapaxes(-1, -2).reshape(rows + (d * d, 1)))[..., 0]
    return np.ascontiguousarray(traces.real)  # not a strided view of the complex traces


def stack_operands(objectives: Sequence["ReconstructionObjective"]) -> tuple:
    """The kernel's operands of objectives that share dim and size, stacked
    on a leading row axis, for evaluate_stacked."""
    return tuple(np.stack(parts) for parts in zip(*(obj._ops for obj in objectives)))


def evaluate_stacked(ops: tuple, xs: Sequence[np.ndarray]):
    """(f, grad) of row k of stacked operands at xs[k] for every k, in one pass.

    ops is stack_operands' result; a caller that evaluates the same rows
    step after step stacks them once. Each row gets the bits that value and
    gradient give it alone; a row that would raise there makes the whole
    call raise (no row is attributed).
    """
    x = np.asarray(xs, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite entries")
    fwd = _forward(ops, x)
    return fwd["f"].tolist(), _gradient(ops, fwd)


class ReconstructionObjective:
    """f(x), grad f(x), and diagnostics for one (basis, measurements) pair.

    The constructor refuses measurements that check_measurement_range
    refuses, so no objective reaches an eigh with a NaN or impossible a_i.
    Each method runs the kernel at one x (no row axis). The forward pass (one
    Hermitian eigendecomposition of Hs^2) is cached on the argument, so
    value/gradient/diagnostics at the same x share it (and
    metrics.recover_eigenstate reads its eigenpairs). The exponential is
    evaluated with the minimum eigenvalue subtracted; the shift cancels in
    rho and in all reported ratios but prevents underflow once the spectrum
    grows large near convergence.
    """

    def __init__(self, basis: OperatorBasis, a: Sequence[float]):
        self.basis = basis
        self.a = check_measurement_range(basis, a)
        d, m = basis.dim, basis.size
        # A_i (a view of the basis's stack) and B_i = A_i - a_i I (Hs's per-coefficient derivatives)
        # as flattened stacks: tr(X_j Y) for every j is one product with Y^T raveled, sum_j c_j X_j is c @ X_flat
        a_flat = basis.terms.reshape(m, d * d)
        b_flat = a_flat.copy()
        b_flat[:, :: d + 1] -= self.a[:, None]
        # the kernel's operands
        self._ops = (b_flat, a_flat, self.a)
        self._x_shape = (m,)
        self._cache_key: Optional[bytes] = None
        self._cache: Optional[dict] = None

    @property
    def size(self) -> int:
        return self.basis.size

    def _forward(self, x: np.ndarray) -> dict:
        x = np.asarray(x, dtype=float)
        # a cached x passed require_vector, so equal bytes and shape need no check
        key = x.tobytes()
        if key == self._cache_key and x.shape == self._x_shape:
            return self._cache
        fwd = _forward(self._ops, require_vector("x", x, self.size))
        self._cache_key = key
        self._cache = fwd
        return fwd

    def value(self, x) -> float:
        return float(self._forward(x)["f"])

    def gradient(self, x) -> np.ndarray:
        """Exact gradient by one adjoint (reverse-mode) pass; see _gradient."""
        return _gradient(self._ops, self._forward(x))

    def log_partition(self, x) -> tuple:
        """The max-entropy probe's kernel at x: (L, grad L, y, f(y)).

        L(x) = log tr e^{-Hs} is the log-partition function of e^{-Hs} / Z,
        convex in x; for data that a state gives, L >= 0, and for a ground
        (top) level L tends to 0 along +c (-c). One eigh of Hs = V diag(h) V^dag,
        h ascending, gives, with E_ik = (V^dag B_i V)_kk and p = e^{h_0 - h} / sum,

            L = -h_0 + log sum_k e^{h_0 - h_k},   grad_i = -sum_k p_k E_ik,

        and, as Hs(t u)^2 = t^2 Hs(u)^2 for u = x / ||x||, f along the ray:
        f(t u) = sum_i (E_i . q)^2 + sum_k q_k t^2 (h_k / ||x||)^2, q the
        weights e^{-t^2 h^2 / ||x||^2} normalised. y is the point t u of least
        f over t in RAY_SCALES; y and f(y) are None at x = 0.
        """
        x = require_vector("x", x, self.size)
        b_flat = self._ops[0]
        d = self.basis.dim
        h, v = np.linalg.eigh((x @ b_flat).reshape(d, d))
        e = ((b_flat.reshape(-1, d, d) @ v) * v.conj()).sum(axis=-2).real  # the diagonals of V^dag B_i V
        w = np.exp(h[0] - h)
        total = w.sum()
        log_z, grad = math.log(total) - h[0], -(e @ w) / total
        norm = math.sqrt(x.dot(x))
        if norm == 0.0:
            return log_z, grad, None, None
        z = RAY_SCALES[:, None] ** 2 * (h / norm) ** 2  # the spectrum of Hs(t u)^2, one row a scale
        q = np.exp(z.min(axis=1, keepdims=True) - z)
        q /= q.sum(axis=1, keepdims=True)
        f = ((q @ e.T) ** 2).sum(axis=1) + (q * z).sum(axis=1)
        k = int(np.argmin(f))
        return log_z, grad, (RAY_SCALES[k] / norm) * x, float(f[k])

    def diagnostics(self, x) -> Diagnostics:
        """Spectrum of Hs^2 and the ground-level Boltzmann weight
        e^{-E_g} / tr e^{-Hs^2}, rho's eigenvalue p[0]."""
        fwd = self._forward(x)
        spectrum = np.maximum(fwd["lam"], 0.0)  # Hs^2 is PSD; clip eigh round-off
        return Diagnostics(spectrum=spectrum, ground_prob=float(fwd["p"][0]))
