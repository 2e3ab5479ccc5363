"""Dense complex Hermitian matrix kernels.

Everything here operates on plain numpy arrays of dtype complex128. Matrices
are dense and stay well below d = 256, so eigendecomposition-based routes are
always affordable.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-10

MAX_DIM = 256


class HermitianEigen(NamedTuple):
    """Spectral data of a Hermitian matrix: ascending eigenvalues, unitary U."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square(mat) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermiticity_deviation(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def check_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_square(a)
    dev = hermiticity_deviation(a)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max|A - A^dag| = {dev:.3e} > {tol:.1e}")
    return a


def hermitize(e) -> np.ndarray:
    """Return E + E^dagger, which is Hermitian for any square E."""
    e = as_square(e)
    return e + e.conj().T


def eig_hermitian(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    a = check_hermitian(a)
    w, u = np.linalg.eigh(a)
    return HermitianEigen(w, u)


def exp_neg_hermitian(x) -> np.ndarray:
    """exp(-X) for Hermitian X via eigendecomposition."""
    w, u = eig_hermitian(x)
    out = (u * np.exp(-w)) @ u.conj().T
    # symmetrize away eigh round-off so the result is exactly Hermitian
    return (out + out.conj().T) / 2


def _divided_difference_table(w: np.ndarray) -> np.ndarray:
    """Phi[k,l] = (e^{w_k} - e^{w_l}) / (w_k - w_l), and e^{w_k} where w_k = w_l.

    Evaluated as e^{hi} expm1(lo - hi) / (lo - hi) with hi, lo the larger and
    smaller of w_k, w_l: accurate to round-off at every gap, exactly
    symmetric, and expm1 of a non-positive argument cannot overflow.
    """
    ew = np.exp(w)
    dw = -np.abs(w[:, None] - w[None, :])
    tie = dw == 0
    ratio = np.where(tie, 1.0, np.expm1(dw) / np.where(tie, 1.0, dw))
    return np.maximum(ew[:, None], ew[None, :]) * ratio


def frechet_exp_factored(w: np.ndarray, u: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Directional derivative of exp at X = U diag(w) U^dag in direction E."""
    phi = _divided_difference_table(w)
    m = u.conj().T @ e @ u
    return u @ (phi * m) @ u.conj().T


def frechet_exp(x, e, method: str = "divided_difference") -> np.ndarray:
    """d/dt exp(X + tE) at t = 0 for Hermitian X and E.

    method:
      divided_difference -- closed form through the eigendecomposition of X.
      augmented_block    -- exponentiate the 2d x 2d block matrix
                            [[X, E], [0, X]]; the derivative is its top-right
                            block. Kept as an independent cross-check route.
    """
    x = check_hermitian(x)
    e = as_square(e)
    if e.shape != x.shape:
        raise ValueError(f"dimension mismatch: X is {x.shape}, E is {e.shape}")
    if method == "divided_difference":
        w, u = np.linalg.eigh(x)
        return frechet_exp_factored(w, u, e)
    if method == "augmented_block":
        d = x.shape[0]
        g = np.zeros((2 * d, 2 * d), dtype=complex)
        g[:d, :d] = x
        g[:d, d:] = e
        g[d:, d:] = x
        return scipy.linalg.expm(g)[:d, d:]
    raise ValueError(f"unknown method {method!r}")


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(AB) without forming the product."""
    return complex(np.sum(a * b.T))


def matrix_to_json(a: np.ndarray) -> dict:
    a = as_square(a)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["dim"])
    a = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if a.shape != (d, d):
        raise ValueError(f"matrix payload shape {a.shape} does not match dim {d}")
    return a
