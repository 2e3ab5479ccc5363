"""Dense complex Hermitian matrix kernels.

Everything here operates on plain numpy arrays of dtype complex128. Matrices
are dense and stay well below d = 256, so eigendecomposition-based routes are
always affordable.
"""

from __future__ import annotations

import numpy as np

ROUNDOFF_TOL = 1e-10  # an input's round-off, per unit of the larger of 1 and its scale

MAX_DIM = 256


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


def check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """a as a square matrix; a ValueError naming it if max|A - A^dag| exceeds the round-off of max|A_ij|."""
    a = as_square(a)
    dev, tol = float(np.max(np.abs(a - a.conj().T))), ROUNDOFF_TOL * max(1.0, float(np.max(np.abs(a))))
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max|A - A^dag| = {dev:.3e} > {tol:.1e}")
    return a


def _divided_difference_table(w: np.ndarray, ew: np.ndarray) -> np.ndarray:
    """Phi[k,l] = (ew_k - ew_l) / (w_k - w_l), and ew_k where w_k = w_l, for
    ew = c e^w with any c > 0 (the caller's exponentials, often normalised).

    Evaluated as c e^{hi} expm1(lo - hi) / (lo - hi) with hi, lo the larger
    and smaller of w_k, w_l: accurate to round-off at every gap, exactly
    symmetric, and expm1 of a non-positive argument cannot overflow. Leading
    axes of w are batch axes: one table per spectrum along the last axis.
    """
    dw = -np.abs(w[..., :, None] - w[..., None, :])
    ratio = np.divide(np.expm1(dw), dw, out=np.ones_like(dw), where=dw != 0)
    return np.maximum(ew[..., :, None], ew[..., None, :]) * ratio


def frechet_exp(x, e, method: str = "divided_difference") -> np.ndarray:
    """d/dt exp(X + tE) at t = 0 for Hermitian X and E.

    method:
      divided_difference -- closed form through the eigendecomposition
                            X = U diag(w) U^dag: U (Phi * U^dag E U) U^dag.
      augmented_block    -- exponentiate the 2d x 2d block matrix
                            [[X, E], [0, X]]; the derivative is its top-right
                            block (scipy's expm_frechet, method blockEnlarge).
                            Kept as an independent cross-check route, and the
                            only code that loads scipy.
    """
    x = check_hermitian(x)
    e = as_square(e)
    if e.shape != x.shape:
        raise ValueError(f"dimension mismatch: X is {x.shape}, E is {e.shape}")
    if method == "divided_difference":
        w, u = np.linalg.eigh(x)
        uh = u.conj().T
        return u @ (_divided_difference_table(w, np.exp(w)) * (uh @ e @ u)) @ uh
    if method == "augmented_block":
        import scipy.linalg

        return scipy.linalg.expm_frechet(x, e, method="blockEnlarge", compute_expm=False)
    raise ValueError(f"unknown method {method!r}")


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(AB) without forming the product."""
    return complex(np.sum(a * b.T))

