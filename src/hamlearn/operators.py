"""Operator bases, lattice embeddings, eigenstate measurement records, and
the basis and record file formats."""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import linalg

GAP_TOL = 1e-8  # levels of H closer than this count as one


class DegenerateEigenstateError(ValueError):
    """Raised when the requested eigenstate sits in a (near-)degenerate level."""


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def require_json(name: str, value, kind: type = dict) -> None:
    """Raise ValueError unless value is of kind: dict (a parsed JSON object), list, str or numbers.Real (no bool)."""
    if not isinstance(value, kind) or (kind is numbers.Real and isinstance(value, bool)):
        what = {dict: "a JSON object", list: "a list", str: "a string", numbers.Real: "a number"}[kind]
        raise ValueError(f"{name} must be {what}, got {value!r}")


def require_numbers(name: str, value) -> np.ndarray:
    """The float array of value; ValueError unless it is a list whose every entry is a number (no bool)."""
    require_json(name, value, list)
    for k, v in enumerate(value):
        require_json(f"{name} entry {k}", v, numbers.Real)
    return np.asarray(value, dtype=float)


def require_keys(name: str, obj: dict, cls: type) -> None:
    """Raise ValueError if obj has a key that no field of the dataclass cls names, or lacks a field with no default."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING and f.name not in obj]
    for which, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{which} {name} keys: {keys}")


def json_object(text: str, where: str) -> dict:
    """The JSON object text holds; where (a file, or a line of one) names
    it in the ValueError a syntax error or a non-object raises."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"column {exc.colno}" if exc.lineno == 1 else f"line {exc.lineno} column {exc.colno}"
        raise ValueError(f"{where}: {exc.msg} at {at}") from None
    require_json(where, value)
    return value


def read_json(path) -> dict:
    """The JSON object of the file at path."""
    with open(path) as fh:
        return json_object(fh.read(), str(path))


@dataclass(frozen=True)
class LatticeSpec:
    """Qubit lattice as an edge list; qubits are 1-indexed, edges i < j."""

    num_qubits: int
    edges: tuple

    def __post_init__(self):
        require_int("lattice num_qubits", self.num_qubits)
        if self.num_qubits < 2:
            raise ValueError("lattice needs at least 2 qubits")
        seen = set()
        for i, j in self.edges:
            require_int("lattice edge qubit", i)
            require_int("lattice edge qubit", j)
            if not (1 <= i < j <= self.num_qubits):
                raise ValueError(f"bad edge ({i},{j}) for {self.num_qubits} qubits")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        # a qubit no term acts on doubles every level of every Hamiltonian
        bare = sorted(set(range(1, self.num_qubits + 1)).difference(*seen))
        if bare:
            raise ValueError(f"lattice leaves qubit(s) {bare} without an edge, so every level would be degenerate")

    @classmethod
    def chain(cls, n: int) -> "LatticeSpec":
        return cls(n, tuple((i, i + 1) for i in range(1, n)))

    @classmethod
    def fully_connected(cls, n: int) -> "LatticeSpec":
        return cls(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def matrix_to_json(a: np.ndarray) -> dict:
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj, d: int, name: str) -> np.ndarray:
    """The complex matrix of a {"re", "im"} payload. Each part is checked on
    its own, since numpy would broadcast a 1 x 1 part against a d x d one;
    name (the term) is in the ValueError raised where either part is not a
    d x d array of finite numbers."""
    require_json(name, obj)
    parts = []
    for part in ("re", "im"):
        require_json(f"{name} {part}", obj.get(part), list)
        try:
            a = np.asarray(obj[part], dtype=float)
        except (TypeError, ValueError):  # ragged, or an entry that is not a number
            a = None
        if a is None or a.shape != (d, d) or not np.all(np.isfinite(a)):
            raise ValueError(f"{name} {part} is not a {d} x {d} array of finite numbers")
        parts.append(a)
    return parts[0] + 1j * parts[1]


@dataclass
class OperatorBasis:
    """Ordered set of Hermitian operators A_1..A_m sharing one dimension."""

    dim: int
    terms: list
    labels: list

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("basis needs at least one term")
        if len(self.labels) != len(self.terms):
            raise ValueError("labels/terms length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        terms = [linalg.check_hermitian(t, f"term {lab}") for lab, t in zip(self.labels, self.terms)]
        for lab, t in zip(self.labels, terms):
            if t.shape[0] != self.dim:
                raise ValueError(f"term {lab} has dimension {t.shape[0]}, expected {self.dim}")
        # keep each term's Hermitian part (A + A^dag)/2, with A's own bits wherever A already
        # equals A^dag: every real combination of the kept terms is then exactly Hermitian
        self.terms = [np.where(t == t.conj().T, t, (t + t.conj().T) / 2) for t in terms]

    @property
    def size(self) -> int:
        return len(self.terms)

    def to_json(self) -> dict:
        terms = [{"label": lab, "matrix": matrix_to_json(t)} for lab, t in zip(self.labels, self.terms)]
        return {"dim": self.dim, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorBasis":
        """The basis of obj; keys it does not read, such as the n_qubits,
        term support and matrix dim of earlier versions' files, are ignored."""
        require_int("basis dim", obj.get("dim"), 1)
        require_json("basis terms", obj.get("terms"), list)
        for k, t in enumerate(obj["terms"]):
            require_json(f"basis term {k}", t)
            require_json(f"basis term {k} label", t.get("label"), str)
        terms = [
            matrix_from_json(t.get("matrix"), obj["dim"], f"basis term {k} matrix") for k, t in enumerate(obj["terms"])
        ]
        return cls(dim=obj["dim"], terms=terms, labels=[t["label"] for t in obj["terms"]])


@dataclass
class Truth:
    """The H(c_true) and level a record was measured on: gen writes it, solve and report score against it."""

    c_true: np.ndarray
    eigen_index: int


@dataclass
class MeasurementRecord:
    """Expectation values a_i = <psi|A_i|psi> on one eigenstate."""

    a: np.ndarray
    truth: Optional[Truth] = None

    def to_json(self) -> dict:
        truth = None
        if self.truth is not None:
            truth = {"c_true": np.asarray(self.truth.c_true).tolist(), "eigen_index": self.truth.eigen_index}
        return {"a": np.asarray(self.a).tolist(), "truth": truth}

    @classmethod
    def from_json(cls, obj: dict) -> "MeasurementRecord":
        """The record of obj; its truth's eigen_index is checked against a basis by true_eigenstate.
        Keys it does not read, such as the basis_ref of earlier versions' files, are ignored."""
        a = require_numbers("record a", obj.get("a"))
        truth = obj.get("truth")
        if truth is not None:
            require_json("record truth", truth)
            truth = Truth(require_numbers("record truth c_true", truth.get("c_true")), truth.get("eigen_index"))
        return cls(a=a, truth=truth)


def check_measurement_range(basis: OperatorBasis, a: np.ndarray) -> None:
    """Each a_i must be finite and lie in the numerical range of A_i, up to
    linalg.ROUNDOFF_TOL times the larger of 1 and A_i's spectral radius."""
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.size,):
        raise ValueError(f"measurement vector length {a.shape} != basis size {basis.size}")
    if not np.all(np.isfinite(a)):
        k = int(np.flatnonzero(~np.isfinite(a))[0])
        raise ValueError(f"measurement a[{k}] = {a[k]} is not finite")
    for k, term in enumerate(basis.terms):
        w = np.linalg.eigvalsh(term)
        slack = linalg.ROUNDOFF_TOL * max(1.0, abs(w[0]), abs(w[-1]))
        if a[k] < w[0] - slack or a[k] > w[-1] + slack:
            raise ValueError(
                f"measurement a[{k}] = {a[k]:.6g} outside the numerical range "
                f"[{w[0]:.6g}, {w[-1]:.6g}] of term {basis.labels[k]}"
            )


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """E + E^dagger with the d^2 entries of E uniform on (-1,1) + i(-1,1)."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    e = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    return e + e.conj().T


def embed_two_local(a4: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed a 4x4 operator on qubits (i, j) of an n-qubit register.

    Qubit 1 is the most significant tensor factor, so the result is bit-exact
    under serialization regardless of the edge.
    """
    a4 = linalg.check_hermitian(a4)
    if a4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got {a4.shape}")
    if not (1 <= i < j <= n):
        raise ValueError(f"qubit pair ({i},{j}) out of range for n = {n}")
    rest = [q for q in range(1, n + 1) if q != i and q != j]
    full = np.kron(a4, np.eye(2 ** (n - 2)))
    # tensor axes of `full` currently belong to qubits [i, j, *rest];
    # permute them into register order 1..n
    order = [i, j] + rest
    perm = [order.index(q) for q in range(1, n + 1)]
    t = full.reshape([2] * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def basis_generic(d: int, m: int, rng: np.random.Generator) -> OperatorBasis:
    """m independent dense random Hermitian terms of dimension d."""
    if m < 1:
        raise ValueError("need at least one term")
    terms = [random_hermitian(d, rng) for _ in range(m)]
    labels = [f"A{k + 1}" for k in range(m)]
    return OperatorBasis(dim=d, terms=terms, labels=labels)


def basis_two_local(lattice: LatticeSpec, rng: np.random.Generator) -> OperatorBasis:
    """One random 4x4 Hermitian term per lattice edge, embedded on the register."""
    n = lattice.num_qubits
    terms = [embed_two_local(random_hermitian(4, rng), i, j, n) for i, j in lattice.edges]
    return OperatorBasis(dim=2**n, terms=terms, labels=[f"A{i}_{j}" for i, j in lattice.edges])


def assemble(basis: OperatorBasis, c: Sequence[float]) -> np.ndarray:
    """H = sum_i c_i A_i, for a finite c with one entry per term."""
    c = np.asarray(c, dtype=float)
    if c.shape != (basis.size,):
        raise ValueError(f"coefficient vector length {c.shape} != basis size {basis.size}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coefficient vector {c.tolist()} is not finite")
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    for ci, ai in zip(c, basis.terms):
        h += ci * ai
    return h


def true_eigenstate(basis: OperatorBasis, c: Sequence[float], eigen_index) -> tuple:
    """(w, psi): the ascending spectrum of H(c) and its eigen_index-th eigenvector.

    c (a truth's c_true) must pass assemble. eigen_index must be an integer
    in [0, basis.dim), and its level must be separated from both neighbours
    by more than GAP_TOL: the reconstruction target is not unique in a
    (near-)degenerate level.
    """
    require_int("eigen_index", eigen_index)
    if not 0 <= eigen_index < basis.dim:
        raise ValueError(f"eigen_index {eigen_index} out of range for dimension {basis.dim}")
    try:
        h = assemble(basis, c)
    except ValueError as exc:
        raise ValueError(f"c_true: {exc}") from None
    w, u = np.linalg.eigh(h)
    gaps = np.diff(w)[max(eigen_index - 1, 0) : eigen_index + 1]
    if np.any(gaps <= GAP_TOL):
        raise DegenerateEigenstateError(f"eigenvalue {eigen_index} is degenerate (gap {gaps.min():.3e} to a neighbour)")
    return w, u[:, eigen_index]


def eigenstate_measurements(basis: OperatorBasis, c: Sequence[float], eigen_index: int) -> MeasurementRecord:
    """Measure every basis term on the eigen_index-th eigenstate of H(c) (see true_eigenstate)."""
    c = np.asarray(c, dtype=float)
    _, psi = true_eigenstate(basis, c, eigen_index)
    # each kept term is exactly Hermitian, so its expectation is real up to round-off
    a = np.array([(psi.conj() @ (term @ psi)).real for term in basis.terms])
    truth = Truth(c_true=c.copy(), eigen_index=eigen_index)
    return MeasurementRecord(a=a, truth=truth)
