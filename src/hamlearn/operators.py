"""Operator bases, lattice embeddings, eigenstate measurement records, and
the basis and record file formats."""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import linalg

GAP_TOL = 1e-8  # adjacent levels of H at most this far apart count as one (see separated)
MAX_QUBITS = linalg.MAX_DIM.bit_length() - 1  # the widest register: dimension 2**MAX_QUBITS = linalg.MAX_DIM
ECHO_MAX = 100  # the most characters of an input that a refusal shows (see shown)


class DegenerateEigenstateError(ValueError):
    """Raised when the requested eigenstate sits in a (near-)degenerate level."""


class _Echo(reprlib.Repr):
    def repr1(self, x, level):  # an integer of any type as int shows it or, past 40 digits, by its digit count
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            return super().repr1(x, level)
        n = abs(int(x))
        k = int(n.bit_length() * math.log10(2))  # n has k or k + 1 digits; str() raises past 4,300 of them
        return repr(int(x)) if n < 10**40 else f"a {k + (n >= 10**k)}-digit integer"


_ECHO = _Echo()
_ECHO.maxstring = _ECHO.maxother = 60  # reprlib's other limits stand; shown cuts the whole at ECHO_MAX


def shown(value) -> str:
    """How a refusal shows an input: its repr, shortened as _ECHO shortens it and cut to ECHO_MAX characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= ECHO_MAX else text[: ECHO_MAX - 3] + "..."


def term_name(label) -> str:
    """'term <label>' for a refusal: the label cut as shown cuts a string, but unquoted."""
    return f"term {shown(str(label))[1:-1]}"


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def require_json(name: str, value, kind: type = dict) -> None:
    """Raise ValueError unless value is of kind: dict (a parsed JSON object), list, str, bool or a non-bool Real."""
    if not isinstance(value, kind) or (kind is numbers.Real and isinstance(value, bool)):
        what = {dict: "a JSON object", list: "a list", str: "a string", numbers.Real: "a number", bool: "true or false"}
        raise ValueError(f"{name} must be {what[kind]}, got {shown(value)}")


def require_float(name: str, value) -> float:
    """float(value); ValueError unless value is a number (no bool) that a float64 holds, NaN and +-inf included."""
    require_json(name, value, numbers.Real)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit a float64, got {shown(value)}") from None


def require_numbers(name: str, value) -> np.ndarray:
    """The float array of value; ValueError unless it is a list whose every entry passes require_float."""
    require_json(name, value, list)
    try:  # JSON's numbers pass without the slower check, which names an offender
        if all(type(v) is float or type(v) is int for v in value):
            return np.asarray(value, dtype=float)
    except OverflowError:  # an integer past a float64's range
        pass
    return np.array([require_float(f"{name} entry {k}", v) for k, v in enumerate(value)])


def require_vector(name: str, value, size: int) -> np.ndarray:
    """value as a C-contiguous float64 array of shape (size,) of finite numbers; else one ValueError naming name."""
    try:
        v = np.asarray(value, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or past a float64
        v = None
    if v is None or v.shape != (size,):  # a list, an array and a view of equal values show alike
        got = shown(value if v is None else v.tolist())
        raise ValueError(f"{name} must be a real vector of shape ({size},), got {got}")
    if not np.isfinite(v).all():
        k = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name} entry {k} must be finite, got {shown(float(v[k]))}")
    return v


def require_qubits(name: str, n, minimum: int) -> None:
    """Raise ValueError unless n is an integer >= minimum whose register, of dimension 2**n, linalg accepts."""
    require_int(name, n, minimum)
    if n > MAX_QUBITS:  # before anything is sized by it
        raise ValueError(f"{name} must be <= {MAX_QUBITS} (dimension <= {linalg.MAX_DIM}), got {shown(n)}")


def require_keys(name: str, obj: dict, cls: type) -> None:
    """Raise ValueError if obj has a key that no field of the dataclass cls names, or lacks a field with no default."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING and f.name not in obj]
    for which, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{which} {name} keys: {shown(keys)}")


def json_object(text: str, where: str) -> dict:
    """The JSON object text holds; where (a file, or a line of one) names it in the one ValueError raised for
    a non-object and for anything json.loads refuses: a syntax error (at its line and column), nesting past
    the recursion limit, an integer past Python's digit limit."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"column {exc.colno}" if exc.lineno == 1 else f"line {exc.lineno} column {exc.colno}"
        raise ValueError(f"{where}: {exc.msg} at {at}") from None
    except (RecursionError, ValueError) as exc:  # the text past a ';' advises Python callers
        raise ValueError(f"{where}: {str(exc).partition(';')[0]}") from None
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
        require_qubits("lattice num_qubits", self.num_qubits, 2)
        seen = set()
        for i, j in self.edges:
            require_int("lattice edge qubit", i)
            require_int("lattice edge qubit", j)
            if not (1 <= i < j <= self.num_qubits):
                raise ValueError(f"bad edge ({shown(i)},{shown(j)}) for {self.num_qubits} qubits")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({shown(i)},{shown(j)})")
            seen.add((i, j))
        # a qubit no term acts on doubles every level of every Hamiltonian
        bare = sorted(set(range(1, self.num_qubits + 1)).difference(*seen))
        if bare:
            raise ValueError(f"lattice leaves qubit(s) {bare} without an edge, so every level would be degenerate")

    @classmethod
    def from_json(cls, obj) -> "LatticeSpec":
        """The lattice of a config's {"num_qubits": n, "edges": [[i, j], ...]}."""
        if not isinstance(obj, dict) or set(obj) != {"num_qubits", "edges"}:
            raise ValueError(f"lattice must be an object with keys num_qubits and edges, got {shown(obj)}")
        edges = obj["edges"]
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError(f"lattice edges must be a list of [i, j] qubit pairs, got {shown(edges)}")
        return cls(obj["num_qubits"], tuple(tuple(e) for e in edges))

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
    its own, since numpy would broadcast a 1 x 1 part against a d x d one,
    and each entry as require_numbers checks one, since numpy would read a
    bool or a numeric string as a number; name (the term) is in the
    ValueError raised where either part is not a d x d array of finite numbers."""
    require_json(name, obj)
    parts = []
    for part in ("re", "im"):
        rows = obj.get(part)
        require_json(f"{name} {part}", rows, list)
        square = len(rows) == d and all(isinstance(row, list) and len(row) == d for row in rows)
        a = np.array([require_numbers(f"{name} {part} row {i}", row) for i, row in enumerate(rows)]) if square else None
        if a is None or not np.all(np.isfinite(a)):
            raise ValueError(f"{name} {part} is not a {d} x {d} array of finite numbers")
        parts.append(a)
    return parts[0] + 1j * parts[1]


@dataclass
class OperatorBasis:
    """Ordered set of Hermitian operators A_1..A_m sharing one dimension."""

    dim: int
    terms: np.ndarray  # given as any sequence of d x d arrays, kept as one read-only (m, d, d) array
    labels: list

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("basis needs at least one term")
        if len(self.labels) != len(self.terms):
            raise ValueError("labels/terms length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        terms = [linalg.check_hermitian(t, term_name(lab)) for lab, t in zip(self.labels, self.terms)]
        # keep each term's Hermitian part (A + A^dag)/2, with A's own bits wherever A already equals
        # A^dag, in its slot of one stack: every real combination of the kept terms is then exactly Hermitian
        self.terms = np.empty((len(terms), *terms[0].shape), dtype=complex)
        for k, (lab, t) in enumerate(zip(self.labels, terms)):
            if t.shape[0] != self.dim:
                raise ValueError(f"{term_name(lab)} has dimension {t.shape[0]}, expected {self.dim}")
            self.terms[k] = np.where(t == t.conj().T, t, (t + t.conj().T) / 2)
        self.terms.flags.writeable = False

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


def check_measurement_range(basis: OperatorBasis, a) -> np.ndarray:
    """a as require_vector reads it; each a_i must lie in the numerical range of A_i,
    up to linalg.ROUNDOFF_TOL times the larger of 1 and A_i's spectral radius."""
    a = require_vector("measurement vector a", a, basis.size)
    lo, hi = np.linalg.eigvalsh(basis.terms)[:, [0, -1]].T  # each term's least and greatest eigenvalue
    slack = linalg.ROUNDOFF_TOL * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))
    out = np.flatnonzero((a < lo - slack) | (a > hi + slack))
    if out.size:
        k = int(out[0])  # the first term out of range
        raise ValueError(
            f"measurement a[{k}] = {a[k]:.6g} outside the numerical range "
            f"[{lo[k]:.6g}, {hi[k]:.6g}] of {term_name(basis.labels[k])}"
        )
    return a


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
    """H = sum_i c_i A_i, for a c that require_vector accepts."""
    return np.einsum("i,ijk->jk", require_vector("coefficient vector c", c, basis.size), basis.terms)


def separated(gaps) -> bool:
    """Whether every gap between adjacent levels of H exceeds GAP_TOL; a gap of at most GAP_TOL is degenerate."""
    return bool(np.all(gaps > GAP_TOL))


def levels_separated(basis: OperatorBasis, c: Sequence[float]) -> bool:
    """Whether every level of H(c) is separated from its neighbours, as a level sweep needs; c must pass assemble."""
    return separated(np.diff(np.linalg.eigvalsh(assemble(basis, c))))


def true_eigenstate(basis: OperatorBasis, c: Sequence[float], eigen_index) -> tuple:
    """(w, psi): the ascending spectrum of H(c) and its eigen_index-th eigenvector.

    c (a truth's c_true, so named in a refusal) must pass require_vector.
    eigen_index must be an integer in [0, basis.dim), and its level must be
    separated from both neighbours (see separated): the reconstruction
    target is not unique in a (near-)degenerate level.
    """
    require_int("eigen_index", eigen_index)
    if not 0 <= eigen_index < basis.dim:
        raise ValueError(f"eigen_index {shown(eigen_index)} out of range for dimension {basis.dim}")
    w, u = np.linalg.eigh(assemble(basis, require_vector("c_true", c, basis.size)))
    gaps = np.diff(w)[max(eigen_index - 1, 0) : eigen_index + 1]
    if not separated(gaps):
        raise DegenerateEigenstateError(f"eigenvalue {eigen_index} is degenerate (gap {gaps.min():.3e} to a neighbour)")
    return w, u[:, eigen_index]


def eigenstate_measurements(basis: OperatorBasis, c: Sequence[float], eigen_index: int) -> MeasurementRecord:
    """Measure every basis term on the eigen_index-th eigenstate of H(c) (see true_eigenstate)."""
    c = np.asarray(c, dtype=float)
    _, psi = true_eigenstate(basis, c, eigen_index)
    # kept terms are exactly Hermitian: expectations are real up to round-off
    a = (psi.conj() @ (basis.terms @ psi)[..., None])[:, 0].real
    return MeasurementRecord(a=a, truth=Truth(c_true=c.copy(), eigen_index=eigen_index))
