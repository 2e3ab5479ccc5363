"""Property-based tests of the objective's invariants on random generic
bases, of the readers of a vector or matrix argument, and of the file
readers on inputs with one value replaced."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamlearn import cli, linalg
from hamlearn import objective as obj_mod
from hamlearn.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from hamlearn.metrics import hamiltonian_fidelity, recover_eigenstate, recover_eigenvalue
from hamlearn.objective import ReconstructionObjective
from hamlearn.operators import (
    OperatorBasis,
    assemble,
    basis_generic,
    check_measurement_range,
    eigenstate_measurements,
    embed_two_local,
    random_hermitian,
    true_eigenstate,
)
from test_objective import exact_gradient


@st.composite
def instances(draw):
    """(basis, record, x): a generic basis measured on one of its
    eigenstates, and a coefficient vector of norm up to 30."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    basis = basis_generic(d, m, rng)
    rec = eigenstate_measurements(basis, rng.uniform(0, 1, m), int(rng.integers(d)))
    x = np.array(draw(st.lists(st.floats(-15.0, 15.0), min_size=m, max_size=m)))
    return basis, rec, x


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(instances())
def test_objective_nonnegative(inst):
    basis, rec, x = inst
    assert ReconstructionObjective(basis, rec.a).value(x) >= 0.0


@PROPERTY_SETTINGS
@given(instances())
def test_sign_symmetry(inst):
    basis, rec, x = inst
    obj = ReconstructionObjective(basis, rec.a)
    f, g = obj.value(x), obj.gradient(x)
    assert abs(obj.value(-x) - f) <= 1e-12 * max(1.0, f)
    assert np.linalg.norm(obj.gradient(-x) + g) <= 1e-12 * max(1.0, np.linalg.norm(g))


@PROPERTY_SETTINGS
@given(instances())
def test_gradient_matches_oracle(inst):
    # the adjoint pass against the forward-mode Frechet reference; the bound
    # is absolute near a zero gradient: at x = 0 it is exactly 0, and with
    # m = 1 it sits at round-off
    basis, rec, x = inst
    obj = ReconstructionObjective(basis, rec.a)
    ref = exact_gradient(obj, x)
    assert np.linalg.norm(obj.gradient(x) - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


@PROPERTY_SETTINGS
@given(instances())
def test_density_matrix_is_a_state(inst):
    basis, rec, x = inst
    rho = ReconstructionObjective(basis, rec.a)._forward(x)["v6"]
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.array_equal(rho, rho.conj().T)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


@PROPERTY_SETTINGS
@given(instances(), st.integers(-10, 27))
def test_scale_covariance(inst, log2_s):
    # Terms A_i -> s A_i, measured on the same eigenstate, give a_i -> s a_i
    # and make Hs(x) the unscaled Hs(s x): x absorbs the scale, as reading
    # ||x|| as sqrt(beta) needs. rho and tr(Hs^2 rho) follow s x, but each
    # residual tr(A_i rho) - a_i gains a factor s, so f_s(x) is
    # s^2 v8(s x) + v9(s x), not f(s x), and its gradient is s times the
    # adjoint pass at s x with the residuals weighted by s^2. With s a power
    # of two (about 1e-3 to 1e8) every scaling is exact, so these hold bit
    # for bit; no guard may raise on the way.
    basis, rec, x = inst
    s = 2.0**log2_s
    # scaling an underflowing number rounds: keep s x and the traces normal
    x = np.where(np.abs(x) < 1e-100, 0.0, x)
    big = OperatorBasis(dim=basis.dim, terms=[s * t for t in basis.terms], labels=basis.labels)
    big_rec = eigenstate_measurements(big, rec.truth.c_true / s, rec.truth.eigen_index)
    assert np.array_equal(big_rec.a, s * rec.a)
    check_measurement_range(big, big_rec.a)
    obj, big_obj = ReconstructionObjective(basis, rec.a), ReconstructionObjective(big, big_rec.a)
    fwd = obj_mod._forward(obj._ops, s * x)
    assert big_obj.value(x) == s * s * fwd["v8"] + fwd["v9"]
    weighted = obj_mod._gradient(obj._ops, {**fwd, "v7": s * s * fwd["v7"]})
    assert np.array_equal(big_obj.gradient(x), s * weighted)


def _vector_readers(basis, rec, x) -> list:
    """(name, valid vector, read) for every reader of a vector of one entry per
    term: read(v) passes v as the argument name, the others valid."""

    def value_and_gradient(a, x):
        obj = ReconstructionObjective(basis, a)  # a new objective, so no cached x answers
        return obj.value(x), obj.gradient(x)

    c, k, a = rec.truth.c_true, rec.truth.eigen_index, rec.a
    return [
        ("coefficient vector c", c, lambda v: assemble(basis, v)),
        ("c_true", c, lambda v: true_eigenstate(basis, v, k)),
        ("measurement vector a", a, lambda v: check_measurement_range(basis, v)),
        ("measurement vector a", a, lambda v: value_and_gradient(v, x)),
        ("x", x, lambda v: value_and_gradient(a, v)),
        ("x", x, lambda v: recover_eigenvalue(basis, v, a)),
        ("measurement vector a", a, lambda v: recover_eigenvalue(basis, x, v)),
        ("x", x, lambda v: recover_eigenstate(basis, v, a)),
        ("measurement vector a", a, lambda v: recover_eigenstate(basis, x, v)),
    ]


def _bits(out) -> bytes:
    """The bytes of a reader's output: an array, a number or a tuple of them."""
    return b"".join(map(_bits, out)) if isinstance(out, tuple) else np.asarray(out).tobytes()


@pytest.mark.filterwarnings("ignore:ground space of Hs")  # recover_eigenstate warns of a near-degenerate ground
@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_one_rule_for_a_vector(inst, data):
    # a list, a contiguous array and a strided view of the same values give
    # the same bits; a vector one entry short or long, or holding NaN or
    # +-inf, is refused with one ValueError that names the argument
    basis, rec, x = inst
    assume(x.any())  # recover_eigenvalue and recover_eigenstate refuse an all-zero x
    m = basis.size
    for name, v, read in _vector_readers(basis, rec, x):
        wide = np.zeros(2 * m)
        wide[::2] = v
        want = _bits(read(np.array(v)))
        assert _bits(read(list(map(float, v)))) == want, name
        assert _bits(read(wide[::2])) == want, name
        wrong = [v[:-1], np.append(v, v[0])]
        for bad in (math.nan, math.inf, -math.inf):
            wrong.append(np.array(v))
            wrong[-1][data.draw(st.integers(0, m - 1))] = bad
        for w in wrong:
            with pytest.raises(ValueError) as info:
                read(w)
            assert str(info.value).startswith(f"{name} "), (name, str(info.value))


def _matrix_readers(t, a4) -> list:
    """(name, valid matrix, dim, read) for every public reader of a d x d matrix: read(v) passes v as the
    argument name, the others valid; dim is the dimension the reader holds v to, None for any in range."""
    d = t.shape[0]
    return [
        ("term A1", t, d, lambda v: OperatorBasis(dim=d, terms=[v], labels=["A1"]).terms),
        ("M", t, None, lambda v: linalg.check_hermitian(v, "M")),
        ("M", t, d, lambda v: linalg.check_hermitian(v, "M", d)),
        ("X", t, None, lambda v: linalg.frechet_exp(v, t)),
        ("E", t, d, lambda v: linalg.frechet_exp(t, v)),
        ("H1", t, None, lambda v: hamiltonian_fidelity(v, t)),
        ("H2", t, d, lambda v: hamiltonian_fidelity(t, v)),
        ("a4", a4, 4, lambda v: embed_two_local(v, 1, 3, 3)),
    ]


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]), st.data())
def test_one_rule_for_a_matrix(seed, d, data):
    # a nested list, a contiguous array and a strided view of the same matrix
    # give the same bits; a value numpy cannot read as complex numbers, one
    # that is not a square matrix, one of the wrong dimension and one holding
    # NaN or +-inf are refused with one ValueError that names the argument
    rng = np.random.default_rng(seed)
    t, a4 = random_hermitian(d, rng), random_hermitian(4, rng)
    for name, v, dim, read in _matrix_readers(t, a4):
        n = v.shape[0]
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[::2, ::2] = v
        want = _bits(read(np.array(v)))
        assert _bits(read(v.tolist())) == want, name
        assert _bits(read(big[::2, ::2])) == want, name
        ragged = v.tolist()
        ragged[-1] = ragged[-1][:-1]
        wrong = [ragged, str(v.tolist()), v[0], v[None], v[:, :-1], np.zeros((0, 0)), np.eye(linalg.MAX_DIM + 1)]
        if dim is not None:
            wrong.append(np.eye(n + 1))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for bad in (math.nan, math.inf, -math.inf):
            wrong.append(np.array(v))
            wrong[-1][i, j] = complex(bad, 0) if data.draw(st.booleans()) else complex(0, bad)
        for w in wrong:
            with pytest.raises(ValueError) as info:
                read(w)
            assert str(info.value).startswith(f"{name} "), (name, str(info.value))


# the d = 4 instance `gen` writes for this config, the config with its solve
# settings spelt out, and the rows `exp` writes for it
CI_CONFIG = {"preset": "generic", "n_qubits": 2, "num_instances": 2, "seed": 3, "m_terms": 2}
SOLVE_SETTINGS = {"eps": 1e-8, "max_iters": 500, "max_restarts": 50}


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory) -> dict:
    """{name: (path, parsed JSON)} of a valid basis, record, config and rows file."""
    tmp = tmp_path_factory.mktemp("readers")
    config = tmp / "cfg.json"
    config.write_text(json.dumps(CI_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(config), "--out", str(tmp)]) == EXIT_OK
        assert main(["exp", "--config", str(config), "--out", str(tmp / "rows.jsonl")]) == EXIT_OK
    config.write_text(json.dumps({**CI_CONFIG, "solve": SOLVE_SETTINGS}))
    rows = [json.loads(line) for line in (tmp / "rows.jsonl").read_text().splitlines()]
    files = {"basis": tmp / "basis_0000.json", "record": tmp / "record_0000.json", "config": config}
    return {**{name: (path, json.loads(path.read_text())) for name, path in files.items()},
            "rows": (tmp / "rows.jsonl", rows)}


def _paths(doc, path=()):
    """Every path into doc, the root's () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    """doc with the value at path replaced by value."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, key: _replaced(doc[key], rest, value)}
    return [_replaced(v, rest, value) if k == key else v for k, v in enumerate(doc)]


# JSON scalars: integers of up to 400 digits, and the tokens NaN and
# +-Infinity; floats near the float64 maximum are left out
json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-10**6, 10**6),
    st.integers(299, 399).flatmap(lambda k: st.integers(10**k, 10 ** (k + 1) - 1)).flatmap(
        lambda n: st.sampled_from([n, -n])),
    st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf]),
)
# oversized values, built from small draws: a list of 10**4 to 10**5 numbers
# or strings, a string of 10**5 characters, an integer of 1,000 to 4,000
# digits, an object of 1,000 keys
oversized = st.one_of(
    st.tuples(st.integers(10**4, 10**5), st.sampled_from([0.5, 7, "x", "longer"])).map(lambda t: [t[1]] * t[0]),
    st.characters().map(lambda c: c * 10**5),
    st.tuples(st.integers(999, 3999), st.integers(1, 9), st.sampled_from([1, -1])).map(
        lambda t: t[2] * t[1] * 10 ** t[0]),
    st.text(max_size=2).map(lambda prefix: {f"{prefix}{k}": k for k in range(1000)}),
)
json_values = st.one_of(
    json_scalars, st.lists(json_scalars, max_size=3), st.dictionaries(st.text(max_size=3), json_scalars, max_size=3),
    st.lists(st.lists(st.lists(json_scalars, max_size=3), max_size=3), max_size=3), oversized,
)


@st.composite
def replacements(draw, inputs):
    """(name, path, value): one file of inputs, a path into it and the value put there."""
    value = draw(json_values)
    name = draw(st.sampled_from(sorted(inputs)))
    paths = list(_paths(inputs[name][1]))
    if name == "rows":
        paths = paths[1:]  # the rows file is one JSON value a line, not one JSON value
    return name, draw(st.sampled_from(paths)), value


class _Solved(Exception):
    """Raised by the stub solver: the inputs passed every check before the solve."""


def _stub_solve(*args, **kwargs):
    raise _Solved


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_readers_refuse_by_one_error_line(reader_inputs, data):
    # whatever value sits at whatever path, solve and summarize either take
    # the input (solve then reaches the solver) or exit 1 with one error line,
    # of at most 300 characters besides the file path it names
    name, path, value = data.draw(replacements(reader_inputs))
    where, doc = reader_inputs[name]
    doc = _replaced(doc, path, value)
    target = where.with_name(f"replaced_{where.name}")
    if name == "rows":
        target.write_text("".join(json.dumps(row) + "\n" for row in doc))
        args = ["summarize", "--in", str(target)]
    else:
        target.write_text(json.dumps(doc))
        files = {n: str(target if n == name else reader_inputs[n][0]) for n in ("basis", "record", "config")}
        args = ["solve", "--basis", files["basis"], "--measurements", files["record"], "--config", files["config"]]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        mp.setattr(cli, "solve_hamiltonian", _stub_solve)
        try:
            code = main(args)
        except _Solved:
            return
    err = err.getvalue()
    assert code == EXIT_OK or (code == EXIT_CONFIG_ERROR and err.startswith("error: ") and err.count("\n") == 1), err
    assert len(err.replace(str(target), "")) <= 300, err[:1000]
