"""Unit tests for operator bases, embeddings, and measurement records."""

import json
import re

import numpy as np
import pytest

from hamlearn import linalg
from hamlearn.metrics import recover_eigenvalue
from hamlearn.operators import (
    ECHO_MAX,
    DegenerateEigenstateError,
    LatticeSpec,
    MeasurementRecord,
    OperatorBasis,
    assemble,
    basis_generic,
    basis_two_local,
    check_measurement_range,
    eigenstate_measurements,
    embed_two_local,
    json_object,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
    read_json,
    require_float,
    require_numbers,
    shown,
    term_name,
    true_eigenstate,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def embed_bruteforce(a4, i, j, n):
    """Independent oracle: build the embedded operator element by element.

    Qubit 1 is the most significant bit of the register index.
    """
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        rb = [(r >> (n - q)) & 1 for q in range(1, n + 1)]
        for c in range(d):
            cb = [(c >> (n - q)) & 1 for q in range(1, n + 1)]
            if any(rb[q] != cb[q] for q in range(n) if q + 1 not in (i, j)):
                continue
            sub_r = 2 * rb[i - 1] + rb[j - 1]
            sub_c = 2 * cb[i - 1] + cb[j - 1]
            out[r, c] = a4[sub_r, sub_c]
    return out


class TestLattice:
    def test_chain(self):
        lat = LatticeSpec.chain(4)
        assert lat.edges == ((1, 2), (2, 3), (3, 4))

    def test_fully_connected(self):
        lat = LatticeSpec.fully_connected(4)
        assert len(lat.edges) == 6
        assert all(i < j for i, j in lat.edges)

    def test_bad_edge(self):
        with pytest.raises(ValueError):
            LatticeSpec(3, ((3, 1),))

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            LatticeSpec(3, ((1, 2), (1, 2)))

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            LatticeSpec(1, ())

    def test_too_many_qubits(self):
        # refused before the bare-qubit check builds a set of every qubit
        with pytest.raises(ValueError) as info:
            LatticeSpec(100_000, ((1, 2),))
        assert str(info.value) == "lattice num_qubits must be <= 8 (dimension <= 256), got 100000"

    def test_from_json(self):
        assert LatticeSpec.from_json({"num_qubits": 3, "edges": [[1, 2], [2, 3]]}) == LatticeSpec.chain(3)

    @pytest.mark.parametrize(
        "num_qubits, edges, bare", [(3, ((1, 2),), [3]), (4, ((2, 3),), [1, 4])], ids=["last", "both_ends"]
    )
    def test_bare_qubit(self, num_qubits, edges, bare):
        with pytest.raises(ValueError, match=re.escape(f"qubit(s) {bare} without an edge")):
            LatticeSpec(num_qubits, edges)

    @pytest.mark.parametrize(
        "num_qubits, edges, message",
        [
            (3, ((1, 2), (2.5, 3)), "lattice edge qubit must be an integer, got 2.5"),
            (3, ((1, 2), (2, 3.0)), "lattice edge qubit must be an integer, got 3.0"),
            (3, ((True, 2), (2, 3)), "lattice edge qubit must be an integer, got True"),
            (2.0, ((1, 2),), "lattice num_qubits must be an integer, got 2.0"),
        ],
        ids=["fractional_qubit", "float_qubit", "bool_qubit", "float_num_qubits"],
    )
    def test_non_integer_refused(self, num_qubits, edges, message):
        # a float qubit would reach the embedding (AxisError) or a term's label (A2_3.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeSpec(num_qubits, edges)


class TestEmbedding:
    def test_against_bruteforce(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    a4 = random_hermitian(4, rng)
                    got = embed_two_local(a4, i, j, n)
                    want = embed_bruteforce(a4, i, j, n)
                    assert np.array_equal(got, want), (n, i, j)

    def test_spectrum_multiplicity(self):
        rng = np.random.default_rng(37)
        a4 = random_hermitian(4, rng)
        w4 = np.linalg.eigvalsh(a4)
        n = 4
        full = embed_two_local(a4, 2, 4, n)
        w = np.linalg.eigvalsh(full)
        expected = np.sort(np.repeat(w4, 2 ** (n - 2)))
        assert np.allclose(w, expected, atol=1e-12)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            embed_two_local(np.eye(4), 2, 2, 3)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            embed_two_local(np.eye(2), 1, 2, 2)


class TestBases:
    def test_generic_shapes_and_labels(self):
        rng = np.random.default_rng(41)
        basis = basis_generic(8, 3, rng)
        assert basis.size == 3
        assert basis.dim == 8
        assert basis.labels == ["A1", "A2", "A3"]

    def test_two_local_chain(self):
        rng = np.random.default_rng(43)
        basis = basis_two_local(LatticeSpec.chain(4), rng)
        assert basis.size == 3
        assert basis.dim == 16
        assert basis.labels == ["A1_2", "A2_3", "A3_4"]

    def test_generated_terms_keep_their_bits(self):
        # the basis keeps a term's own bits wherever it already equals its
        # conjugate transpose, so generated bases, records and rows are unchanged
        generic = basis_generic(8, 3, np.random.default_rng(41))
        rng = np.random.default_rng(41)
        assert [t.tobytes() for t in generic.terms] == [random_hermitian(8, rng).tobytes() for _ in range(3)]
        chain = LatticeSpec.chain(4)
        local = basis_two_local(chain, np.random.default_rng(43))
        rng = np.random.default_rng(43)
        raw = [embed_two_local(random_hermitian(4, rng), i, j, 4) for i, j in chain.edges]
        assert [t.tobytes() for t in local.terms] == [t.tobytes() for t in raw]

    def test_nested_list_terms(self):
        # terms given as nested lists are kept as complex arrays, which assemble
        # and eigenstate_measurements can combine
        b = OperatorBasis(dim=2, terms=[[[1, 0], [0, -1]], [[0, 1], [1, 0]]], labels=["z", "x"])
        assert np.allclose(eigenstate_measurements(b, [0.3, 0.5], 0).a, [-0.5145, -0.8575], atol=1e-4)
        for t in b.terms:
            assert isinstance(t, np.ndarray) and t.dtype == complex
            assert np.array_equal(t, t.conj().T)

    def test_random_hermitian_is_hermitian(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = random_hermitian(4, rng)
            assert np.linalg.norm(a - a.conj().T) == 0.0

    def test_random_hermitian_deterministic(self):
        a = random_hermitian(4, np.random.default_rng(5))
        b = random_hermitian(4, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            OperatorBasis(dim=2, terms=[], labels=[])
        with pytest.raises(ValueError):
            OperatorBasis(dim=2, terms=[np.eye(2)], labels=["a", "b"])
        with pytest.raises(ValueError):
            OperatorBasis(dim=2, terms=[np.eye(2), np.eye(2)], labels=["a", "a"])
        with pytest.raises(ValueError):
            OperatorBasis(dim=3, terms=[np.eye(2)], labels=["a"])

    def test_assemble(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_X, PAULI_Z], labels=["x", "z"])
        h = assemble(basis, [2.0, -1.0])
        assert np.allclose(h, np.array([[-1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            assemble(basis, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_assemble_refuses_non_finite(self, bad):
        # a NaN or inf coefficient would make H, and every level read from
        # it, non-finite; true_eigenstate names the vector c_true
        basis = OperatorBasis(dim=2, terms=[PAULI_X, PAULI_Z], labels=["x", "z"])
        with pytest.raises(ValueError) as info:
            assemble(basis, [bad, 0.5])
        assert str(info.value) == f"coefficient vector c entry 0 must be finite, got {bad}"
        with pytest.raises(ValueError) as info:
            true_eigenstate(basis, [bad, 0.5], 0)
        assert str(info.value) == f"c_true entry 0 must be finite, got {bad}"


class TestMeasurements:
    def test_eigenvalue_identity(self):
        # lambda_k = sum_i c_i <psi_k|A_i|psi_k> for every eigenstate
        rng = np.random.default_rng(53)
        for _ in range(10):
            basis = basis_generic(8, 3, rng)
            c = rng.uniform(0, 1, 3)
            w = np.linalg.eigvalsh(assemble(basis, c))
            for k in range(8):
                rec = eigenstate_measurements(basis, c, k)
                assert abs(c @ rec.a - w[k]) < 1e-10

    def test_large_norm_basis_accepted(self):
        # expectations of exactly Hermitian terms of norm ~1e9 carry
        # imaginary round-off above 1e-8; only their real parts are kept
        rng = np.random.default_rng(0)
        basis = basis_generic(16, 3, rng)
        c = rng.uniform(0, 1, 3)
        big = OperatorBasis(dim=16, terms=[1e8 * t for t in basis.terms], labels=basis.labels)
        w = np.linalg.eigvalsh(assemble(big, c))
        for k in range(16):
            rec = eigenstate_measurements(big, c, k)
            assert abs(c @ rec.a - w[k]) < 1e-10 * 1e8

    def test_numerical_range(self):
        rng = np.random.default_rng(59)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 1)
        for k, term in enumerate(basis.terms):
            w = np.linalg.eigvalsh(term)
            assert w[0] - 1e-10 <= rec.a[k] <= w[-1] + 1e-10

    def test_truth_fields(self):
        rng = np.random.default_rng(61)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 2)
        assert rec.truth.eigen_index == 2
        assert np.array_equal(rec.truth.c_true, c)

    @pytest.mark.parametrize(
        "spectrum, level",
        [([0.0, 0.0, 1.0], 0), ([0.0, 0.0, 1.0], 1), ([0.0, 1.0, 1.0], 2), ([0.0, 1.0, 1.0 + 1e-9], 1)],
        ids=["upper_neighbour", "lower_neighbour", "lower_neighbour_at_top", "near_upper_neighbour"],
    )
    def test_degenerate_rejected(self, spectrum, level):
        basis = OperatorBasis(dim=3, terms=[np.diag(spectrum)], labels=["D"])
        with pytest.raises(DegenerateEigenstateError):
            eigenstate_measurements(basis, [1.0], level)

    @pytest.mark.parametrize("level", [0, 2])
    def test_separated_level_beside_degenerate_one(self, level):
        # level 2 of (0, 0, 1) and level 0 of (0, 1, 1) have their one neighbour 1 away
        spectrum = [0.0, 0.0, 1.0] if level == 2 else [0.0, 1.0, 1.0]
        basis = OperatorBasis(dim=3, terms=[np.diag(spectrum)], labels=["D"])
        w, psi = true_eigenstate(basis, [1.0], level)
        assert np.array_equal(w, spectrum)
        assert abs(psi[level]) == 1.0

    def test_index_out_of_range(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        for level, message in [
            (2, "eigen_index 2 out of range for dimension 2"),
            (-1, "eigen_index -1 out of range for dimension 2"),
            (1.0, "eigen_index must be an integer, got 1.0"),
            (None, "eigen_index must be an integer, got None"),
        ]:
            for call in (true_eigenstate, eigenstate_measurements):
                with pytest.raises(ValueError) as info:
                    call(basis, [1.0], level)
                assert str(info.value) == message

    def test_numpy_integer_index(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z], labels=["z"])
        _, psi = true_eigenstate(basis, [1.0], np.int64(1))
        assert np.array_equal(abs(psi), [1.0, 0.0])


def loop_bases():
    """Generic and two-local bases, the latter with -0.0 real parts, as the per-term references read them."""
    rng = np.random.default_rng(71)
    yield basis_generic(8, 4, rng)
    yield basis_generic(32, 2, rng)
    yield basis_two_local(LatticeSpec(4, ((1, 2), (2, 3), (3, 4), (1, 4))), rng)  # a ring: c_1 = 0 leaves no qubit bare
    yield basis_two_local(LatticeSpec.fully_connected(5), rng)


class TestStackedTerms:
    """assemble, check_measurement_range and eigenstate_measurements read the
    basis's (m, d, d) stack at once; each gives the bits of a per-term loop."""

    @pytest.mark.parametrize("basis", loop_bases())
    def test_assemble_matches_loop(self, basis):
        rng = np.random.default_rng(73)
        zero_one = rng.uniform(-1, 1, basis.size)
        zero_one[1] = 0.0
        for c in (rng.uniform(-1, 1, basis.size), zero_one, np.zeros(basis.size)):
            h = np.zeros((basis.dim, basis.dim), dtype=complex)
            for ci, ai in zip(c, basis.terms):
                h += ci * ai
            assert assemble(basis, c).tobytes() == h.tobytes()

    @pytest.mark.parametrize("basis", loop_bases())
    def test_measurements_match_loop(self, basis):
        rng = np.random.default_rng(79)
        c = rng.uniform(-1, 1, basis.size)
        c[0] = 0.0
        for level in (0, basis.dim // 2, basis.dim - 1):
            _, psi = true_eigenstate(basis, c, level)
            a = np.array([(psi.conj() @ (term @ psi)).real for term in basis.terms])
            rec = eigenstate_measurements(basis, c, level)
            assert rec.a.tobytes() == a.tobytes()
            # rec.a is a strided view of the complex products: read by require_vector, it gives the loop's bits
            assert recover_eigenvalue(basis, c, rec.a) == recover_eigenvalue(basis, c, a)

    @pytest.mark.parametrize("basis", loop_bases())
    def test_range_bounds_match_loop(self, basis):
        # each term's bound, as the loop computes it, is accepted, and the next float past it refused
        spectra = [np.linalg.eigvalsh(term) for term in basis.terms]
        inside = np.array([(w[0] + w[-1]) / 2 for w in spectra])
        for k, w in enumerate(spectra):
            slack = linalg.ROUNDOFF_TOL * max(1.0, abs(w[0]), abs(w[-1]))
            for edge, beyond in ((w[0] - slack, -np.inf), (w[-1] + slack, np.inf)):
                a = inside.copy()
                a[k] = edge
                check_measurement_range(basis, a)
                a[k] = np.nextafter(edge, beyond)
                with pytest.raises(ValueError, match=rf"a\[{k}\] = .* outside the numerical range"):
                    check_measurement_range(basis, a)

    def test_range_error_names_first_term(self):
        basis = OperatorBasis(dim=2, terms=[PAULI_Z, 2 * PAULI_X, 3 * PAULI_Z], labels=["z", "x", "z3"])
        with pytest.raises(ValueError) as info:
            check_measurement_range(basis, [0.5, 2.5, -3.5])
        assert str(info.value) == "measurement a[1] = 2.5 outside the numerical range [-2, 2] of term x"


class TestSerialization:
    def test_basis_round_trip(self, tmp_path):
        rng = np.random.default_rng(67)
        basis = basis_two_local(LatticeSpec.chain(3), rng)
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(basis.to_json()))
        back = OperatorBasis.from_json(read_json(path))
        assert back.dim == basis.dim
        assert back.labels == basis.labels
        for a, b in zip(back.terms, basis.terms):
            assert np.array_equal(a, b)
        # a file holds what a solve reads: the dimension, and each term's label and matrix
        assert set(basis.to_json()) == {"dim", "terms"}
        assert all(set(t) == {"label", "matrix"} for t in basis.to_json()["terms"])
        assert all(set(t["matrix"]) == {"re", "im"} for t in basis.to_json()["terms"])

    def test_basis_of_earlier_versions_loads(self):
        # basis files written by earlier versions carry n_qubits, a term
        # support and a matrix dim; all three are ignored
        basis = basis_two_local(LatticeSpec.chain(3), np.random.default_rng(67))
        old = basis.to_json()
        old["n_qubits"] = 3
        for t, edge in zip(old["terms"], ([1, 2], [2, 3])):
            t["support"] = edge
            t["matrix"]["dim"] = 8
        back = OperatorBasis.from_json(old)
        assert back.labels == basis.labels
        assert all(np.array_equal(a, b) for a, b in zip(back.terms, basis.terms))
        assert back.to_json() == basis.to_json()

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(29)
        a = random_hermitian(4, rng)
        back = matrix_from_json(matrix_to_json(a), 4, "matrix")
        assert np.array_equal(back, a)

    def test_matrix_from_json_shape_check(self):
        # either part must be d x d and finite: numpy would broadcast a 1 x 1
        # re or im against the other, and a 2 x 2 payload in a d = 3 basis is refused
        zero = [[0, 0], [0, 0]]
        for payload, d, part in [
            ({"re": zero, "im": zero}, 3, "re"),
            ({"re": [[1]], "im": zero}, 2, "re"),
            ({"re": zero, "im": [[0]]}, 2, "im"),
            ({"re": zero, "im": [[0, 0], [0]]}, 2, "im"),
            ({"re": [[float("nan"), 0], [0, 0]], "im": zero}, 2, "re"),
        ]:
            with pytest.raises(ValueError) as info:
                matrix_from_json(payload, d, "term A1 matrix")
            assert str(info.value) == f"term A1 matrix {part} is not a {d} x {d} array of finite numbers"
        # each entry must be a number as require_numbers reads one: numpy would
        # read null as NaN, and a bool or a numeric string as a number
        for payload, where in [
            ({"re": zero, "im": [["a", 0], [0, 0]]}, "im row 0 entry 0 must be a number, got 'a'"),
            ({"re": [[None, 0], [0, 0]], "im": zero}, "re row 0 entry 0 must be a number, got None"),
            ({"re": [["1", "0"], ["0", "-1"]], "im": zero}, "re row 0 entry 0 must be a number, got '1'"),
            ({"re": [[1, 0], [0, -1]], "im": [[False, False]] * 2}, "im row 0 entry 0 must be a number, got False"),
            ({"re": [[1, True], [1, -1]], "im": zero}, "re row 0 entry 1 must be a number, got True"),
        ]:
            with pytest.raises(ValueError) as info:
                matrix_from_json(payload, 2, "term A1 matrix")
            assert str(info.value) == f"term A1 matrix {where}"

    def test_record_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        basis = basis_generic(4, 2, rng)
        c = rng.uniform(0, 1, 2)
        rec = eigenstate_measurements(basis, c, 1)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(rec.to_json()))
        back = MeasurementRecord.from_json(read_json(path))
        assert np.array_equal(back.a, rec.a)
        assert back.truth.eigen_index == 1
        assert np.array_equal(back.truth.c_true, c)
        assert set(rec.to_json()["truth"]) == {"c_true", "eigen_index"}

    def test_record_with_seed_key_loads(self):
        # record files written by earlier versions carry a "basis_ref" and
        # the truth keys "seed" and "lambda_true"; all three are ignored
        payload = {
            "basis_ref": "b",
            "a": [0.5, -0.25],
            "truth": {"c_true": [0.1, 0.2], "eigen_index": 1, "lambda_true": 0.3, "seed": 7},
        }
        back = MeasurementRecord.from_json(payload)
        assert np.array_equal(back.a, [0.5, -0.25])
        assert back.truth.eigen_index == 1
        assert set(back.to_json()) == {"a", "truth"}
        assert set(back.to_json()["truth"]) == {"c_true", "eigen_index"}

    def test_record_entries_must_be_numbers(self):
        # a bool, a list or a string entry is refused by field and place;
        # numpy would read true as 1.0, and name neither for the others
        for a, c_true, message in [
            ([0.5, True], [0.1, 0.2], "record a entry 1 must be a number, got True"),
            ([0.5, 0.1], [0.1, [0.2]], "record truth c_true entry 1 must be a number, got [0.2]"),
            ([0.5, 0.1], [None, 0.2], "record truth c_true entry 0 must be a number, got None"),
        ]:
            with pytest.raises(ValueError) as info:
                MeasurementRecord.from_json({"a": a, "truth": {"c_true": c_true, "eigen_index": 0}})
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3.0), (-0.25, -0.25), (np.float32(0.5), 0.5), (float("inf"), float("inf")),
         (2**1024 - 2**970 - 1, 1.7976931348623157e308)],
        ids=["int", "float", "numpy_float", "inf", "largest_int_held"],
    )
    def test_require_float_accepts(self, value, expected):
        assert require_float("x", value) == expected
        assert np.array_equal(require_numbers("x", [value, 1]), [expected, 1.0])

    @pytest.mark.parametrize(
        "value, message",
        [(True, "x must be a number, got True"), ("1", "x must be a number, got '1'"),
         (10**400, "x must fit a float64, got a 401-digit integer"),
         (-(2**1024), "x must fit a float64, got a 309-digit integer")],
        ids=["bool", "string", "401_digits", "2_to_1024"],
    )
    def test_require_float_refuses(self, value, message):
        # a float64 holds NaN and +-inf but no integer past its largest value
        with pytest.raises(ValueError) as info:
            require_float("x", value)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            require_numbers("x", [0.5, value])
        assert str(info.value) == message.replace("x ", "x entry 1 ")

    def test_record_without_truth(self):
        rec = MeasurementRecord(a=np.array([0.5]))
        back = MeasurementRecord.from_json(rec.to_json())
        assert back.truth is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": 1,\n "b": }', "f.json: Expecting value at line 2 column 7"),
            ('{"a": tru}', "f.json: Expecting value at column 7"),
            ("[1, 2]", "f.json must be a JSON object, got [1, 2]"),
        ],
        ids=["second_line", "first_line", "list"],
    )
    def test_json_object_names_where(self, text, message):
        with pytest.raises(ValueError) as info:
            json_object(text, "f.json")
        assert str(info.value) == message


class TestEcho:
    @pytest.mark.parametrize(
        "value, text",
        [([0.5], "[0.5]"), ("1", "'1'"), (None, "None"), (True, "True"), (1.5, "1.5"), (float("nan"), "nan"),
         ({"b": 1, "a": [2]}, "{'a': [2], 'b': 1}"), (10**40 - 1, str(10**40 - 1)), (10**40, "a 41-digit integer"),
         (-(2**1024), "a 309-digit integer"), (10**5000, "a 5001-digit integer"),
         ([1, 10**400], "[1, a 401-digit integer]"), (np.int64(7), "7"), ([np.uint8(3), True], "[3, True]")],
        ids=["list", "string", "none", "bool", "float", "nan", "dict_sorted", "40_digits", "41_digits", "2_to_1024",
             "5001_digits", "nested_integer", "numpy_integer", "nested_numpy_integer"],
    )
    def test_short_values_and_long_integers(self, value, text):
        # a short value shows as repr shows it (a dict's keys sorted); an integer
        # past 40 digits by its digit count, which str() refuses past 4,300 digits
        assert shown(value) == text

    def test_digit_count_is_exact(self):
        for k in range(40, 1200):
            assert shown(10**k) == f"a {k + 1}-digit integer"
            assert shown(-(10**k) + 1) == (f"a {k}-digit integer" if k > 40 else str(-(10**k) + 1))

    @pytest.mark.parametrize(
        "value",
        [[0.5] * 10**5, "x" * 10**5, {f"k{i}": i for i in range(1000)}, [[["s" * 50] * 6] * 6] * 6,
         [[[[[[[1]]]]]]] * 10, ["y" * 10**5, 10**4000]],
        ids=["long_list", "long_string", "1000_keys", "nested", "deep", "mixed"],
    )
    def test_bounded(self, value):
        assert len(shown(value)) <= ECHO_MAX

    def test_term_name(self):
        # a label is cut as a string is, but shown unquoted; an escape keeps it on one line
        assert term_name("A1") == "term A1"
        assert term_name("a'b") == "term a'b"
        assert term_name("a\nb") == "term a\\nb"
        long = term_name("L" * 10**5)
        assert long.startswith("term LL") and long.endswith("LL") and len(long) <= len("term ") + ECHO_MAX
