"""Statevector simulator tests, checked against the dense-matrix oracle."""
import itertools
import math

import numpy as np
import pytest

from qsvm_boost import kernels
from qsvm_boost.boosted_qsvm import GridSpec
from qsvm_boost.kernels import gram_matrix
from qsvm_boost.quantum_sim import (
    _HADAMARD,
    FeatureMapSpec,
    _hadamard_all_batch,
    _kron_chain,
    _pauli_action,
    _rotate_batch,
    _rotation_gather,
    check_label,
    dense_pauli_matrix,
    dense_term_unitary,
    dense_unitary_oracle,
    feature_map_states,
    havlicek_data_map,
    parse_feature_map,
)
from helpers import (
    phase_align,
    random_feature_map_spec,
    random_statevector,
    reference_apply_pauli,
    reference_hadamard,
    reference_rotate,
    reference_states,
)


def random_batch(rng, n_qubits, rows=4):
    return np.array([random_statevector(rng, n_qubits) for _ in range(rows)])


def rotate(psi, letters, thetas):
    thetas = np.asarray(thetas, dtype=float)[:, None]
    v = np.ascontiguousarray(psi).view(np.float64)
    return _rotate_batch(v, _rotation_gather(letters), np.cos(thetas), np.sin(thetas)).view(complex)


def pauli_strings(n):
    return [s for s in map("".join, itertools.product("IXYZ", repeat=n)) if set(s) != {"I"}]


def default_grid_specs(n_qubits):
    """Every (feature map, alpha) spec of the default grid whose labels fit on n_qubits."""
    grid = GridSpec()
    return [
        FeatureMapSpec(n_qubits, labels, reps=grid.reps, alpha=alpha)
        for labels in grid.feature_maps
        if max(map(len, labels)) <= n_qubits
        for alpha in grid.alphas
    ]


# --- start state |0...0> ---

def test_zero_state_one_qubit():
    # alpha=0 leaves two Hadamard layers, and H @ H = I returns the start state
    spec = FeatureMapSpec(1, ("Z",), reps=2, alpha=0.0)
    np.testing.assert_allclose(feature_map_states(spec, [[0.3]])[0], [1, 0], atol=1e-15)


def test_zero_state_two_qubits():
    spec = FeatureMapSpec(2, ("Z", "ZZ"), reps=2, alpha=0.0)
    states = feature_map_states(spec, [[0.3, 1.0], [2.0, 0.1], [0.0, 3.0]])
    np.testing.assert_allclose(states, [[1, 0, 0, 0]] * 3, atol=1e-15)


def test_zero_state_size_guard():
    with pytest.raises(ValueError):
        FeatureMapSpec(13, ("Z",))
    with pytest.raises(ValueError):
        FeatureMapSpec(0, ("Z",))


# --- menu labels and the index-mask action ---

def test_pauli_string_validation():
    for label in ("Z", "ZI", "IZ", "XY"):
        check_label(label)
    assert FeatureMapSpec(2, ("ZI",)).terms() == [("ZI", (0,))]
    assert FeatureMapSpec(2, ("IZ",)).terms() == [("IZ", (1,))]
    with pytest.raises(ValueError, match="non-identity"):
        check_label("II")
    with pytest.raises(ValueError, match="invalid Pauli letters"):
        check_label("ZA")
    for bad in ("", "ZZZ", None, ("Z",)):
        with pytest.raises(ValueError, match="1 or 2 letters"):
            check_label(bad)


def test_pauli_action_matches_dense_matrix():
    # every entry of a Pauli matrix is 0, +-1 or +-i, so the gather-and-phase
    # action and the dense product agree exactly
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        psi = random_batch(rng, n)
        for letters in pauli_strings(n):
            np.testing.assert_array_equal(
                reference_apply_pauli(psi, _pauli_action(letters)), psi @ dense_pauli_matrix(letters).T
            )


# --- Hadamard layer ---

def test_hadamard_on_zero():
    out = _hadamard_all_batch(np.array([[1, 0]], dtype=complex))
    np.testing.assert_allclose(out[0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_hadamard_uniform_two_qubits():
    out = _hadamard_all_batch(np.array([[1, 0, 0, 0]], dtype=complex))
    np.testing.assert_allclose(out[0], [0.5] * 4, atol=1e-15)


def test_hadamard_self_inverse():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        psi = random_batch(rng, n)
        back = _hadamard_all_batch(_hadamard_all_batch(psi))
        np.testing.assert_allclose(back, psi, atol=1e-12)


def test_hadamard_matches_dense_layer():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        psi = random_batch(rng, n)
        dense = psi @ _kron_chain([_HADAMARD] * n).T
        np.testing.assert_allclose(_hadamard_all_batch(psi), dense, atol=1e-13)


def test_hadamard_matches_oracle_wide_and_non_contiguous():
    rng = np.random.default_rng(14)
    batch = random_batch(rng, 4, rows=6)
    for psi in (random_batch(rng, 12, rows=3), batch[::2], np.asfortranarray(batch)):
        np.testing.assert_allclose(_hadamard_all_batch(psi), reference_hadamard(psi), atol=1e-13)


def test_hadamard_bits_match_oracle_up_to_two_qubits():
    # one or two qubits means one qubit per matmul: the same two-term sums as the oracle
    rng = np.random.default_rng(15)
    for n in (1, 2):
        psi = random_batch(rng, n, rows=50)
        np.testing.assert_array_equal(_hadamard_all_batch(psi), reference_hadamard(psi))


# --- Pauli rotations ---

def test_rotation_theta_zero_is_identity():
    rng = np.random.default_rng(5)
    psi = random_batch(rng, 2)
    np.testing.assert_array_equal(rotate(psi, "XY", np.zeros(len(psi))), psi)


def test_rotation_z_on_plus_state():
    plus = _hadamard_all_batch(np.array([[1, 0]], dtype=complex))
    out = rotate(plus, "Z", [math.pi / 4])
    np.testing.assert_allclose(out[0], [(1 + 1j) / 2, (1 - 1j) / 2], atol=1e-15)


def test_rotation_matches_dense_term_unitary():
    rng = np.random.default_rng(7)
    psi = random_batch(rng, 2)
    thetas = rng.uniform(-2, 2, size=len(psi))
    out = rotate(psi, "ZZ", thetas)
    for row, start, theta in zip(out, psi, thetas):
        np.testing.assert_allclose(row, dense_term_unitary("ZZ", theta) @ start, atol=1e-12)


def test_rotation_all_letters_match_dense():
    rng = np.random.default_rng(8)
    for letters in ("XI", "IY", "ZX", "YY", "XYZ"):
        psi = random_batch(rng, len(letters))
        thetas = rng.uniform(-2, 2, size=len(psi))
        out = rotate(psi, letters, thetas)
        for row, start, theta in zip(out, psi, thetas):
            np.testing.assert_allclose(row, dense_term_unitary(letters, theta) @ start, atol=1e-12)


def test_rotation_equals_complex_oracle_exactly():
    # i*P only permutes and negates float parts, so the real-view rotation
    # performs the oracle's arithmetic on every string
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 4):
        for letters in pauli_strings(n):
            psi = random_batch(rng, n, rows=6)
            thetas = rng.uniform(-math.pi, math.pi, size=len(psi))
            np.testing.assert_array_equal(
                rotate(psi, letters, thetas), reference_rotate(psi, _pauli_action(letters), thetas)
            )


def test_rotation_involution():
    rng = np.random.default_rng(9)
    psi = random_batch(rng, 3)
    there = rotate(psi, "XYZ", np.full(len(psi), 1.3))
    back = rotate(there, "XYZ", np.full(len(psi), -1.3))
    np.testing.assert_allclose(back, psi, atol=1e-12)


# --- feature_map_states ---

def test_alpha_zero_reduces_to_plain_hadamard_layers():
    # rotations vanish, so the circuit is reps Hadamard layers; verified
    # against the dense oracle rather than any hand-derived value
    x = np.array([0.4, 1.9])
    for reps, expected in ((1, [0.5] * 4), (2, [1, 0, 0, 0])):
        spec = FeatureMapSpec(2, ("Z", "ZZ"), reps=reps, alpha=0.0)
        state = feature_map_states(spec, x[None])[0]
        oracle = dense_unitary_oracle(spec, x)[:, 0]
        np.testing.assert_allclose(state, oracle, atol=1e-12)
        np.testing.assert_allclose(state, expected, atol=1e-12)


def test_single_qubit_z_rotation_closed_form():
    spec = FeatureMapSpec(1, ("Z",), reps=1, alpha=1.0)
    state = feature_map_states(spec, [[0.3]])[0]
    expected = np.array([np.exp(0.3j), np.exp(-0.3j)]) / math.sqrt(2)
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_feature_map_matches_oracle_first_column():
    spec = FeatureMapSpec(2, ("Z", "ZZ"), reps=2, alpha=1.0)
    x = np.array([0.5, 1.2])
    state = feature_map_states(spec, x[None])[0]
    np.testing.assert_allclose(state, dense_unitary_oracle(spec, x)[:, 0], atol=1e-10)


def test_feature_map_oracle_agreement_randomized():
    rng = np.random.default_rng(123)
    for _ in range(80):
        spec = random_feature_map_spec(rng)
        x = rng.uniform(0, math.pi, size=spec.n_qubits)
        state = feature_map_states(spec, x[None])[0]
        column = dense_unitary_oracle(spec, x)[:, 0]
        np.testing.assert_allclose(phase_align(state, column), state, atol=1e-10)


def test_feature_map_norms():
    rng = np.random.default_rng(321)
    for _ in range(1000):
        spec = random_feature_map_spec(rng)
        X = rng.uniform(-2, 2, size=(3, spec.n_qubits))
        norms = np.linalg.norm(feature_map_states(spec, X), axis=1)
        assert np.max(np.abs(norms**2 - 1.0)) < 1e-12


def test_feature_map_dimension_mismatch():
    spec = FeatureMapSpec(2, ("Z",))
    with pytest.raises(ValueError):
        feature_map_states(spec, [[0.1, 0.2, 0.3]])


def test_batch_matches_single():
    rng = np.random.default_rng(17)
    spec = FeatureMapSpec(2, ("Z", "XX"), reps=2, alpha=1.5)
    X = rng.uniform(0, math.pi, size=(6, 2))
    batch = feature_map_states(spec, X)
    for i, x in enumerate(X):
        np.testing.assert_array_equal(batch[i], feature_map_states(spec, x[None])[0])


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("rows", [50, 500])
def test_states_bits_match_oracle_path_up_to_two_qubits(n_qubits, rows):
    X = np.random.default_rng(rows + n_qubits).uniform(0, math.pi, size=(rows, n_qubits))
    specs = default_grid_specs(n_qubits)
    assert len(specs) == (4 if n_qubits == 1 else 36)
    for spec in specs:
        np.testing.assert_array_equal(feature_map_states(spec, X), reference_states(spec, X))


@pytest.mark.parametrize("n_qubits", [3, 4, 5, 8])
def test_grams_match_oracle_path_above_two_qubits(n_qubits, monkeypatch):
    rng = np.random.default_rng(30 + n_qubits)
    X_train = rng.uniform(0, math.pi, size=(30, n_qubits))
    X_val = rng.uniform(0, math.pi, size=(20, n_qubits))
    specs = default_grid_specs(n_qubits)
    grams = [(gram_matrix(s, X_train).values, gram_matrix(s, X_val, X_train).values) for s in specs]
    monkeypatch.setattr(kernels, "feature_map_states", reference_states)
    for spec, (self_gram, cross_gram) in zip(specs, grams):
        np.testing.assert_allclose(self_gram, gram_matrix(spec, X_train).values, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            cross_gram, gram_matrix(spec, X_val, X_train).values, rtol=0, atol=1e-13
        )


# --- dense oracle ---

def test_oracle_alpha_zero_single_rep_is_hadamard():
    spec = FeatureMapSpec(1, ("Z",), reps=1, alpha=0.0)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    np.testing.assert_allclose(dense_unitary_oracle(spec, [0.7]), h, atol=1e-15)


def test_oracle_is_unitary():
    rng = np.random.default_rng(77)
    for _ in range(25):
        spec = random_feature_map_spec(rng)
        x = rng.uniform(-1, 3, size=spec.n_qubits)
        u = dense_unitary_oracle(spec, x)
        dim = u.shape[0]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)


def test_oracle_size_guard():
    spec = FeatureMapSpec(7, ("Z",))
    with pytest.raises(ValueError):
        dense_unitary_oracle(spec, np.zeros(7))


def test_commuting_terms_product_equals_summed_exponential():
    # all-Z menus commute, so the ordered product must equal the exponential
    # of the summed generator; both sides built from dense matrices
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        labels = ("Z",) if n == 1 else ("Z", "ZZ")
        spec = FeatureMapSpec(n, labels, reps=1, alpha=float(rng.uniform(0.1, 2)))
        x = rng.uniform(0, math.pi, size=n)
        generator = np.zeros((1 << n, 1 << n), dtype=complex)
        for letters, subset in spec.terms():
            phi = havlicek_data_map(subset, x[None])[0]
            generator += spec.alpha * phi * dense_pauli_matrix(letters)
        # diagonal generator: exponential is elementwise on the diagonal
        assert np.allclose(generator, np.diag(np.diag(generator)))
        summed = np.diag(np.exp(1j * np.diag(generator)))
        h_layer = _kron_chain([_HADAMARD] * n)
        np.testing.assert_allclose(dense_unitary_oracle(spec, x), summed @ h_layer, atol=1e-10)


# --- spec expansion and canonical text ---

def test_label_expansion_order():
    spec = FeatureMapSpec(2, ("Z", "ZZ"))
    assert spec.terms() == [("ZI", (0,)), ("IZ", (1,)), ("ZZ", (0, 1))]
    spec3 = FeatureMapSpec(3, ("ZZ",))
    assert spec3.terms() == [("ZZI", (0, 1)), ("ZIZ", (0, 2)), ("IZZ", (1, 2))]


def test_terms_of_every_label_with_identities():
    # each label on every ascending qubit subset, written out in full; the
    # support is the positions of the non-I letters of the full string
    labels = [label for k in (1, 2) for label in pauli_strings(k)]
    assert len(labels) == 3 + 15
    for n in range(1, 5):
        for label in labels:
            if len(label) > n:
                continue
            expected = []
            for qubits in itertools.combinations(range(n), len(label)):
                full = "".join(label[qubits.index(q)] if q in qubits else "I" for q in range(n))
                expected.append((full, tuple(q for q, c in enumerate(full) if c != "I")))
            assert FeatureMapSpec(n, (label,)).terms() == expected, (n, label)


@pytest.mark.parametrize("labels", [("IZ",), ("XI", "ZZ"), ("IY", "Z")])
@pytest.mark.parametrize("n_qubits", [2, 3])
def test_identity_letter_menus_match_oracle(labels, n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    X = rng.uniform(0, math.pi, size=(5, n_qubits))
    for alpha in (0.5, 2.0):
        spec = FeatureMapSpec(n_qubits, labels, reps=2, alpha=alpha)
        states = feature_map_states(spec, X)
        for state, x in zip(states, X):
            np.testing.assert_allclose(state, dense_unitary_oracle(spec, x)[:, 0], atol=1e-12)


def test_canonical_round_trip():
    spec = FeatureMapSpec(2, ("X", "YY"), reps=3, alpha=0.5)
    text = spec.canonical()
    assert text == "paulis=X,YY;reps=3;alpha=0.5;map=havlicek-default"
    assert parse_feature_map(text, 2) == spec


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_feature_map("reps=2", 2)
    with pytest.raises(ValueError):
        parse_feature_map("paulis=Z;reps", 2)
    with pytest.raises(ValueError):
        parse_feature_map("paulis=Z;reps=2;alpha=1.0;map=other", 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(2, ())
    with pytest.raises(ValueError):
        FeatureMapSpec(2, ("ZZZ",))  # label longer than qubit count
    with pytest.raises(ValueError):
        FeatureMapSpec(2, ("Z",), reps=0)
    with pytest.raises(ValueError):
        FeatureMapSpec(2, ("ZQ",))
    with pytest.raises(ValueError):
        FeatureMapSpec(13, ("Z",))


def test_data_map_higher_order_unsupported():
    # the data map covers single qubits and pairs, so longer labels fail at construction
    with pytest.raises(ValueError):
        FeatureMapSpec(3, ("XYZ",))
