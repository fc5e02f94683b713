"""Statevector simulator tests, checked against the dense-matrix oracle."""
import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvm_boost import kernels, quantum_sim
from qsvm_boost.boosted_qsvm import GridSpec
from qsvm_boost.kernels import gram_matrix
from qsvm_boost.quantum_sim import (
    _HADAMARD,
    MAX_ORACLE_QUBITS,
    MAX_QUBITS,
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
    PAIR_LABELS,
    SINGLE_LABELS,
    phase_align,
    random_feature_map_spec,
    random_statevector,
    reference_apply_pauli,
    reference_hadamard,
    reference_real_hadamard,
    reference_rotate,
    reference_states,
)


def random_batch(rng, n_qubits, rows=4):
    return np.array([random_statevector(rng, n_qubits) for _ in range(rows)])


def hadamard(psi):
    """The Hadamard layer on psi with a scratch of its size: a contiguous psi is overwritten, so a
    caller that compares the result with its input passes a copy."""
    return _hadamard_all_batch(psi, np.empty(2 * psi.size))


def rotate(psi, letters, thetas):
    """One rotation of every row, through the rows-last layout _rotate_batch works in."""
    thetas = np.asarray(thetas, dtype=float)
    v = np.ascontiguousarray(np.ascontiguousarray(psi).view(np.float64).T)
    out = _rotate_batch(v, _rotation_gather(letters), np.cos(thetas), np.sin(thetas), np.empty_like(v))
    return np.ascontiguousarray(out.T).view(complex)


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
    for n_qubits in (2.0, True, "2"):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            FeatureMapSpec(n_qubits, ("Z",))
    assert FeatureMapSpec(np.int64(2), ("Z",)).terms() == [("ZI", (0,)), ("IZ", (1,))]


@pytest.mark.parametrize("n_qubits, labels, hadamard_led", [(2, ("Z", "ZZ"), True), (8, ("Z",), True),
                                                             (3, ("X", "XX"), False)])
def test_the_plan_starts_from_h_on_zero_in_place_of_an_opening_hadamard_layer(n_qubits, labels, hadamard_led):
    # above two qubits an opening X run's own H cancels the first Hadamard layer
    _, start, _, steps = quantum_sim._circuit(n_qubits, labels, 2)
    zero = np.zeros((1, 1 << n_qubits), dtype=complex)
    zero[0, 0] = 1.0
    np.testing.assert_array_equal(start, hadamard(zero.copy()) if hadamard_led else zero)
    assert steps[0][0] != "hadamard"
    assert not start.flags.writeable


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
    out = hadamard(np.array([[1, 0]], dtype=complex))
    np.testing.assert_allclose(out[0], [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_hadamard_uniform_two_qubits():
    out = hadamard(np.array([[1, 0, 0, 0]], dtype=complex))
    np.testing.assert_allclose(out[0], [0.5] * 4, atol=1e-15)


def test_hadamard_self_inverse():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        psi = random_batch(rng, n)
        back = hadamard(hadamard(psi.copy()))  # the layer writes into its input: psi stays apart
        assert not np.shares_memory(back, psi)
        np.testing.assert_allclose(back, psi, atol=1e-12)


def test_hadamard_matches_dense_layer():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        psi = random_batch(rng, n)
        dense = psi @ _kron_chain([_HADAMARD] * n).T
        np.testing.assert_allclose(hadamard(psi.copy()), dense, atol=1e-13)


def test_hadamard_matches_oracle_wide_and_non_contiguous():
    rng = np.random.default_rng(14)
    batch = random_batch(rng, 4, rows=6)
    for psi in (random_batch(rng, 12, rows=3), batch[::2], np.asfortranarray(batch)):
        given = psi.copy()  # the layer overwrites a contiguous psi
        out = hadamard(psi)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, reference_hadamard(given), atol=1e-13)
        if not psi.flags.c_contiguous:  # laid out afresh, so the input is left as it was
            np.testing.assert_array_equal(psi, given)


def test_hadamard_bits_match_oracle_up_to_two_qubits():
    # one or two qubits means at most one qubit per matmul: the same two-term sums as the oracles,
    # the sign of zero included (at one qubit the second matmul is by the identity); the complex
    # oracle rounds a lone row otherwise, so it checks batches
    rng = np.random.default_rng(15)
    for n in (1, 2):
        for rows in (1, 50, 500):
            parts = random_batch(rng, n, rows=rows).view(np.float64)
            parts[rng.random(parts.shape) < 0.2] = -0.0
            psi = parts.view(complex)
            out = hadamard(psi.copy()).view(np.float64)
            expected = reference_real_hadamard(psi)
            np.testing.assert_array_equal(out, expected)
            np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
            if rows > 1:
                np.testing.assert_array_equal(out, reference_hadamard(psi).view(np.float64))


# --- Pauli rotations ---

def test_rotation_theta_zero_is_identity():
    rng = np.random.default_rng(5)
    psi = random_batch(rng, 2)
    np.testing.assert_array_equal(rotate(psi, "XY", np.zeros(len(psi))), psi)


def test_rotation_z_on_plus_state():
    plus = hadamard(np.array([[1, 0]], dtype=complex))
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


@pytest.mark.parametrize("n_qubits", [1, 2, 5])
def test_states_own_their_memory_and_leave_inputs_alone(n_qubits):
    # the rotations write into reused buffers; no call's result may be another's
    rng = np.random.default_rng(40 + n_qubits)
    spec = FeatureMapSpec(n_qubits, ("X", "Y", "Z"), reps=3, alpha=1.5)
    X = rng.uniform(0, math.pi, size=(4, n_qubits))
    before = X.copy()
    first, second = feature_map_states(spec, X), feature_map_states(spec, X)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, X) and not np.shares_memory(second, X)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(X, before)
    first[:] = 0.0
    np.testing.assert_array_equal(second, feature_map_states(spec, X))


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


# --- one phase per same-letter run above two qubits ---

STATE_TOL = 1e-12  # elementwise, chosen before the merged phases were measured
MIXED_LABELS = tuple(label for label in PAIR_LABELS if len(set(label)) == 2)
IDENTITY_LABELS = ("IZ", "XI", "IY")


def count_rotations(monkeypatch) -> list:
    """Record every per-term rotation feature_map_states makes from now on."""
    calls = []
    rotate = quantum_sim._rotate_batch

    def counting(*args):
        calls.append(args)
        return rotate(*args)

    monkeypatch.setattr(quantum_sim, "_rotate_batch", counting)
    return calls


@pytest.mark.parametrize("n_qubits, rows", [(3, 10), (5, 10), (8, 6), (MAX_QUBITS, 2)])
def test_states_match_oracle_path_above_two_qubits(n_qubits, rows):
    # at 12 qubits the 66 ZZ terms give the largest phase sums
    X = np.random.default_rng(60 + n_qubits).uniform(0, math.pi, size=(rows, n_qubits))
    menus = list(GridSpec().feature_maps)
    if n_qubits < MAX_QUBITS:
        menus += [(label,) for label in MIXED_LABELS + IDENTITY_LABELS] + [("Z", "XX", "ZZ")]
    for labels in menus:
        for reps in (1, 2, 3):
            spec = FeatureMapSpec(n_qubits, labels, reps=reps, alpha=2.0)
            np.testing.assert_allclose(
                feature_map_states(spec, X), reference_states(spec, X), rtol=0, atol=STATE_TOL,
                err_msg=spec.canonical(),
            )


@pytest.mark.parametrize("n_qubits", [3, 8])
def test_same_letter_runs_make_no_rotation_and_mixed_labels_one_per_term(n_qubits, monkeypatch):
    calls = count_rotations(monkeypatch)
    X = np.random.default_rng(70).uniform(0, math.pi, size=(4, n_qubits))
    for labels in (*GridSpec().feature_maps, IDENTITY_LABELS, ("Z", "XX", "ZZ")):
        feature_map_states(FeatureMapSpec(n_qubits, labels, reps=3), X)
    assert calls == []
    for label in MIXED_LABELS:
        for reps in (1, 3):
            calls.clear()
            feature_map_states(FeatureMapSpec(n_qubits, ("Z", label, "X"), reps=reps), X)
            assert len(calls) == reps * math.comb(n_qubits, 2), (label, reps)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_every_term_rotates_up_to_two_qubits(n_qubits, monkeypatch):
    calls = count_rotations(monkeypatch)
    X = np.random.default_rng(71).uniform(0, math.pi, size=(4, n_qubits))
    for spec in default_grid_specs(n_qubits):
        calls.clear()
        feature_map_states(spec, X)
        assert len(calls) == spec.reps * len(spec.terms())


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, 8])
def test_a_row_keeps_its_bits_in_any_batch(n_qubits):
    # batches of 1, 3, 7 and 500 rows; the first 7 rows are those of a 7-row draw
    X = np.random.default_rng(72).uniform(0, math.pi, size=(500, n_qubits))
    for labels in (*GridSpec().feature_maps, ("Z", "XZ")):
        if max(map(len, labels)) > n_qubits:
            continue
        spec = FeatureMapSpec(n_qubits, labels, reps=2, alpha=1.5)
        batch = feature_map_states(spec, X[:7])
        np.testing.assert_array_equal(batch, feature_map_states(spec, X)[:7])
        np.testing.assert_array_equal(batch[2:5], feature_map_states(spec, X[2:5]))
        for row, x in zip(batch, X):
            np.testing.assert_array_equal(row, feature_map_states(spec, x[None])[0])


# --- half-register phase factors ---

def full_register_phase(theta: np.ndarray, masks: np.ndarray, n_qubits: int) -> np.ndarray:
    """exp(i * Theta @ B) over the whole register, B[t, k] = (-1)^popcount(k & mask_t)."""
    B = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n_qubits) & masks[:, None]) & 1)
    return np.exp(1j * theta.T @ B)


@pytest.mark.parametrize("n_qubits", [3, 4, 5, 8, MAX_QUBITS])
def test_phase_factor_matches_the_full_register_exponential(n_qubits):
    # at 3 qubits the high half holds pair terms and the low half none
    X = np.random.default_rng(74 + n_qubits).uniform(0, math.pi, size=(6, n_qubits))
    menus = [("Z",), ("ZZ",), ("Z", "ZZ"), ("X", "XX"), ("Y", "YY"), ("IZ",), ("IX", "XX"), ("ZI", "Z", "IZ")]
    for labels in menus:
        supports = [support for _, support in FeatureMapSpec(n_qubits, labels).terms()]
        _, _, groups, _ = quantum_sim._circuit(n_qubits, labels, 1)
        angles = 2.0 * np.array([havlicek_data_map(support, X) for support in supports])
        (op, terms), = [(op, terms) for kind, op, terms in groups if kind == "phase"]
        theta = angles[terms]
        masks = np.array([sum(1 << q for q in support) for support in supports[terms]])
        factor = quantum_sim._phase_factor(theta, *op)
        error = np.abs(factor - full_register_phase(theta, masks, n_qubits))
        # two orders of summing T terms differ by up to T * eps * sum_t |theta_t| (first order), plus
        # an ulp per unit factor; from 8 qubits on, the sums reach hundreds of radians and the BLAS
        # reference alone is up to 4.6e-13 from the exactly summed phase, so 1e-13 holds only below
        summed = np.finfo(float).eps * (n_qubits + len(masks) * np.abs(theta).sum(axis=0))[:, None]
        assert (error <= (1e-13 if n_qubits < 8 else summed)).all(), (labels, error.max())
        np.testing.assert_allclose(np.abs(factor), 1.0, rtol=0, atol=1e-13, err_msg=str(labels))


def exactly_summed_phase(theta: np.ndarray, masks: np.ndarray, n_qubits: int) -> np.ndarray:
    """exp(i * sum_t theta_t B[t, k]) with each row's sum exact: math.fsum rounds it once, the
    rounding's remainder (summed again) enters as its own factor, and cmath.exp takes each part."""
    B = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n_qubits) & masks[:, None]) & 1)
    out = np.empty((theta.shape[1], 1 << n_qubits), dtype=complex)
    for r, row in enumerate(theta.T):
        for k, parts in enumerate((row[:, None] * B).T.tolist()):
            phase = math.fsum(parts)
            out[r, k] = cmath.exp(1j * phase) * cmath.exp(1j * math.fsum([*parts, -phase]))
    return out


@pytest.mark.parametrize("n_qubits, rows", [(8, 6), (MAX_QUBITS, 2)])
def test_phase_factor_stays_within_a_few_ulps_per_term_of_the_exact_phase(n_qubits, rows):
    # each factor cos + i b sin is within about an ulp of exp(+-i theta_t), and each of the at most
    # T complex products adds about one more, so T terms stay within 4 T eps however large their sum
    X = np.random.default_rng(76 + n_qubits).uniform(0, math.pi, size=(rows, n_qubits))
    for labels in GridSpec().feature_maps:
        spec = FeatureMapSpec(n_qubits, labels, alpha=2.0)
        supports = [support for _, support in spec.terms()]
        angles = spec.alpha * np.array([havlicek_data_map(support, X) for support in supports])
        _, _, groups, _ = quantum_sim._circuit(n_qubits, labels, spec.reps)
        for op, terms in [(op, terms) for kind, op, terms in groups if kind == "phase"]:
            masks = np.array([sum(1 << q for q in support) for support in supports[terms]])
            error = np.abs(quantum_sim._phase_factor(angles[terms], *op)
                           - exactly_summed_phase(angles[terms], masks, n_qubits))
            bound = 4 * len(masks) * np.finfo(float).eps
            assert error.max() <= bound, (labels, len(masks), error.max() / np.finfo(float).eps)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 8, MAX_QUBITS])
def test_an_empty_batch_gives_empty_states_and_grams(n_qubits):
    rows = np.random.default_rng(75).uniform(0, math.pi, size=(3, n_qubits))
    empty = np.empty((0, n_qubits))
    for labels in GridSpec().feature_maps:
        if max(map(len, labels)) > n_qubits:
            continue
        spec = FeatureMapSpec(n_qubits, labels)
        assert feature_map_states(spec, empty).shape == (0, 1 << n_qubits)
        assert gram_matrix(spec, empty).values.shape == (0, 0)
        assert gram_matrix(spec, empty, rows).values.shape == (0, 3)
        assert gram_matrix(spec, rows, empty).values.shape == (3, 0)


_ORACLE_LABELS = SINGLE_LABELS + PAIR_LABELS + IDENTITY_LABELS


@st.composite
def _oracle_cases(draw):
    n_qubits = draw(st.integers(3, MAX_ORACLE_QUBITS))
    spec = FeatureMapSpec(
        n_qubits,
        tuple(draw(st.lists(st.sampled_from(_ORACLE_LABELS), min_size=1, max_size=3))),
        reps=draw(st.integers(1, 3)),
        alpha=draw(st.floats(0.0, 2.0, exclude_min=True)),
    )
    x = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n_qubits, max_size=n_qubits))
    return spec, np.array(x)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_oracle_cases())
def test_states_match_the_dense_oracle_above_two_qubits(case):
    # no phase alignment: the merged phases must carry the oracle's global phase too
    spec, x = case
    np.testing.assert_allclose(
        feature_map_states(spec, x[None])[0], dense_unitary_oracle(spec, x)[:, 0], rtol=0, atol=1e-10
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
    # every field is required: a truncated text fills nothing in, and the error names the text
    for text, reason in (("reps=2", "'paulis'"),
                         ("paulis=Z;alpha=1.0;map=havlicek-default", "'reps'"),
                         ("paulis=Z;reps=2;map=havlicek-default", "'alpha'"),
                         ("paulis=Z;reps", "invalid literal for int")):
        with pytest.raises(ValueError, match=f"feature-map text {re.escape(repr(text))} has a missing "
                                             f"or malformed field: {reason}"):
            parse_feature_map(text, 2)
    # bundles store this text, so a missing map=, another data map, an unknown field or a
    # second value for one is refused, not dropped: only the spec's own text loads
    for text in ("paulis=Z;reps=2;alpha=1.0",
                 "paulis=Z;reps=2;alpha=1.0;map=other",
                 "paulis=Z;reps=2;alpha=1.0;map=havlicek-default;foo=1",
                 "paulis=Z;paulis=ZZ;reps=2;alpha=1.0;map=havlicek-default"):
        with pytest.raises(ValueError, match=f"{re.escape(repr(text))} is not its spec's canonical text"):
            parse_feature_map(text, 2)


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_alpha(alpha):
    # a NaN alpha used to load and simulate all-NaN states
    with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
        parse_feature_map(f"paulis=Z;reps=2;alpha={alpha};map=havlicek-default", 2)


@pytest.mark.parametrize("alpha, text", [(1.5, "1.5"), (np.float64(1.5), "1.5"), (2, "2.0"), (np.int64(2), "2.0")],
                         ids=["float", "numpy-float", "int", "numpy-int"])
def test_alpha_is_a_float_whose_text_parses_back(alpha, text):
    # a numpy alpha wrote np.float64(1.5) into the canonical text, and 2 and 2.0 made two cache keys
    spec = FeatureMapSpec(2, ("Z", "ZZ"), alpha=alpha)
    assert type(spec.alpha) is float and spec.alpha == alpha
    assert spec.canonical() == f"paulis=Z,ZZ;reps=2;alpha={text};map=havlicek-default"
    assert parse_feature_map(spec.canonical(), 2) == spec
    assert parse_feature_map(spec.canonical(), 2).canonical() == spec.canonical()
    cache, X = kernels.GramCache(), np.array([[0.3, 1.1], [2.0, 0.4]])
    assert cache.fidelity(spec, X) is cache.fidelity(FeatureMapSpec(2, ("Z", "ZZ"), alpha=float(alpha)), X)
    assert len(cache) == 1


@pytest.mark.parametrize("alpha", [True, np.bool_(False), "1.5", None, 1j])
def test_alpha_must_be_a_real_number(alpha):
    with pytest.raises(ValueError, match="alpha must be a real number"):
        FeatureMapSpec(2, ("Z",), alpha=alpha)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_states_refuse_a_non_finite_sample(bad):
    # a NaN or inf row simulated with a RuntimeWarning, which fails a test, so the refusal comes first
    X = np.array([[0.5, 1.0], [2.0, bad]])
    with pytest.raises(ValueError, match="^samples must be finite$"):
        feature_map_states(FeatureMapSpec(2, ("Z", "ZZ")), X)
    with pytest.raises(ValueError, match="^samples must be finite$"):
        gram_matrix(FeatureMapSpec(2, ("Z", "ZZ")), X[:1], X)


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
