"""Fidelity and classical kernel tests, including Gram validity and caching."""
import fractions
import math

import numpy as np
import pytest

from qsvm_boost.kernels import GramCache, gram_matrix, linear_gram, rbf_gram
from qsvm_boost.quantum_sim import FeatureMapSpec, dense_unitary_oracle
from helpers import count_simulations, linear_kernel, random_feature_map_spec, rbf_kernel


def fidelity(spec: FeatureMapSpec, x, y) -> float:
    """The fidelity kernel of one pair, as the 1x1 cross Gram of two 1-row inputs."""
    return float(gram_matrix(spec, [x], [y]).values[0, 0])


def test_fidelity_self_is_one():
    spec = FeatureMapSpec(2, ("Z", "ZZ"))
    x = np.array([0.7, 2.1])
    assert abs(fidelity(spec, x, x) - 1.0) < 1e-12


def test_fidelity_alpha_zero_is_one():
    spec = FeatureMapSpec(2, ("Z", "ZZ"), alpha=0.0)
    assert abs(fidelity(spec, [0.1, 0.2], [2.0, 3.0]) - 1.0) < 1e-12


def test_fidelity_matches_oracle_columns():
    spec = FeatureMapSpec(2, ("Z", "ZZ"), reps=2, alpha=1.0)
    x, y = np.array([0.5, 1.2]), np.array([2.0, 0.3])
    col_x = dense_unitary_oracle(spec, x)[:, 0]
    col_y = dense_unitary_oracle(spec, y)[:, 0]
    expected = abs(np.vdot(col_x, col_y)) ** 2
    assert abs(fidelity(spec, x, y) - expected) < 1e-10


def test_fidelity_symmetry():
    rng = np.random.default_rng(3)
    spec = FeatureMapSpec(2, ("X", "YY"), alpha=1.5)
    for _ in range(20):
        x, y = rng.uniform(0, math.pi, 2), rng.uniform(0, math.pi, 2)
        assert abs(fidelity(spec, x, y) - fidelity(spec, y, x)) < 1e-12


def test_fidelity_dimension_mismatch():
    spec = FeatureMapSpec(2, ("Z",))
    with pytest.raises(ValueError):
        gram_matrix(spec, [[0.1]], [[0.2, 0.3]])


def test_gram_single_sample():
    spec = FeatureMapSpec(2, ("Z",))
    g = gram_matrix(spec, np.array([[0.3, 0.4]]))
    np.testing.assert_allclose(g.values, [[1.0]], atol=1e-12)


def test_self_gram_symmetric_unit_diagonal():
    rng = np.random.default_rng(10)
    spec = FeatureMapSpec(2, ("Z", "ZZ"), alpha=1.0)
    X = rng.uniform(0, math.pi, size=(3, 2))
    g = gram_matrix(spec, X).values
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)


def test_self_gram_psd():
    rng = np.random.default_rng(20)
    spec = FeatureMapSpec(2, ("Z", "XX"), alpha=1.5)
    X = rng.uniform(0, math.pi, size=(10, 2))
    g = gram_matrix(spec, X).values
    assert np.linalg.eigvalsh(g).min() >= -1e-9


def test_gram_validity_randomized():
    rng = np.random.default_rng(30)
    for _ in range(100):
        spec = random_feature_map_spec(rng, max_qubits=2)
        X = rng.uniform(0, math.pi, size=(8, spec.n_qubits))
        g = gram_matrix(spec, X).values
        assert np.array_equal(g, g.T)
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-12
        assert g.min() >= -1e-12 and g.max() <= 1 + 1e-12
        assert np.linalg.eigvalsh(g).min() >= -1e-9


def test_gram_cross_matches_entries():
    rng = np.random.default_rng(40)
    spec = FeatureMapSpec(2, ("Z", "YY"))
    X_a = rng.uniform(0, math.pi, size=(4, 2))
    X_b = rng.uniform(0, math.pi, size=(3, 2))
    g = gram_matrix(spec, X_a, X_b).values
    assert g.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert abs(g[i, j] - fidelity(spec, X_a[i], X_b[j])) < 1e-12


@pytest.mark.parametrize("low, high", [(0.0, math.pi), (-1.0, 1.0), (0.0, 2 * math.pi), (-3.0, 3.0)])
def test_y_yy_at_alpha_is_zz_at_twice_alpha_only_at_two_reps(low, high):
    # on two qubits the default menu's (ZZ, 1.0) and (Y,YY, 0.5) are one kernel, and so
    # are (ZZ, 2.0) and (Y,YY, 1.0); measured within 2.4e-15, pinned at 1e-12
    X = np.random.default_rng(80).uniform(low, high, size=(30, 2))
    for alpha in (0.5, 1.0, 0.37):
        gap = {reps: np.abs(gram_matrix(FeatureMapSpec(2, ("Y", "YY"), reps, alpha), X).values
                            - gram_matrix(FeatureMapSpec(2, ("ZZ",), reps, 2 * alpha), X).values).max()
               for reps in (1, 2, 3)}
        assert gap[2] <= 1e-12, (alpha, gap)
        assert gap[1] > 0.5 and gap[3] > 0.5, (alpha, gap)


def test_rbf_kernel_values():
    def rbf(x, y, gamma):
        return float(rbf_gram([x], [y], gamma=gamma).values[0, 0])

    assert rbf([0.0, 0.0], [0.0, 0.0], gamma=2.0) == 1.0
    assert abs(rbf([0.0, 0.0], [1.0, 0.0], gamma=1.0) - math.exp(-1)) < 1e-15
    # monotone decreasing in gamma for distinct points
    values = [rbf([0, 0], [1, 1], gamma=g) for g in (0.1, 1.0, 10.0, 100.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_rbf_kernel_gamma_guard():
    # a NaN gamma gave an all-NaN Gram and an infinite one a NaN diagonal
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            rbf_gram([[0.0], [2.0]], [[1.0]], gamma=gamma)


@pytest.mark.parametrize("gamma", [True, np.bool_(False), "0.5", None, 1j])
def test_rbf_gamma_must_be_a_real_number(gamma):
    # gamma=True was taken as 1 and named the Gram rbf;gamma=True
    with pytest.raises(ValueError, match="gamma must be a real number"):
        rbf_gram([[0.0], [2.0]], [[1.0]], gamma=gamma)


@pytest.mark.parametrize("gamma, text", [(np.float64(0.5), "0.5"), (np.float32(0.5), "0.5"),
                                         (2, "2.0"), (np.int64(2), "2.0"), (fractions.Fraction(1, 2), "0.5")])
def test_rbf_gamma_is_stored_as_a_float(gamma, text):
    # a numpy, integer or Fraction gamma gives the Gram of the float it equals
    X = [[0.0], [0.4], [1.0]]
    np.testing.assert_array_equal(rbf_gram(X, gamma=gamma).values, rbf_gram(X, gamma=float(text)).values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_classical_grams_refuse_non_finite_samples(kernel, bad):
    gram = {"rbf": lambda *rows: rbf_gram(*rows, gamma=0.5), "linear": linear_gram}[kernel]
    good, poisoned = np.array([[0.5, 1.0], [2.0, 0.1]]), np.array([[0.5, 1.0], [bad, 0.1]])
    for rows in [(poisoned,), (poisoned, good), (good, poisoned)]:
        with pytest.raises(ValueError, match="^samples must be finite$"):
            gram(*rows)


def test_linear_kernel_values():
    def linear(x, y):
        return float(linear_gram([x], [y]).values[0, 0])

    assert linear([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert linear([1.0, 2.0], [1.0, 2.0]) == 5.0
    rng = np.random.default_rng(50)
    for _ in range(10):
        x, y, a = rng.normal(size=2), rng.normal(size=2), float(rng.normal())
        assert abs(linear(a * x, y) - a * linear(x, y)) < 1e-12


def test_classical_gram_matches_scalar():
    rng = np.random.default_rng(60)
    X = rng.normal(size=(5, 2))
    gr = rbf_gram(X, gamma=0.5).values
    gl = linear_gram(X).values
    for i in range(5):
        for j in range(5):
            assert abs(gr[i, j] - rbf_kernel(X[i], X[j], gamma=0.5)) < 1e-12
            assert abs(gl[i, j] - linear_kernel(X[i], X[j])) < 1e-12
    assert np.array_equal(gr, gr.T)
    assert np.array_equal(gl, gl.T)


@pytest.mark.parametrize("kernel, n_features", [
    ("fidelity", 2), ("fidelity", 3), ("fidelity", 8), ("rbf", 2), ("linear", 2),
])
def test_self_gram_is_the_mirrored_upper_triangle_of_the_cross_gram(kernel, n_features):
    # every kernel shares one assembly: a self Gram is its cross Gram's upper triangle, mirrored.
    # The cross Gram takes X itself, not a copy: numpy computes X @ X.T by a symmetric BLAS
    # product, whose bits can differ from the general product's, and a self Gram keeps them.
    X = np.random.default_rng(90).uniform(0, math.pi, size=(30, n_features))
    spec = FeatureMapSpec(n_features, ("Z", "YY"), alpha=1.5)
    build = {
        "fidelity": lambda *rows: gram_matrix(spec, *rows),
        "rbf": lambda *rows: rbf_gram(*rows, gamma=0.7),
        "linear": linear_gram,
    }[kernel]
    self_gram, cross = build(X), build(X, X)
    c = cross.values
    np.testing.assert_array_equal(self_gram.values, np.triu(c) + np.triu(c, 1).T)


def test_cache_transparency():
    rng = np.random.default_rng(70)
    spec = FeatureMapSpec(2, ("Z", "ZZ"), alpha=0.5)
    X = rng.uniform(0, math.pi, size=(6, 2))
    cache = GramCache()
    cached = cache.fidelity(spec, X)
    direct = gram_matrix(spec, X)
    assert np.array_equal(cached.values, direct.values)
    assert cache.fidelity(spec, X) is cached  # hit returns the stored matrix
    assert len(cache) == 1
    cache.fidelity(spec, X[:3], X)
    assert len(cache) == 2


def test_cache_distinguishes_specs_and_data():
    rng = np.random.default_rng(80)
    X = rng.uniform(0, math.pi, size=(4, 2))
    cache = GramCache()
    a = cache.fidelity(FeatureMapSpec(2, ("Z",), alpha=1.0), X)
    b = cache.fidelity(FeatureMapSpec(2, ("Z",), alpha=1.5), X)
    assert not np.array_equal(a.values, b.values)
    assert len(cache) == 2


def test_cache_reuses_train_states_once_per_row_set(monkeypatch):
    # a search's train Gram then its val-vs-train Gram, then batches scored against the train rows
    rng = np.random.default_rng(90)
    spec = FeatureMapSpec(2, ("X", "ZZ"), alpha=1.5)
    X_train, X_val, X_new = (rng.uniform(0, math.pi, size=(n, 2)) for n in (6, 4, 5))
    requests = [(X_train, None), (X_val, X_train), (X_new, X_train), (X_new[:2], X_train)]
    fresh = [gram_matrix(spec, X_a, X_b) for X_a, X_b in requests]
    calls = count_simulations(monkeypatch)
    cache = GramCache()
    grams = [cache.fidelity(spec, X_a, X_b) for X_a, X_b in requests]
    for gram, expected in zip(grams, fresh):
        assert np.array_equal(gram.values, expected.values)
    assert [len(X) for _, X, _ in calls] == [6, 4, 5, 2]  # the train rows once, each other side once
    assert np.array_equal(calls[0][1], X_train)
    assert len(cache) == len(requests)  # the kept states are not an entry
    memo = calls[0][2]
    assert not memo.flags.writeable
    with pytest.raises(ValueError):
        memo[0, 0] = 0.0
    # a stored Gram is returned without simulating anything
    assert cache.fidelity(spec, X_val, X_train) is grams[1]
    assert len(calls) == 4


def test_cache_state_memo_is_keyed_on_spec_and_rows(monkeypatch):
    rng = np.random.default_rng(91)
    spec, other_alpha = FeatureMapSpec(2, ("Z", "ZZ"), alpha=1.0), FeatureMapSpec(2, ("Z", "ZZ"), alpha=1.5)
    X_val, X_train, X_moved = (rng.uniform(0, math.pi, size=(5, 2)) for _ in range(3))
    requests = [(spec, X_val, X_train), (spec, X_val, X_moved), (other_alpha, X_val, X_moved),
                (other_alpha, X_moved, None), (spec, X_moved, None)]
    fresh = [gram_matrix(s, X_a, X_b).values for s, X_a, X_b in requests]
    calls = count_simulations(monkeypatch)
    cache = GramCache()
    for (s, X_a, X_b), expected in zip(requests, fresh):
        assert np.array_equal(cache.fidelity(s, X_a, X_b).values, expected)
    names = {"val": X_val, "train": X_train, "moved": X_moved}
    simulated = [(s.alpha, next(name for name, X in names.items() if np.array_equal(X, rows)))
                 for s, rows, _ in calls]
    # new X_b rows of the same shape, and a new alpha, are simulated again; the
    # self Gram on the rows just kept for alpha 1.5 simulates nothing
    assert simulated == [(1.0, "train"), (1.0, "val"), (1.0, "moved"), (1.0, "val"),
                         (1.5, "moved"), (1.5, "val"), (1.0, "moved")]
    assert len(cache) == len(requests)

