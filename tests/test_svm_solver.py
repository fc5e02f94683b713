"""SMO solver tests: analytic cases, KKT feasibility, QP-oracle and scalar-oracle equivalence."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qsvm_boost.boosted_qsvm import GridSpec, initial_weights, update_weights
from qsvm_boost.datasets import make_moons, split_and_scale
from qsvm_boost.kernels import gram_matrix, rbf_gram
from qsvm_boost.svm_solver import (
    DEFAULT_SETTINGS,
    SolverSettings,
    decision_function,
    dual_objective,
    predict,
    svm_from_json,
    svm_to_json,
    train_weighted_svm,
    train_weighted_svms,
)
from helpers import brute_force_qp, random_psd_kernel, reference_smo

TIGHT = SolverSettings(kkt_tolerance=1e-8, max_passes=200_000)


def assert_feasible(model, labels, C, weights=None, tol=1e-9):
    alphas = np.abs(model.dual_coefs)
    w = np.ones(len(alphas)) if weights is None else np.asarray(weights, float)
    t = 2.0 * np.asarray(labels, float) - 1.0
    assert np.all(alphas >= -tol)
    assert np.all(alphas <= C * w + tol)
    assert abs(np.sum(alphas * t)) <= 1e-6
    outside = np.setdiff1d(np.arange(len(alphas)), model.support_indices)
    assert np.all(model.dual_coefs[outside] == 0)


def test_two_point_analytic():
    K = np.eye(2)
    y = np.array([1, 0])
    model = train_weighted_svm(K, y, C=1.0, weights=np.ones(2))
    np.testing.assert_allclose(np.abs(model.dual_coefs), [1.0, 1.0], atol=1e-9)
    assert abs(model.bias) < 1e-9
    np.testing.assert_allclose(decision_function(model, K), [1.0, -1.0], atol=1e-9)
    assert_feasible(model, y, 1.0)


def test_single_class_degenerate():
    K = np.eye(3)
    model = train_weighted_svm(K, np.array([1, 1, 1]), C=5.0)
    assert model.degenerate
    assert np.all(model.dual_coefs == 0)
    assert model.support_indices.size == 0
    assert predict(model, K[0]) == 1
    model0 = train_weighted_svm(K, np.array([0, 0, 0]), C=5.0)
    assert model0.degenerate and predict(model0, K[1]) == 0
    assert decision_function(model0, np.zeros(3)) == -1.0


def test_zero_weight_class_is_degenerate():
    # only class-1 samples carry weight, so the problem is single-class
    K = np.eye(3)
    y = np.array([1, 1, 0])
    model = train_weighted_svm(K, y, C=1.0, weights=np.array([1.0, 1.0, 0.0]))
    assert model.degenerate
    assert predict(model, K[0]) == 1


def test_xor_pattern_matches_qp_oracle():
    pts = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    y = np.array([1, 0, 0, 1])
    K = rbf_gram(pts, gamma=1.0).values
    model = train_weighted_svm(K, y, C=10.0, settings=TIGHT)
    smo_obj = dual_objective(K, y, np.abs(model.dual_coefs))
    oracle_obj, _ = brute_force_qp(K, y, upper=10.0 * np.ones(4))
    assert abs(smo_obj - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj))
    np.testing.assert_array_equal(predict(model, K), y)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(99)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        K = random_psd_kernel(rng, n)
        C = float(rng.uniform(0.5, 50))
        weights = rng.uniform(0.2, 3.0, size=n)
        model = train_weighted_svm(K, labels, C, weights, settings=TIGHT)
        assert model.converged
        assert_feasible(model, labels, C, weights)
        smo_obj = dual_objective(K, labels, np.abs(model.dual_coefs))
        oracle_obj, _ = brute_force_qp(K, labels, upper=C * weights)
        assert abs(smo_obj - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj)), (
            f"trial {trial}: smo={smo_obj!r} oracle={oracle_obj!r}"
        )


def test_weight_scaling_semantics():
    rng = np.random.default_rng(123)
    n = 12
    K = random_psd_kernel(rng, n)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    w = rng.uniform(0.1, 2.0, size=n)
    C = 7.0
    a = train_weighted_svm(K, y, C, w, settings=TIGHT)
    b = train_weighted_svm(K, y, 1.0, C * w, settings=TIGHT)
    np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
    assert a.bias == b.bias
    np.testing.assert_array_equal(a.support_indices, b.support_indices)


def test_zero_weight_samples_never_support_vectors():
    rng = np.random.default_rng(7)
    n = 10
    K = random_psd_kernel(rng, n)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    w = rng.uniform(0.5, 2.0, size=n)
    w[3] = w[6] = 0.0
    y[3], y[6] = 0, 1  # keep both classes among weighted samples
    model = train_weighted_svm(K, y, 10.0, w, settings=TIGHT)
    assert 3 not in model.support_indices and 6 not in model.support_indices
    assert model.dual_coefs[3] == 0 and model.dual_coefs[6] == 0


def test_determinism():
    rng = np.random.default_rng(31)
    K = random_psd_kernel(rng, 20)
    y = rng.integers(0, 2, size=20)
    y[:2] = [0, 1]
    w = rng.uniform(0.1, 3.0, size=20)
    a = train_weighted_svm(K, y, 3.0, w)
    b = train_weighted_svm(K, y, 3.0, w)
    np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
    assert a.bias == b.bias


def test_decision_function_shapes_and_bias_only():
    model = train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0)
    row = np.array([0.5, 0.25])
    assert isinstance(decision_function(model, row), float)
    batch = decision_function(model, np.stack([row, row]))
    assert batch.shape == (2,)
    # zero dual coefficients leave only the bias
    degenerate = train_weighted_svm(np.eye(2), np.array([1, 1]), C=1.0)
    assert decision_function(degenerate, np.array([9.0, 9.0])) == degenerate.bias


def test_single_row_matches_its_row_of_a_batch():
    rng = np.random.default_rng(61)
    K = random_psd_kernel(rng, 15)
    y = rng.integers(0, 2, size=15)
    y[:2] = [0, 1]
    for model in (train_weighted_svm(K, y, 5.0), train_weighted_svm(K, np.ones(15, dtype=int), 5.0)):
        values, labels = decision_function(model, K), predict(model, K)
        for i, row in enumerate(K):
            assert decision_function(model, row) == values[i]
            assert decision_function(model, K[i:i + 1])[0] == values[i]
            np.testing.assert_array_equal(decision_function(model, K[:i + 1]), values[:i + 1])
            assert predict(model, row) == labels[i] and labels[i] in (0, 1)
        # a column of the symmetric K is its row, read with a stride
        np.testing.assert_array_equal(decision_function(model, np.asfortranarray(K)), values)
        assert all(decision_function(model, K[:, i]) == values[i] for i in range(15))


def test_predict_tie_goes_to_one():
    model = train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0)
    assert predict(model, np.array([0.0, 0.0])) == 1  # decision exactly bias = 0
    assert predict(model, np.array([0.3, 0.0])) == 1
    assert predict(model, np.array([0.0, 0.3])) == 0


def test_validation_errors():
    with pytest.raises(ValueError):
        train_weighted_svm(np.eye(3)[:2], np.array([0, 1]), C=1.0)
    with pytest.raises(ValueError):
        train_weighted_svm(np.eye(2), np.array([0, 2]), C=1.0)
    with pytest.raises(ValueError):
        train_weighted_svm(np.eye(2), np.array([0, 1]), C=-1.0)
    with pytest.raises(ValueError):
        train_weighted_svm(np.eye(2), np.array([0, 1]), C=1.0, weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        train_weighted_svm(np.eye(2), np.array([0, 1]), C=1.0, weights=np.zeros(2))
    with pytest.raises(ValueError):
        decision_function(train_weighted_svm(np.eye(2), np.array([0, 1]), C=1.0), np.zeros(3))


@pytest.mark.parametrize("C, weights, message", [
    (math.nan, None, "C must be positive and finite, got nan"),
    (math.inf, [1.0, 1.0, 0.0, 1.0], "C must be positive and finite, got inf"),
    (1.0, [1.0, math.nan, 1.0, 1.0], "weights must be nonnegative and finite"),
    (1.0, [1.0, math.inf, 1.0, 1.0], "weights must be nonnegative and finite"),
])
def test_non_finite_C_or_weight_rejected(C, weights, message):
    # a NaN C gave a "converged" fit with bias inf, a NaN weight left its sample out,
    # and C = inf over a zero weight made that sample's box inf * 0 = NaN
    with pytest.raises(ValueError, match=message):
        train_weighted_svm(np.eye(4), np.array([0, 1, 0, 1]), C, weights)
    with pytest.raises(ValueError, match=message):
        train_weighted_svms([np.eye(4)], np.array([0, 1, 0, 1]), [1.0, C], weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gram_rejected(bad):
    # an inf pair gave a "converged" fit with bias 16.7, and a NaN pair a NaN bias
    # that labelled every row 0
    rng = np.random.default_rng(67)
    K = random_psd_kernel(rng, 6)
    K[1, 4] = K[4, 1] = bad
    y = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="training grams must be finite"):
        train_weighted_svm(K, y, 10.0)
    with pytest.raises(ValueError, match="training grams must be finite"):
        train_weighted_svms([random_psd_kernel(rng, 6), K, np.eye(6)], y, [1.0, 10.0])


def test_non_convergence_flagged():
    rng = np.random.default_rng(41)
    K = random_psd_kernel(rng, 30)
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    model = train_weighted_svm(K, y, 100.0, settings=SolverSettings(kkt_tolerance=1e-12, max_passes=3))
    assert not model.converged  # best iterate still returned
    assert model.dual_coefs.shape == (30,)


def test_json_round_trip_preserves_predictions():
    rng = np.random.default_rng(51)
    K = random_psd_kernel(rng, 15)
    y = rng.integers(0, 2, size=15)
    y[:2] = [0, 1]
    model = train_weighted_svm(K, y, 5.0)
    blob = svm_to_json(model)
    loaded = svm_from_json(blob)
    np.testing.assert_array_equal(loaded.dual_coefs, model.dual_coefs)
    assert loaded.bias == model.bias
    np.testing.assert_array_equal(predict(loaded, K), predict(model, K))
    # through JSON text and back, every field keeps its value, support_indices included
    assert blob["support_indices"] and svm_to_json(svm_from_json(json.loads(json.dumps(blob)))) == blob


@pytest.mark.parametrize("key", ["converged", "degenerate", "support_indices"])
def test_svm_from_json_fills_nothing_in(key):
    blob = svm_to_json(train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0))
    del blob[key]
    with pytest.raises(KeyError, match=key):
        svm_from_json(blob)


@pytest.mark.parametrize("indices", [[0, 1], [1, 0, 2], [0, 1, 2, 3], []])
def test_svm_from_json_rejects_support_indices_off_the_coefficients(indices):
    blob = svm_to_json(train_weighted_svm(np.eye(3), np.array([1, 0, 0]), C=1.0))
    assert blob["support_indices"] == [0, 1, 2]
    blob["support_indices"] = indices
    with pytest.raises(ValueError, match="support_indices .* disagree with the nonzero dual_coefs"):
        svm_from_json(blob)


# --- the batched solver against the scalar oracle ---

@pytest.fixture(scope="module")
def moons_grid():
    """The 36 default-grid 2-qubit Grams of 50 moons training points, their labels and Cs."""
    grid = GridSpec()
    split = split_and_scale(make_moons(150, noise_std=0.3, seed=5), (50, 50, 50), seed=6)
    grams = [gram_matrix(grid.spec_for(labels, alpha, 2), split.train.X)
             for labels in grid.feature_maps for alpha in grid.alphas]
    assert grid.feature_maps[1] == ("ZZ",) and np.linalg.matrix_rank(grams[4].values) == 3
    return grams, split.train.y, grid.Cs


def exit_reason(model, gram, labels, C, weights, settings) -> str:
    """kkt, stuck or max_passes, told apart by one oracle run a step shorter.

    A step that neither converges nor sticks moves a_j, so the shorter run
    returns the same duals only when the fit stuck within its budget.
    """
    if model.converged:
        return "kkt"
    shorter = reference_smo(gram, labels, C, weights,
                            replace(settings, max_passes=settings.max_passes - 1))
    return "stuck" if np.array_equal(shorter.dual_coefs, model.dual_coefs) else "max_passes"


@pytest.mark.parametrize("max_passes", [300, DEFAULT_SETTINGS.max_passes])
@pytest.mark.parametrize("weighting", ["unit", "boosted"])
def test_batch_matches_scalar_oracle(moons_grid, weighting, max_passes):
    grams, labels, Cs = moons_grid
    weights = None
    if weighting == "boosted":
        misclassified = np.random.default_rng(0).random(len(labels)) < 0.3
        weights = update_weights(initial_weights(len(labels)), misclassified, math.log(3.0))
    settings = replace(DEFAULT_SETTINGS, max_passes=max_passes)
    batch = train_weighted_svms(grams, labels, Cs, weights, settings)
    cells = [(gram, C) for gram in grams for C in Cs]
    t = 2.0 * labels - 1.0
    assert len(batch) == len(cells) == 108
    reasons = set()
    for model, (gram, C) in zip(batch, cells):
        expected = reference_smo(gram, labels, C, weights, settings)
        np.testing.assert_array_equal(model.dual_coefs, expected.dual_coefs)
        np.testing.assert_array_equal(np.signbit(model.dual_coefs), np.signbit(expected.dual_coefs))
        assert model.bias == expected.bias and np.signbit(model.bias) == np.signbit(expected.bias)
        assert model.converged == expected.converged
        np.testing.assert_array_equal(model.support_indices, np.flatnonzero(expected.dual_coefs * t > 0))
        assert model.C == expected.C == C and not model.degenerate
        if max_passes < DEFAULT_SETTINGS.max_passes:
            reasons.add(exit_reason(expected, gram, labels, C, weights, settings))
    if max_passes < DEFAULT_SETTINGS.max_passes:
        # rows leave the batch on different steps: stuck ones early, capped ones at the budget
        assert reasons == {"kkt", "stuck", "max_passes"}


def test_batch_shares_checks_and_degenerate_shortcut():
    rng = np.random.default_rng(3)
    grams = [random_psd_kernel(rng, 6) for _ in range(2)]
    labels = np.array([0, 1, 0, 1, 1, 0])
    batch = train_weighted_svms(grams, labels, [1.0, 5.0])
    singles = [train_weighted_svm(K, labels, C) for K in grams for C in (1.0, 5.0)]
    for model, single in zip(batch, singles):
        np.testing.assert_array_equal(model.dual_coefs, single.dual_coefs)
        assert (model.bias, model.C) == (single.bias, single.C)
    degenerate = train_weighted_svms(grams, np.ones(6, dtype=int), [1.0, 5.0])
    assert [m.C for m in degenerate] == [1.0, 5.0, 1.0, 5.0]
    assert all(m.degenerate and m.bias == 1.0 for m in degenerate)
    assert train_weighted_svms([], labels, [1.0]) == []
    with pytest.raises(ValueError, match="does not match gram size"):
        train_weighted_svms([grams[0], np.eye(5)], labels, [1.0])
    with pytest.raises(ValueError, match="C must be positive"):
        train_weighted_svms(grams, labels, [1.0, 0.0])
