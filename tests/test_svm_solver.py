"""SMO solver tests: analytic cases, KKT feasibility, QP-oracle and scalar-oracle equivalence."""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsvm_boost import boosted_qsvm, experiment, svm_solver
from qsvm_boost.boosted_qsvm import GridSpec, initial_weights, update_weights
from qsvm_boost.datasets import make_moons, split_and_scale
from qsvm_boost.kernels import GramCache, gram_matrix, rbf_gram
from qsvm_boost.svm_solver import (
    decision_function,
    dual_objective,
    predict,
    svm_from_json,
    svm_to_json,
    train_problems,
    train_weighted_svm,
)
from helpers import brute_force_qp, random_psd_kernel, reference_pick, reference_smo

DEFAULT_PASSES = svm_solver._MAX_PASSES


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


def test_xor_pattern_matches_qp_oracle(tight_solver):
    pts = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    y = np.array([1, 0, 0, 1])
    K = rbf_gram(pts, gamma=1.0).values
    model = train_weighted_svm(K, y, C=10.0)
    smo_obj = dual_objective(K, y, np.abs(model.dual_coefs))
    oracle_obj, _ = brute_force_qp(K, y, upper=10.0 * np.ones(4))
    assert abs(smo_obj - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj))
    np.testing.assert_array_equal(predict(model, K), y)


def test_oracle_equivalence_randomized(tight_solver):
    rng = np.random.default_rng(99)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        K = random_psd_kernel(rng, n)
        C = float(rng.uniform(0.5, 50))
        weights = rng.uniform(0.2, 3.0, size=n)
        model = train_weighted_svm(K, labels, C, weights)
        assert model.converged
        assert_feasible(model, labels, C, weights)
        smo_obj = dual_objective(K, labels, np.abs(model.dual_coefs))
        oracle_obj, _ = brute_force_qp(K, labels, upper=C * weights)
        assert abs(smo_obj - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj)), (
            f"trial {trial}: smo={smo_obj!r} oracle={oracle_obj!r}"
        )


def test_weight_scaling_semantics(tight_solver):
    rng = np.random.default_rng(123)
    n = 12
    K = random_psd_kernel(rng, n)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    w = rng.uniform(0.1, 2.0, size=n)
    C = 7.0
    a = train_weighted_svm(K, y, C, w)
    b = train_weighted_svm(K, y, 1.0, C * w)
    np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
    assert a.bias == b.bias
    np.testing.assert_array_equal(a.support_indices, b.support_indices)


def test_zero_weight_samples_never_support_vectors(tight_solver):
    rng = np.random.default_rng(7)
    n = 10
    K = random_psd_kernel(rng, n)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    w = rng.uniform(0.5, 2.0, size=n)
    w[3] = w[6] = 0.0
    y[3], y[6] = 0, 1  # keep both classes among weighted samples
    model = train_weighted_svm(K, y, 10.0, w)
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
        train_problems([([np.eye(4)], np.array([0, 1, 0, 1]), [1.0, C], weights)])


@pytest.mark.parametrize("C", [True, "1", None, 1j])
def test_C_must_be_a_real_number(C):
    # C=True was fitted as 1.0, and "1" failed comparing an int with a str
    with pytest.raises(ValueError, match=rf"^C must be a real number, got {re.escape(repr(C))}$"):
        train_weighted_svm(np.eye(2), np.array([0, 1]), C)


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
        train_problems([([random_psd_kernel(rng, 6), K, np.eye(6)], y, [1.0, 10.0], None)])


def test_non_convergence_flagged(monkeypatch):
    monkeypatch.setattr(svm_solver, "_KKT_TOLERANCE", 1e-12)
    monkeypatch.setattr(svm_solver, "_MAX_PASSES", 3)
    rng = np.random.default_rng(41)
    K = random_psd_kernel(rng, 30)
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    model = train_weighted_svm(K, y, 100.0)
    assert not model.converged  # best iterate still returned
    assert model.dual_coefs.shape == (30,)


def test_a_fit_solved_by_its_last_budgeted_step_is_converged(monkeypatch):
    # converged is the returned duals' verdict: one step solves each problem exactly, and with
    # one pass allowed the loops used to flag it unconverged; 9 rows run the lock-step loop
    monkeypatch.setattr(svm_solver, "_MAX_PASSES", 1)
    labels = np.array([0, 1])
    models = [train_weighted_svm(np.eye(2), labels, 10.0),
              *train_problems([([np.eye(2)] * 3, labels, [1.0, 2.0, 10.0], None)])[0]]
    oracles = [reference_smo(np.eye(2), labels, C) for C in (10.0, *[1.0, 2.0, 10.0] * 3)]
    assert len(models) == 10
    for model, oracle in zip(models, oracles):
        assert model.converged and oracle.converged
        np.testing.assert_array_equal(model.dual_coefs, [-1.0, 1.0])
        np.testing.assert_array_equal(oracle.dual_coefs, [-1.0, 1.0])
        assert model.bias == oracle.bias == 0.0


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
    # through JSON text and back, every field keeps its value
    assert svm_to_json(svm_from_json(json.loads(json.dumps(blob)))) == blob


@pytest.mark.parametrize("key", ["converged", "degenerate", "label_convention"])
def test_svm_from_json_fills_nothing_in(key):
    # a field the model is built from is a KeyError; one only its writer sets fails the write-back
    blob = svm_to_json(train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0))
    del blob[key]
    with pytest.raises(ValueError if key == "label_convention" else KeyError, match=key):
        svm_from_json(blob)


@pytest.mark.parametrize("indices", [[0, 1], [1, 0, 2], [0, 1, 2, 3], [], [0, 1, 2]])
def test_svm_from_json_rejects_support_indices_off_the_coefficients(indices):
    # the support follows from dual_coefs, so no entry stores it: even the true [0, 1, 2] is refused
    blob = svm_to_json(train_weighted_svm(np.eye(3), np.array([1, 0, 0]), C=1.0))
    assert "support_indices" not in blob
    blob["support_indices"] = indices
    with pytest.raises(ValueError, match=r"stored keys \['support_indices'\] differ from what their writer"):
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
    return [gram.values for gram in grams], split.train.y, grid.Cs


def kkt_gap(K, labels, dual_coefs, upper) -> float:
    """Maximal KKT violation of returned duals, from the Gram alone (u = K @ dual_coefs);
    -inf when a side has no candidate."""
    t = 2.0 * labels - 1.0
    alpha, neg_e = dual_coefs * t, t - K @ dual_coefs
    up = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
    low = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
    return neg_e[up].max() - neg_e[low].min() if up.any() and low.any() else -np.inf


def exit_reason(model, gram, labels, C, weights) -> str:
    """kkt, stuck or max_passes, told apart by one oracle run a step shorter.

    A step that neither converges nor sticks moves a_j, so the shorter run
    returns the same duals only when the fit stuck within its budget.
    """
    if model.converged:
        return "kkt"
    shorter = reference_smo(gram, labels, C, weights, max_passes=svm_solver._MAX_PASSES - 1)
    return "stuck" if np.array_equal(shorter.dual_coefs, model.dual_coefs) else "max_passes"


# at 300 passes every row that leaves by the budget leaves the batch; at 3000 boosted rows
# leave the lone-row loop by every exit (test_every_exit_is_taken_in_the_batch_and_alone)
@pytest.mark.parametrize("max_passes", [300, 3000, DEFAULT_PASSES])
@pytest.mark.parametrize("weighting", ["unit", "boosted"])
def test_batch_matches_scalar_oracle(moons_grid, weighting, max_passes, monkeypatch):
    grams, labels, Cs = moons_grid
    weights = None
    if weighting == "boosted":
        misclassified = np.random.default_rng(0).random(len(labels)) < 0.3
        weights = update_weights(initial_weights(len(labels)), misclassified, math.log(3.0))
    monkeypatch.setattr(svm_solver, "_MAX_PASSES", max_passes)
    batch = train_problems([(grams, labels, Cs, weights)])[0]
    cells = [(gram, C) for gram in grams for C in Cs]
    t = 2.0 * labels - 1.0
    assert len(batch) == len(cells) == 108
    reasons = set()
    for model, (gram, C) in zip(batch, cells):
        expected = reference_smo(gram, labels, C, weights)
        np.testing.assert_array_equal(model.dual_coefs, expected.dual_coefs)
        np.testing.assert_array_equal(np.signbit(model.dual_coefs), np.signbit(expected.dual_coefs))
        assert model.bias == expected.bias and np.signbit(model.bias) == np.signbit(expected.bias)
        assert model.converged == expected.converged
        upper = C * (np.ones(len(labels)) if weights is None else weights)
        assert model.converged == (kkt_gap(gram, labels, model.dual_coefs, upper)
                                   <= svm_solver._KKT_TOLERANCE)
        np.testing.assert_array_equal(model.support_indices, np.flatnonzero(expected.dual_coefs * t > 0))
        assert model.C == expected.C == C and not model.degenerate
        if max_passes < DEFAULT_PASSES:
            reasons.add(exit_reason(expected, gram, labels, C, weights))
    if max_passes < DEFAULT_PASSES:
        # rows leave the batch on different steps: stuck ones early, capped ones at the budget
        assert reasons == {"kkt", "stuck", "max_passes"}


def test_batch_matches_scalar_oracle_on_boosting_weights(monkeypatch):
    # the default study's first moons dataset boosts its boxes to tens of thousands, where
    # rows run longest alone; every third row of every round, offset by the round, is checked
    config = experiment.ExperimentConfig()
    family = config.families.index("moons")
    data = make_moons(config.n_points, seed=experiment.derive_seed(config.master_seed, family, 0, 0),
                      **config.dataset_params["moons"])
    split = split_and_scale(data, config.split_sizes,
                            seed=experiment.derive_seed(config.master_seed, family, 0, 1))
    calls, batched = [], boosted_qsvm.train_problems

    def recorded(problems):
        solved = batched(problems)
        calls.extend((*problem, models) for problem, models in zip(problems, solved))
        return solved

    monkeypatch.setattr(boosted_qsvm, "train_problems", recorded)
    boosted_qsvm.fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y,
                             config.grid, config.max_rounds, GramCache())
    assert len(calls) == 7 and max(Cs[-1] * weights.max() for _, _, Cs, weights, _ in calls) > 4e4
    for k, (grams, labels, Cs, weights, models) in enumerate(calls):
        for r in range(k % 3, len(models), 3):
            expected = reference_smo(grams[r // len(Cs)], labels, Cs[r % len(Cs)], weights)
            got = models[r]
            np.testing.assert_array_equal(got.dual_coefs, expected.dual_coefs)
            np.testing.assert_array_equal(np.signbit(got.dual_coefs), np.signbit(expected.dual_coefs))
            assert got.bias == expected.bias and np.signbit(got.bias) == np.signbit(expected.bias)
            assert got.converged == expected.converged


def test_batch_shares_checks_and_degenerate_shortcut():
    rng = np.random.default_rng(3)
    grams = [random_psd_kernel(rng, 6) for _ in range(2)]
    labels = np.array([0, 1, 0, 1, 1, 0])
    batch = train_problems([(grams, labels, [1.0, 5.0], None)])[0]
    singles = [train_weighted_svm(K, labels, C) for K in grams for C in (1.0, 5.0)]
    for model, single in zip(batch, singles):
        np.testing.assert_array_equal(model.dual_coefs, single.dual_coefs)
        assert (model.bias, model.C) == (single.bias, single.C)
    degenerate = train_problems([(grams, np.ones(6, dtype=int), [1.0, 5.0], None)])[0]
    assert [m.C for m in degenerate] == [1.0, 5.0, 1.0, 5.0]
    assert all(m.degenerate and m.bias == 1.0 for m in degenerate)
    assert train_problems([([], labels, [1.0], None)])[0] == []
    with pytest.raises(ValueError, match="does not match gram size"):
        train_problems([([grams[0], np.eye(5)], labels, [1.0], None)])
    with pytest.raises(ValueError, match="C must be positive"):
        train_problems([(grams, labels, [1.0, 0.0], None)])


def test_problems_solved_together_keep_their_lone_models(moons_grid):
    # two moons grids with their own labels and boosted boxes, and a one-class problem, in one
    # call: every problem's models are its lone call's, bit for bit
    grams, labels, Cs = moons_grid
    other = split_and_scale(make_moons(150, noise_std=0.3, seed=9), (50, 50, 50), seed=10)
    other_grams = [gram_matrix(GridSpec().spec_for(("X", "XX"), alpha, 2), other.train.X).values
                   for alpha in (0.5, 2.0)]
    assert not np.array_equal(other.train.y, labels)
    boosted = initial_weights(len(labels))
    for k, rate in enumerate((0.3, 0.2)):
        boosted = update_weights(boosted, np.random.default_rng(k).random(len(labels)) < rate, math.log(99.0))
    assert 5e3 < boosted.max() <= 1e4
    problems = [(grams[::3], labels, Cs, boosted),
                (other_grams, other.train.y, [1.0, 100.0], None),
                (grams[:2], np.ones(len(labels), dtype=int), [10.0], boosted)]
    together = svm_solver.train_problems(problems)
    assert [len(models) for models in together] == [36, 4, 2]
    assert all(model.degenerate for model in together[2])
    for problem, models in zip(problems, together):
        for model, alone in zip(models, train_problems([problem])[0], strict=True):
            assert model.dual_coefs.tobytes() == alone.dual_coefs.tobytes()
            assert model.bias.hex() == alone.bias.hex()
            assert (model.C, model.converged, model.degenerate) == (alone.C, alone.converged, alone.degenerate)


def test_a_call_refuses_an_invalid_problem_as_a_lone_call_does(moons_grid):
    grams, labels, Cs = moons_grid
    bad_weights = np.ones(len(labels))
    bad_weights[3] = np.nan
    valid = (grams[:2], labels, Cs, None)
    for invalid in [(grams[:2], labels, Cs, bad_weights), (grams[:2], labels, [1.0, -1.0], None),
                    ([np.eye(len(labels) - 1)], labels[:-1] * 2, Cs, None)]:
        with pytest.raises(ValueError) as alone:
            train_problems([invalid])
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            svm_solver.train_problems([valid, invalid])
    with pytest.raises(ValueError, match=r"must share their training size, got \[49, 50\]"):
        svm_solver.train_problems([valid, ([np.eye(49)], labels[:-1], Cs, None)])


def test_every_exit_is_taken_in_the_batch_and_alone(moons_grid, monkeypatch):
    # a row leaves the lock-step batch, or the lone-row loop once few rows are live, by
    # converging (kkt), by a step that left a_j where it was (stuck) or by its budget
    grams, labels, Cs = moons_grid
    pair_step, smo_row = svm_solver._pair_step, svm_solver._smo_row
    steps, alone = [0], []

    def counted_step(*args):
        steps[0] += 1
        return pair_step(*args)

    def recorded_row(K, t, box, alpha, u, passes, tol):
        steps[0] = 0
        smo_row(K, t, box, alpha, u, passes, tol)
        ok = reference_pick(t, alpha, u, box)[2] <= tol  # the row's verdict, as the final pick reads it
        alone.append("kkt" if ok else "batch budget" if passes == 0
                     else "max_passes" if steps[0] == passes else "stuck")

    monkeypatch.setattr(svm_solver, "_pair_step", counted_step)
    monkeypatch.setattr(svm_solver, "_smo_row", recorded_row)
    misclassified = np.random.default_rng(0).random(len(labels)) < 0.3
    boosted = update_weights(initial_weights(len(labels)), misclassified, math.log(3.0))
    in_batch, in_loop = set(), set()
    for weights, max_passes in [(None, 300), (boosted, 300), (boosted, 3000)]:
        alone.clear()
        monkeypatch.setattr(svm_solver, "_MAX_PASSES", max_passes)
        models = train_problems([(grams, labels, Cs, weights)])[0]
        converged = sum(model.converged for model in models)
        # a row still live when the batch spends its budget reaches the loop with no pass left
        budget = alone.count("batch budget")
        in_loop |= set(alone) - {"batch budget"}
        in_batch |= {reason for reason, count in [
            ("kkt", converged - alone.count("kkt")),
            ("stuck", len(models) - converged - budget - alone.count("stuck") - alone.count("max_passes")),
            ("max_passes", budget),
        ] if count > 0}
    assert in_batch == in_loop == {"kkt", "stuck", "max_passes"}


# the scalar step's inputs, drawn from few values so that its max and min calls tie, with
# +-0.0 among them: Python's max and min keep their first argument on a tie, and on a signed
# zero that is a choice of bits
_STEP_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 4.0)
_KERNEL_VALUES = st.sampled_from([0.0, 1e-12, 5e-13, 2e-12, 0.5, 1.0]) | st.floats(-2.0, 2.0)
_STEP_ROWS = st.lists(st.tuples(
    st.sampled_from([1e-3, 0.5, 1.0, 2.0]) | st.floats(1e-3, 8.0),  # gap
    st.tuples(_STEP_VALUES, _STEP_VALUES),  # a_i, a_j
    st.tuples(_STEP_VALUES, _STEP_VALUES),  # C w_i, C w_j
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
    st.tuples(_KERNEL_VALUES, _KERNEL_VALUES),  # K_ii, K_jj
    _KERNEL_VALUES,  # K_ij
), min_size=1, max_size=40)
_TIE_ROWS = [
    (1.0, (0.0, -0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 1.0), 0.0),  # lo = max(0.0, -0.0)
    (1.0, (0.0, -0.0), (-0.0, 0.0), (1.0, -1.0), (1.0, 1.0), 0.0),  # hi = min(0.0, -0.0)
    (1.0, (-0.0, -0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.0),  # hi = a_i + a_j = -0.0
    (2.0, (0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 1.0), 0.0),  # a_j clipped at hi
    (1.0, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0), 0.0),  # zero-weight boxes
    (1.0, (0.5, 0.5), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 1.0),  # eta == 0
    (1.0, (0.5, 0.5), (1.0, 1.0), (-1.0, 1.0), (1e-12, 0.0), 0.0),  # eta == the floor
    (1.0, (0.5, 0.5), (1.0, 1.0), (1.0, -1.0), (0.0, 0.0), 1.0),  # eta < 0
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_STEP_ROWS)
@example(_TIE_ROWS)
@example(_TIE_ROWS * 3)  # 24 rows: a vector loop's body and its tail
def test_pair_steps_match_the_scalar_step_bit_for_bit(rows):
    # a flat row must not divide by its eta: a RuntimeWarning fails the test
    # a, box, t and k_diag go in as contiguous (2, rows), as the batch takes them from its arrays
    gap, a, box, t, k_diag, k_ij = (np.ascontiguousarray(np.array(column, dtype=float).T) for column in zip(*rows))
    batch = svm_solver._pair_steps(gap, a, box, t, k_diag, k_ij)
    scalar = np.array([svm_solver._pair_step(*row) for row in rows]).T
    for got, want in zip(batch, scalar):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@st.composite
def _pick_states(draw):
    """(t, alpha, u, box) of a few rows: alpha exactly 0, at its box or inside, zero boxes and +-0 in u."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = st.lists(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),  # C w: zero weights are common
        st.sampled_from(["zero", "box", "inside"]),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0),  # u: t - u ties and zeros
    ), min_size=n, max_size=n), min_size=rows, max_size=rows)
    drawn = draw(cells)
    box, where, u = (np.array([[cell[k] for cell in row] for row in drawn]) for k in range(3))
    alpha = np.where(where == "zero", 0.0, np.where(where == "box", box, box / 2))
    t = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    return t, alpha, u, box


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pick_states())
@example((np.array([1.0, -1.0, 1.0]), np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),  # no up candidate;
          np.array([[1.0, -0.0, 0.0], [0.0, -0.0, 1.0]]), np.array([[1.0, 1.0, 2.0], [0.0, 0.0, 0.0]])))  # none at all
@example((np.array([-1.0, -1.0]), np.array([[0.0, 0.0]]), np.array([[0.0, -0.0]]), np.array([[1.0, 1.0]])))  # no up
@example((np.array([1.0, 1.0, -1.0]), np.array([[0.0, 0.5, 1.0]]), np.array([[1.0, 1.0, -1.0]]),
          np.array([[1.0, 1.0, 1.0]])))  # neg_e ties at +0.0 on both sides
def test_pick_matches_the_oracle_masks_bit_for_bit(state):
    t, alpha, u, box = state
    rows, n = alpha.shape
    values, off = np.empty((2, rows, n)), np.empty((2, rows, n), dtype=bool)
    ij, gap = svm_solver._pick(np.tile(t, (rows, 1)), np.tile(t < 0, (rows, 1)), alpha, u, box,
                               values, off, np.arange(0, 2 * rows * n, n).reshape(2, rows))
    for r in range(rows):
        i, j, want = reference_pick(t, alpha[r], u[r], box[r])
        assert (ij[0, r], ij[1, r]) == (i, j)
        assert gap[r] == want
        assert np.signbit(gap[r]) == np.signbit(want)
