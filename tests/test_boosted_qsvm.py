"""Boosting-loop tests: round mechanics, stopping, exclusion, pruning, voting."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qsvm_boost.boosted_qsvm import (
    BoostedEnsemble,
    BoostingRound,
    GridSpec,
    STOP_MAPS_EXHAUSTED,
    STOP_MAX_REACHED,
    STOP_PERFECT,
    STOP_WORSE_THAN_RANDOM,
    GridSearchResult,
    best_cell,
    decisions,
    ensemble_from_json,
    ensemble_to_json,
    estimator_error,
    estimator_weight,
    fit_boosted,
    grid_search_best,
    initial_weights,
    menu_id,
    predict_ensemble_batch,
    prune_by_validation,
    result_from_json,
    result_to_json,
    update_weights,
)
from qsvm_boost.datasets import make_moons, make_xor, split_and_scale
from qsvm_boost.kernels import GramCache, GramMatrix, gram_matrix
from qsvm_boost.quantum_sim import FeatureMapSpec
from qsvm_boost.svm_solver import TrainedSVM, decision_function, predict, train_weighted_svm
from helpers import count_simulations, count_solver_calls

LN3 = math.log(3.0)


def constant_model(label: int, train_size: int = 1) -> TrainedSVM:
    """Stub classifier that always predicts the given label."""
    return TrainedSVM(
        dual_coefs=np.zeros(train_size),
        bias=1.0 if label == 1 else -1.0,
        C=1.0,
        degenerate=True,
    )


def stub_round(label: int, err_m: float) -> BoostingRound:
    """A constant voter whose vote weight is ``estimator_weight(err_m)``: ln 3 at 0.25, ln 9 at 0.1."""
    return BoostingRound(
        model=constant_model(label),
        feature_map=FeatureMapSpec(2, ("Z",)),
        err_m=err_m,
        val_accuracy=0.75,
    )


def small_split(kind="moons", n=60, seed=3, noise=0.25, sizes=(24, 18, 18)):
    if kind == "moons":
        data = make_moons(n, noise_std=noise, seed=seed)
    else:
        data = make_xor(n, margin=0.0, seed=seed)
    return split_and_scale(data, sizes, seed=seed + 1)


SMALL_GRID = GridSpec(
    feature_maps=(("Z", "ZZ"), ("X", "XX"), ("Y", "YY")),
    alphas=(1.0, 2.0),
    Cs=(1.0, 10.0),
)


# --- round mechanics ---

def test_estimator_error_values():
    ones = np.ones(4)
    assert estimator_error(np.array([1, 0, 1, 0]), np.array([1, 0, 1, 0]), ones) == 0.0
    assert estimator_error(np.array([1, 0, 1, 0]), np.array([1, 0, 1, 1]), ones) == 0.25
    assert estimator_error(np.array([0, 1]), np.array([1, 1]), np.array([3.0, 1.0])) == 0.75


def test_estimator_error_length_guard():
    with pytest.raises(ValueError):
        estimator_error(np.array([1, 0]), np.array([1]), np.array([1.0]))


def test_estimator_weight_values():
    assert abs(estimator_weight(0.25) - LN3) < 1e-12
    assert abs(estimator_weight(0.1) - math.log(9.0)) < 1e-12
    assert 0 < estimator_weight(0.499999) < 1e-5


def test_estimator_weight_contract():
    for bad in (0.0, 0.5, 0.7, -0.1, 1.0):
        with pytest.raises(ValueError):
            estimator_weight(bad)


def test_update_weights():
    w = np.array([1.0, 1.0])
    np.testing.assert_array_equal(update_weights(w, np.array([False, False]), LN3), w)
    np.testing.assert_allclose(update_weights(w, np.array([True, False]), LN3), [3.0, 1.0])
    np.testing.assert_array_equal(update_weights(w, np.array([True, True]), 0.0), w)
    # misclassified entries strictly increase for any positive alpha_m
    out = update_weights(np.array([0.5, 2.0]), np.array([True, True]), 0.3)
    assert np.all(out > np.array([0.5, 2.0]))


def test_initial_weights():
    np.testing.assert_array_equal(initial_weights(3), [1.0, 1.0, 1.0])


# --- weighted vote ---

def vote_one_point(ensemble: BoostedEnsemble) -> tuple[float, int]:
    """Score and label of the stub rounds' vote on one point (1-row X_new and X_train)."""
    point = np.zeros((1, 2))
    scores, labels = predict_ensemble_batch(ensemble, point, point)
    assert scores.shape == labels.shape == (1,)
    return float(scores[0]), int(labels[0])


def test_predict_ensemble_single_round():
    ens = BoostedEnsemble((stub_round(1, 0.25),), 1, STOP_MAX_REACHED)
    score, label = vote_one_point(ens)
    assert score == 1.0 and label == 1


def test_predict_ensemble_tie_goes_to_one():
    ens = BoostedEnsemble((stub_round(1, 0.25), stub_round(0, 0.25)), 2, STOP_MAX_REACHED)
    score, label = vote_one_point(ens)
    assert score == 0.5 and label == 1


def test_predict_ensemble_log_weights():
    rounds = (stub_round(1, 0.25), stub_round(0, 0.1), stub_round(1, 0.25))
    ens = BoostedEnsemble(rounds, 3, STOP_MAX_REACHED)
    score, label = vote_one_point(ens)
    assert abs(score - 2 * LN3 / (2 * LN3 + math.log(9.0))) < 1e-12
    assert score == 0.5 and label == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_predict_ensemble_refuses_a_non_finite_point(bad):
    # such a point scored 0.0 and took label 0, with only a RuntimeWarning
    ens = BoostedEnsemble((stub_round(1, 0.25),), 1, STOP_MAX_REACHED)
    with pytest.raises(ValueError, match="^samples must be finite$"):
        predict_ensemble_batch(ens, np.array([[0.5, 1.0], [bad, 1.0]]), np.array([[0.2, 0.3]]))


def test_predict_ensemble_respects_pruning():
    rounds = (stub_round(1, 0.25), stub_round(0, 0.1))
    ens = BoostedEnsemble(rounds, 1, STOP_MAX_REACHED)
    score, label = vote_one_point(ens)
    assert score == 1.0 and label == 1  # round 2 ignored


# --- deciding through the observable W = sum_i c_i |psi_i><psi_i| ---

OBSERVABLE_SPECS = (
    FeatureMapSpec(1, ("X",)),
    FeatureMapSpec(1, ("Y", "Z"), alpha=1.5),
    FeatureMapSpec(2, ("Z", "ZZ")),
    FeatureMapSpec(2, ("X", "YY"), reps=3, alpha=0.5),
    FeatureMapSpec(3, ("X", "Y", "ZZ")),
    FeatureMapSpec(3, ("Z", "XX"), alpha=2.0),
)


def fitted_cells(spec: FeatureMapSpec, seed: int, train_rows: int = 30):
    """``(X_train, [cell fitted on random labels, degenerate cell])`` on random rows."""
    rng = np.random.default_rng(seed)
    X_train = rng.uniform(0.0, math.pi, size=(train_rows, spec.n_qubits))
    k_train = gram_matrix(spec, X_train)
    y = rng.integers(0, 2, size=train_rows)
    y[:2] = [0, 1]
    models = (train_weighted_svm(k_train, y, 10.0), train_weighted_svm(k_train, np.ones(train_rows, dtype=int), 10.0))
    return X_train, [GridSearchResult(model, spec, 1.0) for model in models]


@pytest.mark.parametrize("spec", OBSERVABLE_SPECS, ids=lambda s: f"{s.n_qubits}q-{menu_id(s.labels)}")
def test_observable_decision_matches_the_kernel_route(spec):
    X_train, (cell, degenerate) = fitted_cells(spec, seed=71 + spec.n_qubits)
    assert np.count_nonzero(cell.model.dual_coefs) > 1 and degenerate.model.degenerate
    X_new = np.random.default_rng(7).uniform(0.0, math.pi, size=(40, spec.n_qubits))
    k_new = gram_matrix(spec, X_new, X_train).values
    for model_cell in (cell, degenerate):
        np.testing.assert_allclose(decisions(model_cell, X_new, X_train, GramCache()),
                                   decision_function(model_cell.model, k_new), rtol=0, atol=1e-12)
    # W = 0: the decision is the bias exactly
    assert np.all(decisions(degenerate, X_new, X_train, GramCache()) == degenerate.model.bias)


@pytest.mark.parametrize("spec", OBSERVABLE_SPECS[1::2], ids=lambda s: f"{s.n_qubits}q-{menu_id(s.labels)}")
def test_observable_decision_keeps_its_bits_in_any_batch(spec):
    X_train, (cell, _) = fitted_cells(spec, seed=81 + spec.n_qubits)
    X_new = np.random.default_rng(8).uniform(0.0, math.pi, size=(33, spec.n_qubits))
    cache = GramCache()
    batch = decisions(cell, X_new, X_train, cache)
    np.testing.assert_array_equal(decisions(cell, X_new, X_train, GramCache()), batch)  # a fresh cache
    for i, x in enumerate(X_new):
        assert decisions(cell, x, X_train, cache)[0] == batch[i]  # alone
        assert decisions(cell, X_new[i:i + 1], X_train, GramCache())[0] == batch[i]
        np.testing.assert_array_equal(decisions(cell, X_new[:i + 1], X_train, cache), batch[:i + 1])
        np.testing.assert_array_equal(decisions(cell, X_new[i:], X_train, cache), batch[i:])


def test_a_model_refuses_a_train_set_of_another_size():
    split = small_split()
    grid = GridSpec(feature_maps=(("Z", "ZZ"),), alphas=(1.0,), Cs=(10.0,))
    ens = fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y, grid, max_rounds=1)
    short = split.train.X[:20]
    with pytest.raises(ValueError, match=r"^training size 20 does not match the model's 24 dual coefficients$"):
        predict_ensemble_batch(ens, split.test.X, short)
    rnd = ens.rounds[0]
    with pytest.raises(ValueError, match=r"^kernel row length 20 does not match training size 24$"):
        decision_function(rnd.model, gram_matrix(rnd.feature_map, split.test.X, short).values)


def test_scoring_batches_simulates_the_train_rows_once_per_round(monkeypatch):
    # each round's W is built once per cache; a batch simulates only its own rows, once per round
    split = small_split(kind="xor", n=90, seed=9, sizes=(36, 27, 27))
    ens = fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID, max_rounds=3)
    ens = replace(ens, pruned_length=len(ens.rounds))
    rounds = len(ens.rounds)
    assert rounds >= 2 and len({r.feature_map for r in ens.rounds}) == rounds
    batches = np.random.default_rng(5).uniform(0.0, math.pi, size=(4, 25, 2))
    fresh = [predict_ensemble_batch(ens, X, split.train.X, GramCache()) for X in batches]
    calls, cache = count_simulations(monkeypatch), GramCache()
    for X, (scores, labels) in zip(batches, fresh):
        got_scores, got_labels = predict_ensemble_batch(ens, X, split.train.X, cache)
        np.testing.assert_array_equal(got_scores, scores)
        np.testing.assert_array_equal(got_labels, labels)
    simulated = [rows.tobytes() for _, rows, _ in calls]
    assert simulated.count(split.train.X.tobytes()) == rounds
    assert all(simulated.count(X.tobytes()) == rounds for X in batches)
    assert len(simulated) == rounds * (len(batches) + 1)
    assert len(cache) == rounds  # one W per round; a batch adds no entry


# --- grid search ---

def test_grid_search_singleton():
    split = small_split()
    grid = GridSpec(feature_maps=(("Z", "ZZ"),), alphas=(1.0,), Cs=(10.0,))
    result = grid_search_best(
        split.train.X, split.train.y, initial_weights(len(split.train.y)),
        split.val.X, split.val.y, grid,
    )
    assert result.grid_point == ("Z,ZZ", 1.0, 10.0)


@pytest.mark.parametrize("weighting", ["unit", "boosted"])
def test_grid_search_tie_breaking_order(weighting):
    # recompute every cell's validation accuracy naively, one fit per cell; the
    # winner must be the first cell reaching the maximum in (menu, alpha, C) order
    from qsvm_boost.kernels import gram_matrix
    from qsvm_boost.svm_solver import train_weighted_svm

    split = small_split(seed=2)
    X_train, y_train = split.train.X, split.train.y
    X_val, y_val = split.val.X, split.val.y
    weights = initial_weights(len(y_train))
    if weighting == "boosted":  # a later round's weights: every third sample up-weighted
        weights = update_weights(weights, np.arange(len(y_train)) % 3 == 0, LN3)
    expected = None
    for labels in SMALL_GRID.feature_maps:
        for alpha in SMALL_GRID.alphas:
            spec = SMALL_GRID.spec_for(labels, alpha, 2)
            k_train = gram_matrix(spec, X_train)
            k_val = gram_matrix(spec, X_val, X_train)
            for C in SMALL_GRID.Cs:
                model = train_weighted_svm(k_train, y_train, C, weights)
                acc = float(np.mean(predict(model, k_val.values) == y_val))
                if expected is None or acc > expected[0]:
                    expected = (acc, (menu_id(labels), alpha, C))
    result = grid_search_best(X_train, y_train, weights, X_val, y_val, SMALL_GRID)
    assert result.val_accuracy == expected[0]
    assert result.grid_point == expected[1]
    # ties exist in this grid, so the rule is actually exercised
    assert result.val_accuracy < 1.0 or result.grid_point[1] == SMALL_GRID.alphas[0]


def test_grid_search_simulates_each_row_set_once_per_spec(monkeypatch):
    # each spec's train states serve both its train Gram and its val-vs-train Gram
    calls = count_simulations(monkeypatch)
    split = small_split()
    grid = GridSpec()
    grid_search_best(split.train.X, split.train.y, initial_weights(len(split.train.y)),
                     split.val.X, split.val.y, grid)
    specs = len(grid.feature_maps) * len(grid.alphas)
    assert specs == 36
    simulated = [(spec.canonical(), rows.tobytes()) for spec, rows, _ in calls]
    assert len(simulated) == len(set(simulated)) == 2 * specs


def test_grid_search_exclusion():
    split = small_split()
    weights = initial_weights(len(split.train.y))
    excluded = {"Z,ZZ"}
    result = grid_search_best(
        split.train.X, split.train.y, weights, split.val.X, split.val.y,
        SMALL_GRID, excluded,
    )
    assert result.grid_point[0] != "Z,ZZ"
    with pytest.raises(ValueError):
        grid_search_best(
            split.train.X, split.train.y, weights, split.val.X, split.val.y,
            SMALL_GRID, {menu_id(fm) for fm in SMALL_GRID.feature_maps},
        )


def test_grid_search_propagates_degenerate_train():
    rng = np.random.default_rng(14)
    X_train = rng.uniform(0, math.pi, size=(10, 2))
    y_train = np.ones(10, dtype=int)  # single class
    X_val = rng.uniform(0, math.pi, size=(6, 2))
    y_val = np.array([1, 1, 1, 0, 0, 1])
    result = grid_search_best(
        X_train, y_train, initial_weights(10), X_val, y_val, SMALL_GRID
    )
    assert result.model.degenerate
    assert result.val_accuracy == pytest.approx(4 / 6)


# --- grid-search memo ---

def memo_search_args(split) -> dict:
    return dict(X_train=split.train.X, y_train=split.train.y,
                weights=initial_weights(len(split.train.y)), X_val=split.val.X,
                y_val=split.val.y, grid=SMALL_GRID, excluded=set())


def test_grid_search_memo_hit_returns_stored_result(monkeypatch):
    calls = count_solver_calls(monkeypatch)
    split = small_split(seed=5)
    cache = GramCache()
    args = memo_search_args(split)
    first = grid_search_best(**args, cache=cache)
    assert len(calls) == 1
    # equal content in new objects is the same search
    copies = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in args.items()}
    copies.update(grid=replace(SMALL_GRID), excluded=frozenset())
    assert grid_search_best(**copies, cache=cache) is first
    assert len(calls) == 1


def _flip_first(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a[0] = 1 - a[0]
    return a


def _nudge_first(X: np.ndarray) -> np.ndarray:
    X = X.copy()
    X[0, 0] += 1e-3
    return X


@pytest.mark.parametrize("part", ["X_train", "y_train", "weights", "X_val", "y_val",
                                  "grid", "excluded"])
def test_grid_search_memo_misses_on_any_changed_part(monkeypatch, part):
    calls = count_solver_calls(monkeypatch)
    split = small_split(seed=5)
    cache = GramCache()
    args = memo_search_args(split)
    first = grid_search_best(**args, cache=cache)
    if part == "excluded":
        args["excluded"].add("Z,ZZ")  # grown in place, as fit_boosted grows its set
    else:
        args[part] = {
            "X_train": _nudge_first, "X_val": _nudge_first,
            "y_train": _flip_first, "y_val": _flip_first,
            "weights": lambda w: update_weights(w, np.arange(len(w)) == 0, LN3),
            "grid": lambda g: replace(g, Cs=(1.0, 100.0)),
        }[part](args[part])
    result = grid_search_best(**args, cache=cache)
    assert len(calls) == 2 and result is not first
    fresh = grid_search_best(**args, cache=GramCache())
    assert (result.grid_point, result.val_accuracy) == (fresh.grid_point, fresh.val_accuracy)
    assert np.array_equal(result.model.dual_coefs, fresh.model.dual_coefs)


def test_best_cell_first_of_tied_accuracies_wins():
    # cell "a" scores 0.25 at both Cs, cells "b" and "c" score 0.75 at both: the first
    # 0.75 in cells-outer, Cs-inner order wins, ahead of its later C and the later cell
    y_val = np.array([1, 1, 1, 0])
    cells = [(key, GramMatrix(np.zeros((4, 1)))) for key in ("a", "b", "c")]
    low, high = constant_model(0), constant_model(1)
    models = [low, low, high, high, high, high]
    key, C, model, accuracy = best_cell(cells, (1.0, 10.0), models, y_val)
    assert (key, C, accuracy) == ("b", 1.0, 0.75) and model is models[2]
    key, C, model, _ = best_cell(cells, (1.0, 10.0), [low, high] + models[2:], y_val)
    assert (key, C) == ("a", 10.0)
    with pytest.raises(ValueError):  # one model per (cell, C)
        best_cell(cells, (1.0, 10.0), models[:5], y_val)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(alphas=(0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(alphas=(2.5,))
    with pytest.raises(ValueError):
        GridSpec(Cs=(0.5,))
    with pytest.raises(ValueError):
        GridSpec(Cs=(200.0,))
    with pytest.raises(ValueError):
        GridSpec(feature_maps=())
    with pytest.raises(ValueError):
        GridSpec(feature_maps=(("Z",), ("Z",)))
    for bad_label in ("Q", "I", "II", "ZZZ", ""):
        with pytest.raises(ValueError):
            GridSpec(feature_maps=((bad_label,), ("Z",)))
    for bad_reps in (0, -1):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            GridSpec(reps=bad_reps)
    assert GridSpec(alphas=(2.0, 0.5)).alphas == (0.5, 2.0)  # stored sorted


# --- boosting loop ---

def test_perfect_first_round():
    # well-separated clusters: the first grid winner classifies train perfectly
    rng = np.random.default_rng(1)
    X0 = rng.normal((0.5, 0.5), 0.05, size=(16, 2))
    X1 = rng.normal((2.5, 2.5), 0.05, size=(16, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * 16 + [1] * 16)
    ens = fit_boosted(X[:20], y[:20], X[20:], y[20:], SMALL_GRID, max_rounds=5)
    assert ens.stop_reason == STOP_PERFECT
    assert len(ens.rounds) == 1 and ens.pruned_length == 1
    assert ens.rounds[0].err_m == 0.0 and ens.rounds[0].alpha_m == 1.0


def test_max_rounds_one():
    split = small_split(noise=0.35, seed=8)
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID, max_rounds=1
    )
    assert len(ens.rounds) == 1
    if ens.stop_reason == STOP_MAX_REACHED:
        assert 0.0 < ens.rounds[0].err_m < 0.5


def test_worse_than_random_first_round_kept():
    # identical training points make every kernel row equal, so any fitted
    # classifier is constant; on balanced labels its weighted train error is
    # exactly 0.5, firing the worse-than-random stop on round one
    X_train = np.full((24, 2), 1.0)
    y_train = np.array([0, 1] * 12)
    X_val = np.full((10, 2), 1.0)
    y_val = np.array([0, 1] * 5)
    grid = GridSpec(feature_maps=(("Z",), ("ZZ",)), alphas=(1.0,), Cs=(1.0,))
    ens = fit_boosted(X_train, y_train, X_val, y_val, grid, max_rounds=5)
    assert ens.stop_reason == STOP_WORSE_THAN_RANDOM
    assert len(ens.rounds) == 1
    assert ens.rounds[0].err_m >= 0.5
    assert ens.rounds[0].alpha_m == 1.0


def test_maps_exhausted():
    split = small_split(noise=0.35, seed=8)
    grid = GridSpec(feature_maps=(("Z", "ZZ"), ("X", "XX")), alphas=(1.0,), Cs=(10.0,))
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, grid, max_rounds=8
    )
    if ens.stop_reason == STOP_MAPS_EXHAUSTED:
        assert len(ens.rounds) == 2
    assert len(ens.rounds) <= 2  # can never exceed the menu size


def test_feature_map_exclusion_uniqueness():
    split = small_split(kind="xor", n=80, seed=12, sizes=(30, 25, 25))
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID, max_rounds=6
    )
    ids = [r.grid_point[0] for r in ens.rounds]
    assert len(ids) == len(set(ids))


def test_stopping_soundness():
    for seed in (3, 8, 12, 21):
        split = small_split(noise=0.3, seed=seed)
        ens = fit_boosted(
            split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID, max_rounds=3
        )
        if ens.stop_reason == STOP_PERFECT:
            assert ens.rounds[-1].err_m <= 0.0
        else:
            assert all(r.err_m > 0.0 for r in ens.rounds)
        if ens.stop_reason != STOP_WORSE_THAN_RANDOM:
            assert all(r.err_m < 0.5 for r in ens.rounds)


def test_single_round_equivalence():
    split = small_split(seed=4)
    grid = GridSpec(feature_maps=(("Z", "ZZ"),), alphas=(1.0,), Cs=(10.0,))
    cache = GramCache()
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, grid,
        max_rounds=1, cache=cache,
    )
    assert ens.pruned_length == 1
    _, ensemble_labels = predict_ensemble_batch(ens, split.test.X, split.train.X, cache)
    rnd = ens.rounds[0]
    k_test = cache.fidelity(rnd.feature_map, split.test.X, split.train.X)
    np.testing.assert_array_equal(ensemble_labels, predict(rnd.model, k_test.values))


def test_pruning_dominance_and_argmin():
    split = small_split(kind="xor", n=90, seed=9, sizes=(36, 27, 27))
    cache = GramCache()
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID,
        max_rounds=3, cache=cache,
    )
    # recompute prefix validation errors independently from per-round votes
    votes = np.array([
        predict(r.model, cache.fidelity(r.feature_map, split.val.X, split.train.X).values)
        for r in ens.rounds
    ])
    alphas = np.array([r.alpha_m for r in ens.rounds])
    errors = []
    for k in range(1, len(ens.rounds) + 1):
        score = alphas[:k] @ votes[:k] / alphas[:k].sum()
        errors.append(np.mean((score >= 0.5).astype(int) != split.val.y))
    expected = int(np.argmin(errors)) + 1
    assert ens.pruned_length == expected
    assert errors[ens.pruned_length - 1] <= errors[-1]


def test_predict_labels_give_the_prefix_error_prune_chose():
    split = small_split(kind="xor", n=90, seed=9, sizes=(36, 27, 27))
    cache = GramCache()
    ens = fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID,
                      max_rounds=3, cache=cache)
    assert len(ens.rounds) >= 2
    errors = []
    for k in range(1, len(ens.rounds) + 1):
        _, labels = predict_ensemble_batch(replace(ens, pruned_length=k), split.val.X, split.train.X, cache)
        errors.append(float(np.mean(labels != split.val.y)))
    assert ens.pruned_length == int(np.argmin(errors)) + 1
    _, labels = predict_ensemble_batch(ens, split.val.X, split.train.X, cache)
    assert float(np.mean(labels != split.val.y)) == min(errors)


def test_prune_tie_goes_to_shortest():
    # constant voters: every prefix predicts all-ones, so all prefix errors
    # tie and the shortest prefix must win
    rounds = (stub_round(1, 0.25), stub_round(1, 0.25), stub_round(1, 0.25))
    ens = BoostedEnsemble(rounds, 3, STOP_MAX_REACHED)
    X_val = np.zeros((4, 2))
    y_val = np.array([1, 0, 1, 1])
    X_train = np.zeros((1, 2))
    pruned = prune_by_validation(ens, X_val, y_val, X_train)
    assert pruned.pruned_length == 1


_VAL_GRID = GridSpec(feature_maps=(("Z",), ("ZZ",)), alphas=(1.0,), Cs=(1.0,))

# each a validation set that does not fit: one label for 20 rows, no rows, and labels of ±1
_UNFIT_VALIDATION = {
    "one-label": lambda val: (val.X, val.y[:1]),
    "no-rows": lambda val: (val.X[:0], val.y[:0]),
    "plus-minus-one": lambda val: (val.X, 2 * val.y - 1),
}
# each function that takes y_val from its caller, called on a split's train rows and a validation set
_TAKING_VALIDATION = {
    "grid_search_best": lambda train, X_val, y_val: grid_search_best(
        train.X, train.y, initial_weights(len(train.y)), X_val, y_val, _VAL_GRID),
    "fit_boosted": lambda train, X_val, y_val: fit_boosted(train.X, train.y, X_val, y_val, _VAL_GRID),
    "prune_by_validation": lambda train, X_val, y_val: prune_by_validation(
        BoostedEnsemble((stub_round(1, 0.25), stub_round(0, 0.1)), 2, STOP_MAX_REACHED), X_val, y_val, train.X),
}


@pytest.mark.parametrize("call", _TAKING_VALIDATION)
@pytest.mark.parametrize("unfit", _UNFIT_VALIDATION)
def test_validation_labels_must_fit_the_validation_rows(unfit, call):
    # one label was broadcast over all 20 rows (val_accuracy 0.1 against 0.4), no rows gave a NaN
    # accuracy, and ±1 labels counted every class-0 row as an error
    split = split_and_scale(make_moons(60, seed=1), (20, 20, 20), seed=2)
    X_val, y_val = _UNFIT_VALIDATION[unfit](split.val)
    with pytest.raises(ValueError, match=rf"0 or 1 per row, got {len(y_val)} labels for {len(X_val)} rows$"):
        _TAKING_VALIDATION[call](split.train, X_val, y_val)


def test_determinism():
    split = small_split(seed=6)
    args = (split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID)
    a = fit_boosted(*args, max_rounds=4)
    b = fit_boosted(*args, max_rounds=4)
    assert json.dumps(ensemble_to_json(a), sort_keys=True) == json.dumps(
        ensemble_to_json(b), sort_keys=True
    )


def test_ensemble_json_round_trip():
    split = small_split(seed=13)
    cache = GramCache()
    ens = fit_boosted(
        split.train.X, split.train.y, split.val.X, split.val.y, SMALL_GRID,
        max_rounds=3, cache=cache,
    )
    loaded = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ens))))
    assert loaded.pruned_length == ens.pruned_length
    assert loaded.stop_reason == ens.stop_reason
    for got, rnd in zip(loaded.rounds, ens.rounds, strict=True):
        assert (got.grid_point, got.val_accuracy, got.err_m, got.alpha_m) == (
            rnd.grid_point, rnd.val_accuracy, rnd.err_m, rnd.alpha_m)
        assert got.feature_map.canonical() == rnd.feature_map.canonical()
    s_orig, l_orig = predict_ensemble_batch(ens, split.test.X, split.train.X, cache)
    s_load, l_load = predict_ensemble_batch(loaded, split.test.X, split.train.X, cache)
    np.testing.assert_allclose(s_load, s_orig, atol=0)
    np.testing.assert_array_equal(l_load, l_orig)


def test_result_json_round_trip():
    split = small_split(seed=13)
    result = grid_search_best(split.train.X, split.train.y, initial_weights(len(split.train.y)),
                              split.val.X, split.val.y, SMALL_GRID)
    entry = json.loads(json.dumps(result_to_json(result)))
    assert set(entry) == {"feature_map", "val_accuracy", "svm"}  # alpha is in the map's text, C in the svm
    loaded = result_from_json(entry, split.train.X.shape[1])
    assert loaded.grid_point == result.grid_point
    assert loaded.val_accuracy == result.val_accuracy
    assert loaded.feature_map == result.feature_map
    np.testing.assert_array_equal(loaded.model.dual_coefs, result.model.dual_coefs)
    assert loaded.model.bias == result.model.bias


def test_result_from_json_rejects_non_finite_alpha():
    # a corrupted bundle used to reload and score all-NaN states silently
    split = small_split(seed=13)
    grid = GridSpec(feature_maps=(("Z",),), alphas=(1.0,), Cs=(1.0,))
    result = grid_search_best(split.train.X, split.train.y, initial_weights(len(split.train.y)),
                              split.val.X, split.val.y, grid)
    entry = json.loads(json.dumps(result_to_json(result)))
    entry["feature_map"] = entry["feature_map"].replace("alpha=1.0", "alpha=nan")
    with pytest.raises(ValueError, match="alpha must be finite, got nan"):
        result_from_json(entry, split.train.X.shape[1])


def test_fit_boosted_validation():
    split = small_split()
    # a float budget failed in range() with a TypeError, and True ran one round
    for bad in (0, 2.5, True, -1):
        with pytest.raises(ValueError, match="max_rounds must be a positive integer"):
            fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y, max_rounds=bad)
    with pytest.raises(ValueError):
        fit_boosted(split.train.X, split.train.y + 1, split.val.X, split.val.y)
