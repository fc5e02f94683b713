"""Boosted ensembles of quantum-kernel SVMs.

Each round grid-searches (feature map x alpha x C) with the current sample
weights, keeps the candidate with the best validation accuracy, and then
excludes that feature map from later rounds so the ensemble is forced to
explore distinct kernels. Misclassified samples are up-weighted by
exp(alpha_m) with alpha_m = ln((1 - err_m) / err_m). The fitted sequence is
finally pruned to the prefix with minimum validation error, and predictions
are a weighted majority vote over the pruned rounds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .kernels import GramCache
from .quantum_sim import FeatureMapSpec, check_label, is_integer, parse_feature_map
from .svm_solver import (
    TrainedSVM,
    predict,
    svm_from_json,
    svm_to_json,
    train_weighted_svms,
)

DEFAULT_FEATURE_MAP_MENU = (
    ("Z",),
    ("ZZ",),
    ("Z", "ZZ"),
    ("X", "XX"),
    ("Y", "YY"),
    ("Z", "XX"),
    ("Z", "YY"),
    ("X", "YY"),
    ("X", "Y", "ZZ"),
)
DEFAULT_ALPHAS = (0.5, 1.0, 1.5, 2.0)
DEFAULT_CS = (1.0, 10.0, 100.0)
DEFAULT_MAX_ROUNDS = 10

STOP_PERFECT = "perfect"
STOP_WORSE_THAN_RANDOM = "worse_than_random"
STOP_MAX_REACHED = "max_reached"
STOP_MAPS_EXHAUSTED = "maps_exhausted"


def menu_id(labels: tuple[str, ...]) -> str:
    """Feature-map identity used for grid exclusion, e.g. 'Z,ZZ'."""
    return ",".join(labels)


@dataclass(frozen=True)
class GridSpec:
    """Search grid: feature-map menu plus alpha and C values.

    Every menu label is 1-2 letters from IXYZ with a non-I letter. alphas
    must lie in (0, 2], Cs in [1, 100] and reps be an integer of at least 1.
    alphas and Cs are stored sorted ascending, which together with menu order
    fixes the tie-breaking order.
    """

    feature_maps: tuple[tuple[str, ...], ...] = DEFAULT_FEATURE_MAP_MENU
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    Cs: tuple[float, ...] = DEFAULT_CS
    reps: int = 2

    def __post_init__(self):
        object.__setattr__(self, "feature_maps", tuple(tuple(fm) for fm in self.feature_maps))
        object.__setattr__(self, "alphas", tuple(sorted(float(a) for a in self.alphas)))
        object.__setattr__(self, "Cs", tuple(sorted(float(c) for c in self.Cs)))
        if not self.feature_maps or not self.alphas or not self.Cs:
            raise ValueError("grid lists must be non-empty")
        for fm in self.feature_maps:
            for label in fm:
                check_label(label)
        if not all(0 < a <= 2 for a in self.alphas):
            raise ValueError(f"alphas must lie in (0, 2], got {self.alphas}")
        if not all(1 <= c <= 100 for c in self.Cs):
            raise ValueError(f"Cs must lie in [1, 100], got {self.Cs}")
        if not (is_integer(self.reps) and self.reps >= 1):
            raise ValueError("reps must be a positive integer")
        ids = [menu_id(fm) for fm in self.feature_maps]
        if len(set(ids)) != len(ids):
            raise ValueError("feature-map menu contains duplicates")

    def spec_for(self, labels: tuple[str, ...], alpha: float, n_qubits: int) -> FeatureMapSpec:
        return FeatureMapSpec(n_qubits=n_qubits, labels=labels, reps=self.reps, alpha=alpha)


@dataclass(frozen=True)
class BoostingRound:
    estimator: TrainedSVM
    feature_map: FeatureMapSpec
    grid_point: tuple[str, float, float]  # (feature-map id, alpha, C)
    err_m: float
    alpha_m: float
    val_accuracy: float


@dataclass(frozen=True)
class BoostedEnsemble:
    rounds: tuple[BoostingRound, ...]
    pruned_length: int
    stop_reason: str

    def __post_init__(self):
        if not 1 <= self.pruned_length <= len(self.rounds):
            raise ValueError("pruned_length must lie in [1, len(rounds)]")

    @property
    def active_rounds(self) -> tuple[BoostingRound, ...]:
        return self.rounds[: self.pruned_length]


class GridSearchResult(NamedTuple):
    grid_point: tuple[str, float, float]
    model: TrainedSVM
    val_accuracy: float
    feature_map: FeatureMapSpec


def initial_weights(n: int) -> np.ndarray:
    """All-ones starting weights, one per training sample."""
    return np.ones(n)


def estimator_error(predictions: np.ndarray, truth: np.ndarray, weights: np.ndarray) -> float:
    """Weighted misclassification rate sum(w * [pred != truth]) / sum(w)."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    weights = np.asarray(weights, dtype=float)
    if not predictions.shape == truth.shape == weights.shape:
        raise ValueError("predictions, truth and weights must have equal length")
    return float(np.sum(weights * (predictions != truth)) / np.sum(weights))


def estimator_weight(err_m: float) -> float:
    """ln((1 - err_m) / err_m), defined for err_m in (0, 0.5)."""
    if not 0.0 < err_m < 0.5:
        raise ValueError(f"estimator weight requires err_m in (0, 0.5), got {err_m}")
    return float(np.log((1.0 - err_m) / err_m))


def update_weights(weights: np.ndarray, misclassified: np.ndarray, alpha_m: float) -> np.ndarray:
    """Multiply misclassified entries by exp(alpha_m); no renormalization."""
    weights = np.asarray(weights, dtype=float)
    misclassified = np.asarray(misclassified, dtype=bool)
    if weights.shape != misclassified.shape:
        raise ValueError("weights and mask must have equal length")
    return weights * np.where(misclassified, np.exp(alpha_m), 1.0)


def grid_search_best(
    X_train: np.ndarray,
    y_train: np.ndarray,
    weights: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    grid: GridSpec,
    excluded: frozenset[str] | set[str] = frozenset(),
    cache: GramCache | None = None,
) -> GridSearchResult:
    """Best (feature map, alpha, C) cell by unweighted validation accuracy.

    Ties go to the earlier cell in (menu order, ascending alpha, ascending C);
    iteration follows that order, so the first strict improvement wins. Every
    cell's SVM is fitted in one batched solver call with the default settings.

    The result is memoized in ``cache`` on (grid, excluded maps) and the
    content of the train and validation data, labels and weights. A search
    that repeats an earlier one on the same cache returns the earlier result
    object and fits nothing: boosting's unit-weight round 1 reuses the single
    QSVM's search this way.
    """
    cache = cache if cache is not None else GramCache()
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
    y_val = np.asarray(y_val)
    return cache.search(
        (grid, frozenset(excluded)),  # a copy: fit_boosted grows its set
        (X_train, y_train, weights, X_val, y_val),
        lambda: _search_grid(X_train, y_train, weights, X_val, y_val, grid, excluded, cache),
    )


def _search_grid(X_train, y_train, weights, X_val, y_val, grid, excluded, cache) -> GridSearchResult:
    n_qubits = X_train.shape[1]
    cells, k_trains = [], []  # per (feature map, alpha): (fm_id, alpha, spec, val x train Gram)
    for labels in grid.feature_maps:
        fm_id = menu_id(labels)
        if fm_id in excluded:
            continue
        for alpha in grid.alphas:
            spec = grid.spec_for(labels, alpha, n_qubits)
            k_trains.append(cache.fidelity(spec, X_train))
            cells.append((fm_id, alpha, spec, cache.fidelity(spec, X_val, X_train)))
    if not cells:
        raise ValueError("every feature map in the grid is excluded")
    models = iter(train_weighted_svms(k_trains, y_train, grid.Cs, weights))
    best: GridSearchResult | None = None
    for fm_id, alpha, spec, k_val in cells:
        for C in grid.Cs:
            model = next(models)
            accuracy = float(np.mean(predict(model, k_val.values) == y_val))
            if best is None or accuracy > best.val_accuracy:
                best = GridSearchResult((fm_id, alpha, C), model, accuracy, spec)
    return best


def fit_boosted(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    grid: GridSpec | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cache: GramCache | None = None,
) -> BoostedEnsemble:
    """Run the full boosting loop and prune the result on the validation set.

    Early stopping: a perfect round (zero weighted training error) ends the
    fit and the ensemble is truncated to that round alone, with vote weight
    1.0; a round as bad as random guessing (err_m >= 0.5) ends the fit and
    is kept only if it is the first round (vote weight 1.0). Running out of
    feature maps or reaching max_rounds also stops.
    """
    grid = grid if grid is not None else GridSpec()
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train)
    if set(np.unique(y_train)) - {0, 1}:
        raise ValueError("labels must be 0 or 1")
    cache = cache if cache is not None else GramCache()

    weights = initial_weights(len(y_train))
    rounds: list[BoostingRound] = []
    excluded: set[str] = set()
    stop_reason = STOP_MAX_REACHED

    for _ in range(max_rounds):
        if all(menu_id(fm) in excluded for fm in grid.feature_maps):
            stop_reason = STOP_MAPS_EXHAUSTED
            break
        result = grid_search_best(X_train, y_train, weights, X_val, y_val, grid, excluded, cache)
        k_train = cache.fidelity(result.feature_map, X_train)
        train_preds = predict(result.model, k_train.values)
        err_m = estimator_error(train_preds, y_train, weights)
        alpha_m = estimator_weight(err_m) if 0.0 < err_m < 0.5 else 1.0
        rnd = BoostingRound(result.model, result.feature_map, result.grid_point,
                            err_m, alpha_m, result.val_accuracy)
        if err_m <= 0.0:
            rounds, stop_reason = [rnd], STOP_PERFECT
            break
        if err_m >= 0.5:
            if not rounds:
                rounds.append(rnd)
            stop_reason = STOP_WORSE_THAN_RANDOM
            break
        rounds.append(rnd)
        excluded.add(result.grid_point[0])
        weights = update_weights(weights, train_preds != y_train, alpha_m)

    ensemble = BoostedEnsemble(tuple(rounds), len(rounds), stop_reason)
    return prune_by_validation(ensemble, X_val, y_val, X_train, cache)


def _round_votes(
    rounds: tuple[BoostingRound, ...],
    X_new: np.ndarray,
    X_train: np.ndarray,
    cache: GramCache | None,
) -> np.ndarray:
    cache = cache if cache is not None else GramCache()
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    votes = np.empty((len(rounds), X_new.shape[0]), dtype=int)
    for m, rnd in enumerate(rounds):
        k_new = cache.fidelity(rnd.feature_map, X_new, X_train)
        votes[m] = predict(rnd.estimator, k_new.values)
    return votes


def predict_ensemble_batch(
    ensemble: BoostedEnsemble,
    X_new: np.ndarray,
    X_train: np.ndarray,
    cache: GramCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of the pruned weighted vote for a batch of points."""
    active = ensemble.active_rounds
    votes = _round_votes(active, X_new, X_train, cache)
    alphas = np.array([rnd.alpha_m for rnd in active])
    scores = alphas @ votes / np.sum(alphas)
    return scores, (scores >= 0.5).astype(int)


def prune_by_validation(
    ensemble: BoostedEnsemble,
    X_val: np.ndarray,
    y_val: np.ndarray,
    X_train: np.ndarray,
    cache: GramCache | None = None,
) -> BoostedEnsemble:
    """Set pruned_length to the prefix with minimum validation error.

    Ties go to the shortest prefix, so the pruned error never exceeds the
    full-ensemble error.
    """
    y_val = np.asarray(y_val)
    votes = _round_votes(ensemble.rounds, X_val, X_train, cache)
    alphas = np.array([rnd.alpha_m for rnd in ensemble.rounds])
    weighted = np.cumsum(alphas[:, None] * votes, axis=0)
    totals = np.cumsum(alphas)
    prefix_labels = (weighted / totals[:, None]) >= 0.5
    prefix_errors = np.mean(prefix_labels != y_val[None, :], axis=1)
    return replace(ensemble, pruned_length=int(np.argmin(prefix_errors)) + 1)


def ensemble_to_json(ensemble: BoostedEnsemble) -> dict:
    return {
        "n_qubits": ensemble.rounds[0].feature_map.n_qubits,
        "rounds": [
            {
                "feature_map": rnd.feature_map.canonical(),
                "alpha": rnd.grid_point[1],
                "C": rnd.grid_point[2],
                "err_m": rnd.err_m,
                "alpha_m": rnd.alpha_m,
                "val_accuracy": rnd.val_accuracy,
                "svm": svm_to_json(rnd.estimator),
            }
            for rnd in ensemble.rounds
        ],
        "pruned_length": ensemble.pruned_length,
        "stop_reason": ensemble.stop_reason,
    }


def ensemble_from_json(obj: dict) -> BoostedEnsemble:
    n_qubits = int(obj["n_qubits"])
    rounds = []
    for entry in obj["rounds"]:
        spec = parse_feature_map(entry["feature_map"], n_qubits)
        rounds.append(
            BoostingRound(
                estimator=svm_from_json(entry["svm"]),
                feature_map=spec,
                grid_point=(menu_id(spec.labels), float(entry["alpha"]), float(entry["C"])),
                err_m=float(entry["err_m"]),
                alpha_m=float(entry["alpha_m"]),
                val_accuracy=float(entry["val_accuracy"]),
            )
        )
    return BoostedEnsemble(tuple(rounds), int(obj["pruned_length"]), obj["stop_reason"])
