"""Boosted ensembles of quantum-kernel SVMs.

Each round grid-searches (feature map x alpha x C) with the current sample
weights, keeps the candidate with the best validation accuracy, and then
excludes that feature map from later rounds so the ensemble is forced to
explore distinct kernels. Misclassified samples are up-weighted by
exp(alpha_m) with alpha_m = ln((1 - err_m) / err_m). The fitted sequence is
finally pruned to the prefix with minimum validation error. A prediction is the
pruned rounds' weighted majority vote, each round deciding through its observable W.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .kernels import GramCache
from .quantum_sim import FeatureMapSpec, is_integer, is_real, parse_feature_map
from .svm_solver import (
    TrainedSVM,
    predict,
    svm_from_json,
    svm_to_json,
    train_weighted_svms,
    written_back,
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
STOP_REASONS = (STOP_PERFECT, STOP_WORSE_THAN_RANDOM, STOP_MAX_REACHED, STOP_MAPS_EXHAUSTED)


def menu_id(labels: tuple[str, ...]) -> str:
    """Feature-map identity used for grid exclusion, e.g. 'Z,ZZ'."""
    return ",".join(labels)


def checked_items(name: str, values, kind: str, check) -> tuple:
    """The items of ``values`` as a tuple. A ValueError "``name`` must be ``kind``"
    unless it is a list, a tuple or a 1-D numpy array whose every item passes ``check``."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, (list, tuple)) or not all(check(v) for v in items):
        raise ValueError(f"{name} must be {kind}, got {values!r}")
    return tuple(items)


def sorted_reals(name: str, values) -> tuple[float, ...]:
    """``values``, a list of distinct real, non-bool numbers, as an ascending float tuple."""
    reals = checked_items(name, values, "a list of real numbers", is_real)
    ordered = tuple(sorted(float(v) for v in reals))
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        raise ValueError(f"{name} must not repeat a value, got {values!r}")
    return ordered


@dataclass(frozen=True)
class GridSpec:
    """Search grid: feature-map menu plus alpha and C values.

    The menu is a list of non-empty label lists, and every label is 1-2
    letters from IXYZ with a non-I letter. alphas must lie in (0, 2], Cs in
    [1, 100] and reps be an integer of at least 1.
    alphas and Cs are stored sorted ascending, which together with menu order
    fixes the tie-breaking order.
    """

    feature_maps: tuple[tuple[str, ...], ...] = DEFAULT_FEATURE_MAP_MENU
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    Cs: tuple[float, ...] = DEFAULT_CS
    reps: int = 2

    def __post_init__(self):
        if not isinstance(self.feature_maps, (list, tuple)) or not self.feature_maps:  # a string reads as its letters
            raise ValueError(f"feature_maps needs non-empty lists of Pauli labels, got {self.feature_maps!r}")
        for fm in self.feature_maps:  # the spec's label and reps rules; alphas are checked below
            FeatureMapSpec(2, fm, self.reps)
        object.__setattr__(self, "feature_maps", tuple(tuple(fm) for fm in self.feature_maps))
        object.__setattr__(self, "alphas", sorted_reals("alphas", self.alphas))
        object.__setattr__(self, "Cs", sorted_reals("Cs", self.Cs))
        if not self.alphas or not self.Cs:
            raise ValueError("grid lists must be non-empty")
        if not all(0 < a <= 2 for a in self.alphas):
            raise ValueError(f"alphas must lie in (0, 2], got {self.alphas}")
        if not all(1 <= c <= 100 for c in self.Cs):
            raise ValueError(f"Cs must lie in [1, 100], got {self.Cs}")
        ids = [menu_id(fm) for fm in self.feature_maps]
        if len(set(ids)) != len(ids):
            raise ValueError("feature-map menu contains duplicates")

    def spec_for(self, labels: tuple[str, ...], alpha: float, n_qubits: int) -> FeatureMapSpec:
        return FeatureMapSpec(n_qubits=n_qubits, labels=labels, reps=self.reps, alpha=alpha)


@dataclass(frozen=True)
class GridSearchResult:
    """A fitted grid cell: its SVM, feature map and unweighted validation accuracy; the single QSVM is one."""

    model: TrainedSVM
    feature_map: FeatureMapSpec
    val_accuracy: float

    @property
    def grid_point(self) -> tuple[str, float, float]:
        """(feature-map id, alpha, C), read from the feature map and the SVM."""
        return menu_id(self.feature_map.labels), self.feature_map.alpha, self.model.C


@dataclass(frozen=True)
class BoostingRound(GridSearchResult):
    """A grid-search result plus the round's weighted training error, which sets its vote weight."""

    err_m: float

    @property
    def alpha_m(self) -> float:
        """``estimator_weight(err_m)``; 1.0 for a perfect round or one no better than random."""
        return estimator_weight(self.err_m) if 0.0 < self.err_m < 0.5 else 1.0


@dataclass(frozen=True)
class BoostedEnsemble:
    rounds: tuple[BoostingRound, ...]
    pruned_length: int
    stop_reason: str

    def __post_init__(self):
        if not 1 <= self.pruned_length <= len(self.rounds):
            raise ValueError("pruned_length must lie in [1, len(rounds)]")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}, got {self.stop_reason!r}")

    @property
    def active_rounds(self) -> tuple[BoostingRound, ...]:
        return self.rounds[: self.pruned_length]


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

    Ties go to the earlier cell in (menu order, ascending alpha, ascending C),
    by ``best_cell``'s rule. Every cell's SVM is fitted in one batched solver
    call.

    The result is memoized in ``cache`` on (grid, excluded maps) and the
    content of the train and validation data, labels and weights. A search
    that repeats an earlier one on the same cache returns the earlier result
    object and fits nothing: boosting's unit-weight round 1 reuses the single
    QSVM's search this way, and a study's searches find there the results of
    its rounds solved across datasets (``experiment.run_experiment``).
    """
    cache = cache if cache is not None else GramCache()
    return _solved(_grid_search(X_train, y_train, weights, X_val, y_val, grid, excluded, cache))


def _solved(run):
    """What the resumable search or boosting loop ``run`` returns, each grid problem it yields
    solved by its own ``train_weighted_svms`` call."""
    try:
        problem = next(run)
        while True:
            problem = run.send(train_weighted_svms(*problem))
    except StopIteration as done:
        return done.value


def _grid_search(X_train, y_train, weights, X_val, y_val, grid, excluded, cache):
    """``grid_search_best`` as a resumable round: a generator that, on a memo miss, yields its grid
    problem (``train_weighted_svms``'s arguments), receives the problem's models and returns the
    search's result."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
    y_val = _validation_labels(X_val, y_val)
    return (yield from cache.resumable_search(
        (grid, frozenset(excluded)),  # a copy: fit_boosted grows its set
        (X_train, y_train, weights, X_val, y_val),
        _search_grid(X_train, y_train, weights, X_val, y_val, grid, excluded, cache),
    ))


def _search_grid(X_train, y_train, weights, X_val, y_val, grid, excluded, cache):
    n_qubits = X_train.shape[1]
    specs, k_trains = [], []  # per (feature map, alpha): its spec and train Gram
    for labels in grid.feature_maps:
        if menu_id(labels) in excluded:
            continue
        for alpha in grid.alphas:
            specs.append(grid.spec_for(labels, alpha, n_qubits))
            k_trains.append(cache.fidelity(specs[-1], X_train))
            # built while the train states are at hand: the one build this and every later round reads
            cache.fidelity(specs[-1], X_val, X_train)
    if not specs:
        raise ValueError("every feature map in the grid is excluded")
    models = yield k_trains, y_train, grid.Cs, weights
    cells = [(spec, cache.fidelity(spec, X_val, X_train)) for spec in specs]
    spec, _, model, accuracy = best_cell(cells, grid.Cs, models, y_val)
    return GridSearchResult(model, spec, accuracy)


def _validation_labels(X_val, y_val) -> np.ndarray:
    """``y_val`` as an array, if it holds one 0/1 label per row of ``X_val`` and there is a row."""
    y_val, n_rows = np.asarray(y_val), len(np.atleast_2d(X_val))
    if not n_rows or y_val.shape != (n_rows,) or not np.isin(y_val, (0, 1)).all():
        raise ValueError(f"validation needs at least one row and one label of 0 or 1 per row, "
                         f"got {y_val.size} labels for {n_rows} rows")
    return y_val


def best_cell(cells, Cs, models, y_val) -> tuple:
    """``(key, C, model, val_accuracy)`` of the first most accurate model, the winner rule of
    both grid searches. ``cells`` are ``(key, val x train GramMatrix)`` pairs in tie-break
    order and ``models`` their fits, cells outer and Cs inner: a tie goes to the earlier cell."""
    scored = [(key, C, model, float(np.mean(predict(model, k_val.values) == y_val)))
              for ((key, k_val), C), model in zip(itertools.product(cells, Cs), models, strict=True)]
    return max(scored, key=lambda cell: cell[3])


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
    cache = cache if cache is not None else GramCache()
    ensemble = _solved(boosting_rounds(X_train, y_train, X_val, y_val, grid, max_rounds, cache))
    return prune_by_validation(ensemble, X_val, y_val, X_train, cache)


def boosting_rounds(X_train, y_train, X_val, y_val, grid, max_rounds, cache: GramCache):
    """``fit_boosted``'s loop as a resumable run: a generator that yields each round's grid problem
    on a memo miss of ``cache``, receives its models, and returns the unpruned ensemble. Each
    round's search is memoized under ``grid_search_best``'s key."""
    grid = grid if grid is not None else GridSpec()
    if not (is_integer(max_rounds) and max_rounds >= 1):
        raise ValueError(f"max_rounds must be a positive integer, got {max_rounds!r}")
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train)

    weights = initial_weights(len(y_train))
    rounds: list[BoostingRound] = []
    excluded: set[str] = set()
    stop_reason = STOP_MAX_REACHED

    for _ in range(max_rounds):
        if all(menu_id(fm) in excluded for fm in grid.feature_maps):
            stop_reason = STOP_MAPS_EXHAUSTED
            break
        result = yield from _grid_search(X_train, y_train, weights, X_val, y_val, grid, excluded, cache)
        k_train = cache.fidelity(result.feature_map, X_train)
        train_preds = predict(result.model, k_train.values)
        rnd = BoostingRound(**vars(result), err_m=estimator_error(train_preds, y_train, weights))
        if rnd.err_m <= 0.0:
            rounds, stop_reason = [rnd], STOP_PERFECT
            break
        if rnd.err_m >= 0.5:
            if not rounds:
                rounds.append(rnd)
            stop_reason = STOP_WORSE_THAN_RANDOM
            break
        rounds.append(rnd)
        excluded.add(result.grid_point[0])
        weights = update_weights(weights, train_preds != y_train, rnd.alpha_m)
    return BoostedEnsemble(tuple(rounds), len(rounds), stop_reason)


def decisions(result: GridSearchResult, X_new: np.ndarray, X_train: np.ndarray, cache: GramCache) -> np.ndarray:
    """The cell's SVM decision ``<psi(x)|W|psi(x)> + bias`` per row of ``X_new``, with ``W = sum_i
    c_i |psi_i><psi_i|`` over ``X_train``'s states built once per ``cache``: ``decision_function``
    on fidelity Gram rows up to round-off, each row summed in one order whatever the batch."""
    spec, coefs = result.feature_map, result.model.dual_coefs
    W = cache.search(spec.canonical(), (X_train, coefs), lambda: _observable(spec, X_train, coefs))
    psi = kernels.feature_map_states(spec, X_new)
    return np.einsum("md,md->m", psi.conj(), np.einsum("de,me->md", W, psi)).real + result.model.bias


def _observable(spec: FeatureMapSpec, X_train: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    states = kernels.feature_map_states(spec, X_train)
    if len(states) != len(coefs):
        raise ValueError(f"training size {len(states)} does not match the model's {len(coefs)} dual coefficients")
    return (states.T * coefs) @ states.conj()


def _prefix_scores(rounds, X_new, X_train, cache) -> np.ndarray:
    """Row k: the weighted vote score of ``rounds[:k + 1]`` on every point of ``X_new``."""
    cache = cache if cache is not None else GramCache()
    votes = np.array([decisions(rnd, X_new, X_train, cache) >= 0 for rnd in rounds])
    alphas = np.array([rnd.alpha_m for rnd in rounds])
    return np.cumsum(alphas[:, None] * votes, axis=0) / np.cumsum(alphas)[:, None]


def predict_ensemble_batch(
    ensemble: BoostedEnsemble,
    X_new: np.ndarray,
    X_train: np.ndarray,
    cache: GramCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of the pruned weighted vote for a batch of points."""
    scores = _prefix_scores(ensemble.active_rounds, X_new, X_train, cache)[-1]
    return scores, (scores >= 0.5).astype(int)


def prune_by_validation(
    ensemble: BoostedEnsemble,
    X_val: np.ndarray,
    y_val: np.ndarray,
    X_train: np.ndarray,
    cache: GramCache | None = None,
) -> BoostedEnsemble:
    """Set pruned_length to the prefix with minimum validation error.

    Each prefix is scored by the vote ``predict_ensemble_batch`` casts, so the
    pruned ensemble's validation labels give exactly the error chosen here.
    Ties go to the shortest prefix, so the pruned error never exceeds the
    full-ensemble error.
    """
    y_val = _validation_labels(X_val, y_val)
    prefix_labels = _prefix_scores(ensemble.rounds, X_val, X_train, cache) >= 0.5
    prefix_errors = np.mean(prefix_labels != y_val[None, :], axis=1)
    return replace(ensemble, pruned_length=int(np.argmin(prefix_errors)) + 1)


def result_to_json(result: GridSearchResult) -> dict:
    """A fitted grid cell's bundle entry; a boosting round's adds err_m."""
    return {
        "feature_map": result.feature_map.canonical(),
        "val_accuracy": result.val_accuracy,
        "svm": svm_to_json(result.model),
    }


def result_from_json(entry: dict, n_qubits: int) -> GridSearchResult:
    """The grid cell that ``result_to_json`` wrote, on ``n_qubits`` qubits, if it writes ``entry`` back."""
    return written_back(entry, result_to_json, _result(entry, n_qubits))


def _result(entry: dict, n_qubits: int) -> GridSearchResult:
    """The grid cell an entry describes, unchecked: a round's entry holds more than a cell's."""
    spec, model = parse_feature_map(entry["feature_map"], n_qubits), svm_from_json(entry["svm"])
    return GridSearchResult(model, spec, float(entry["val_accuracy"]))


def ensemble_to_json(ensemble: BoostedEnsemble) -> dict:
    return {
        "n_qubits": ensemble.rounds[0].feature_map.n_qubits,
        "rounds": [{**result_to_json(rnd), "err_m": rnd.err_m} for rnd in ensemble.rounds],
        "pruned_length": ensemble.pruned_length,
        "stop_reason": ensemble.stop_reason,
    }


def ensemble_from_json(obj: dict) -> BoostedEnsemble:
    """The ensemble that ``ensemble_to_json`` wrote, if it writes ``obj`` back."""
    rounds = tuple(BoostingRound(**vars(_result(entry, obj["n_qubits"])), err_m=float(entry["err_m"]))
                   for entry in obj["rounds"])
    return written_back(obj, ensemble_to_json,
                        BoostedEnsemble(rounds, int(obj["pruned_length"]), obj["stop_reason"]))
