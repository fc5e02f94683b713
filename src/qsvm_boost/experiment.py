"""Experiment harness: boosted QSVM vs single QSVM vs classical SVM.

Runs many seeded datasets per family, evaluates the three models on the
untouched test split, and aggregates box-plot statistics (Tukey hinges and
whiskers), ensemble sizes, and the boosted-over-single accuracy improvement
among larger ensembles. Every seed is derived from the master seed, so a
config reproduces its records byte-for-byte.
"""
from __future__ import annotations

import csv
import inspect
import json
import os
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .boosted_qsvm import (
    DEFAULT_MAX_ROUNDS,
    GridSpec,
    best_cell,
    checked_items,
    ensemble_from_json,
    ensemble_to_json,
    fit_boosted,
    grid_search_best,
    initial_weights,
    predict_ensemble_batch,
    result_from_json,
    result_to_json,
    sorted_reals,
)
from .datasets import GENERATORS, SplitDataset, dataset_to_csv, split_and_scale
from .kernels import GramCache, linear_gram, rbf_gram
from .quantum_sim import is_integer
from .svm_solver import (
    TrainedSVM,
    predict,
    svm_from_json,
    svm_to_json,
    train_weighted_svm,
)

MODEL_BOOSTED = "boosted_qsvm"
MODEL_SINGLE = "single_qsvm"
MODEL_BASELINE = "svm_baseline"
# fit order: single first, so it pays for the whole unit-weight grid search (its Gram
# builds and its fits), which boosting's round 1 then takes from the shared cache
MODELS = (MODEL_SINGLE, MODEL_BOOSTED, MODEL_BASELINE)
_BUNDLE_KEYS = {MODEL_SINGLE: "single", MODEL_BOOSTED: "boosted", MODEL_BASELINE: "baseline"}

# each classical baseline kernel's Gram, built per use: no study asks for one twice
_BASELINE_GRAMS = {"rbf": rbf_gram, "linear": linear_gram}

DEFAULT_BASELINE_KERNELS = ("rbf", "linear")
DEFAULT_BASELINE_CS = (0.1, 1.0, 10.0, 100.0)
DEFAULT_BASELINE_GAMMAS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

DEFAULT_DATASET_PARAMS = {
    "xor": {"margin": 0.0},
    "moons": {"noise_std": 0.3},
    "circles": {"factor": 0.5, "noise_std": 0.1},
}


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[str, ...] = ("xor", "moons", "circles")
    datasets_per_family: int = 10
    n_points: int = 150
    split_sizes: tuple[int, int, int] = (50, 50, 50)
    dataset_params: dict = field(default_factory=dict)  # given families laid over DEFAULT_DATASET_PARAMS
    grid: GridSpec = field(default_factory=GridSpec)
    baseline_kernels: tuple[str, ...] = DEFAULT_BASELINE_KERNELS
    baseline_Cs: tuple[float, ...] = DEFAULT_BASELINE_CS
    baseline_gammas: tuple[float, ...] = DEFAULT_BASELINE_GAMMAS
    max_rounds: int = DEFAULT_MAX_ROUNDS
    master_seed: int = 20240911
    output_dir: str = "results"

    def __post_init__(self):
        for name in ("families", "baseline_kernels"):  # a bare string would read as its letters
            object.__setattr__(self, name, checked_items(name, getattr(self, name), "a list of names",
                                                         lambda v: isinstance(v, str)))
        for name in ("datasets_per_family", "n_points", "max_rounds", "master_seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        sizes = checked_items("split_sizes", self.split_sizes, "integers", is_integer)
        object.__setattr__(self, "split_sizes", tuple(int(s) for s in sizes))
        object.__setattr__(self, "baseline_Cs", sorted_reals("baseline_Cs", self.baseline_Cs))
        object.__setattr__(self, "baseline_gammas", sorted_reals("baseline_gammas", self.baseline_gammas))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")
        if not isinstance(self.dataset_params, dict):
            raise ValueError(f"dataset_params must be a dict by family, got {self.dataset_params!r}")
        unknown = set(self.families) - set(GENERATORS)
        if unknown:
            raise ValueError(f"unknown dataset families {sorted(unknown)}")
        if not self.families:
            raise ValueError("families must not be empty")
        if self.datasets_per_family < 1:
            raise ValueError("datasets_per_family must be at least 1")
        if len(self.split_sizes) != 3 or sum(self.split_sizes) > self.n_points:
            raise ValueError(f"split sizes {self.split_sizes} incompatible with n_points={self.n_points}")
        if min(self.split_sizes) < 1:
            raise ValueError(f"split sizes must be at least 1, got {self.split_sizes}")
        for family, params in self.dataset_params.items():
            if family not in GENERATORS:
                raise ValueError(f"dataset_params names unknown family {family!r}")
            takes = set(inspect.signature(GENERATORS[family]).parameters) - {"n", "seed"}
            if not isinstance(params, dict) or set(params) - takes:
                raise ValueError(f"dataset_params for {family} must map a subset of "
                                 f"{sorted(takes)} to values, got {params!r}")
            for key, value in params.items():
                if isinstance(value, bool):
                    raise ValueError(f"dataset_params for {family}: {key} must be a number, got {value!r}")
        merged = DEFAULT_DATASET_PARAMS | self.dataset_params
        object.__setattr__(self, "dataset_params", {family: dict(p) for family, p in merged.items()})
        for f, family in enumerate(self.families):  # one dataset each, so a bad value fails at load
            try:
                GENERATORS[family](self.n_points, seed=derive_seed(self.master_seed, f, 0, 0),
                                   **self.dataset_params[family])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"cannot generate {family} datasets: {exc}") from exc
        if set(self.baseline_kernels) - set(_BASELINE_GRAMS):
            raise ValueError(f"baseline kernels must be {'/'.join(_BASELINE_GRAMS)}, "
                             f"got {self.baseline_kernels}")
        if not self.baseline_kernels:
            raise ValueError("baseline_kernels must not be empty")
        if len(set(self.baseline_kernels)) < len(self.baseline_kernels):
            raise ValueError(f"baseline_kernels must not repeat a name, got {list(self.baseline_kernels)}")
        if not self.baseline_Cs:
            raise ValueError("baseline_Cs must not be empty")
        if "rbf" in self.baseline_kernels and not self.baseline_gammas:
            raise ValueError("baseline_gammas must not be empty when rbf is a baseline kernel")
        if not all(0.1 <= c <= 100 for c in self.baseline_Cs):
            raise ValueError("baseline C values must lie in [0.1, 100]")
        if not all(0.0001 <= g <= 10 for g in self.baseline_gammas):
            raise ValueError("baseline gamma values must lie in [0.0001, 10]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass(frozen=True)
class RunRecord:
    family: str
    dataset_seed: int
    model_id: str
    test_accuracy: float
    ensemble_size: int
    grid_points: str
    wall_time: float
    error: str = ""


class BaselineResult(NamedTuple):
    model: TrainedSVM
    kernel: str
    gamma: float | None
    C: float
    val_accuracy: float


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed from the master seed and an index path."""
    return int(np.random.SeedSequence([master_seed, *path]).generate_state(1)[0])


def _accuracy(predictions: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.asarray(predictions) == np.asarray(truth)))


def classical_svm_baseline(
    split: SplitDataset,
    kernels: tuple[str, ...] = DEFAULT_BASELINE_KERNELS,
    Cs: tuple[float, ...] = DEFAULT_BASELINE_CS,
    gammas: tuple[float, ...] = DEFAULT_BASELINE_GAMMAS,
) -> BaselineResult:
    """Classical-kernel SVM chosen by validation-accuracy grid search.

    The winner is picked by ``best_cell``, the quantum grid's rule: ties go
    to kernel menu order, then ascending gamma, then ascending C. The gamma
    list is ignored for linear cells. A kernel name outside rbf and linear
    raises ValueError. Each (kernel, gamma) cell builds its train and val
    Grams once, uncached: no study reuses them.
    """
    X_train, y_train = split.train.X, split.train.y
    cells, k_trains = [], []  # per (kernel, gamma): ((kernel, gamma), val x train Gram)
    for kernel in kernels:
        if kernel not in _BASELINE_GRAMS:
            raise ValueError(f"unknown baseline kernel {kernel!r}")
        gram = _BASELINE_GRAMS[kernel]
        for gamma in sorted(gammas) if kernel == "rbf" else (None,):
            params = {} if gamma is None else {"gamma": gamma}
            k_trains.append(gram(X_train, **params))
            cells.append(((kernel, gamma), gram(split.val.X, X_train, **params)))
    Cs = sorted(Cs)
    if not cells or not Cs:
        empty = "kernels" if not kernels else "Cs" if not Cs else "gammas"
        raise ValueError(f"the baseline grid is empty: no {empty} given")
    models = [train_weighted_svm(k_train, y_train, C) for k_train in k_trains for C in Cs]
    (kernel, gamma), C, model, val_accuracy = best_cell(cells, Cs, models, split.val.y)
    return BaselineResult(model, kernel, gamma, C, val_accuracy)


def _grid_point_text(grid_point: tuple[str, float, float]) -> str:
    fm_id, alpha, C = grid_point
    return f"{fm_id}@alpha={alpha!r}@C={C!r}"


def run_experiment(config: ExperimentConfig, verbose: bool = False) -> list[RunRecord]:
    """Full sweep: generate, split, fit all three models, evaluate on test.

    Persists per-dataset CSVs, serialized models, and the records CSV under
    ``config.output_dir``. Fit failures are recorded with an error marker and
    the sweep continues.
    """
    out = Path(config.output_dir)
    datasets_dir = out / "datasets"
    models_dir = out / "models"
    datasets_dir.mkdir(parents=True, exist_ok=True)
    models_dir.mkdir(parents=True, exist_ok=True)

    records: list[RunRecord] = []
    for family_index, family in enumerate(config.families):
        for k in range(config.datasets_per_family):
            dataset_seed = derive_seed(config.master_seed, family_index, k, 0)
            split_seed = derive_seed(config.master_seed, family_index, k, 1)
            records.extend(
                _run_one_dataset(
                    config, family, dataset_seed, split_seed, datasets_dir, models_dir, verbose
                )
            )
    records.sort(key=lambda r: (r.family, r.dataset_seed, r.model_id))
    write_records_csv(out / "records.csv", records)
    return records


class ModelFit(NamedTuple):
    """One fitted study model: its bundle entry and the record fields it sets."""

    entry: dict  # stored under _BUNDLE_KEYS[model_id]; includes "test_accuracy"
    ensemble_size: int
    grid_points: str


def fit_model(split: SplitDataset, config: ExperimentConfig, model_id: str,
              cache: GramCache) -> ModelFit:
    """Fit one study model on train, select it on val, and score its bundle entry on test."""
    X_train, y_train = split.train.X, split.train.y
    X_val, y_val = split.val.X, split.val.y
    if model_id == MODEL_SINGLE:
        single = grid_search_best(
            X_train, y_train, initial_weights(len(y_train)), X_val, y_val,
            config.grid, frozenset(), cache,
        )
        fit = ModelFit(result_to_json(single), 1, _grid_point_text(single.grid_point))
    elif model_id == MODEL_BOOSTED:
        ensemble = fit_boosted(
            X_train, y_train, X_val, y_val, config.grid, config.max_rounds, cache
        )
        fit = ModelFit(
            ensemble_to_json(ensemble), ensemble.pruned_length,
            ";".join(_grid_point_text(r.grid_point) for r in ensemble.active_rounds),
        )
    elif model_id == MODEL_BASELINE:
        base = classical_svm_baseline(
            split, config.baseline_kernels, config.baseline_Cs, config.baseline_gammas,
        )
        entry = {key: value for key, value in base._asdict().items() if key != "model"}
        entry["svm"] = svm_to_json(base.model)
        gamma_text = "-" if base.gamma is None else repr(base.gamma)
        fit = ModelFit(entry, 1, f"{base.kernel}@gamma={gamma_text}@C={base.C!r}")
    else:
        raise ValueError(f"unknown model {model_id!r}")
    fit.entry["test_accuracy"] = _test_accuracy(model_id, fit.entry, split, cache)
    return fit


def _test_accuracy(model_id: str, entry: dict, split: SplitDataset, cache: GramCache) -> float:
    """Test accuracy of the model that a bundle entry describes."""
    X_train, X_test = split.train.X, split.test.X
    if model_id == MODEL_BOOSTED:
        _, labels = predict_ensemble_batch(ensemble_from_json(entry), X_test, X_train, cache)
        return _accuracy(labels, split.test.y)
    if model_id == MODEL_SINGLE:
        single = result_from_json(entry, X_train.shape[1])
        model, k_test = single.model, cache.fidelity(single.feature_map, X_test, X_train)
    else:
        params = {} if entry["gamma"] is None else {"gamma": entry["gamma"]}
        model = svm_from_json(entry["svm"])
        k_test = _BASELINE_GRAMS[entry["kernel"]](X_test, X_train, **params)
    return _accuracy(predict(model, k_test.values), split.test.y)


def _run_one_dataset(
    config: ExperimentConfig,
    family: str,
    dataset_seed: int,
    split_seed: int,
    datasets_dir: Path,
    models_dir: Path,
    verbose: bool,
) -> list[RunRecord]:
    def record(model_id, accuracy, size, points, wall, error=""):
        return RunRecord(family, dataset_seed, model_id, accuracy, size, points, wall, error)

    t0 = time.perf_counter()
    try:
        data = GENERATORS[family](config.n_points, seed=dataset_seed, **config.dataset_params[family])
        split = split_and_scale(data, config.split_sizes, seed=split_seed)
        dataset_to_csv(datasets_dir / f"{family}_{dataset_seed}.csv", split)
    except Exception as exc:  # generation failed: mark all three models
        wall = time.perf_counter() - t0
        message = f"{type(exc).__name__}: {exc}"
        return [record(m, float("nan"), 0, "", wall, message) for m in MODELS]

    cache = GramCache()
    records = []
    bundle: dict = {"family": family, "dataset_seed": dataset_seed, "split_seed": split_seed}
    for model_id in MODELS:
        t0 = time.perf_counter()
        try:
            fit = fit_model(split, config, model_id, cache)
        except Exception as exc:
            records.append(record(model_id, float("nan"), 0, "",
                                  time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"))
            continue
        bundle[_BUNDLE_KEYS[model_id]] = fit.entry
        records.append(record(model_id, fit.entry["test_accuracy"], fit.ensemble_size,
                              fit.grid_points, time.perf_counter() - t0))

    with open(models_dir / f"{family}_{dataset_seed}.json", "w") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True)
    if verbose:
        done = {r.model_id: r.test_accuracy for r in records}
        print(f"[{family} seed={dataset_seed}] " +
              " ".join(f"{m}={done.get(m, float('nan')):.3f}" for m in MODELS))
    return records


# --- aggregation ---

@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float


@dataclass(frozen=True)
class FamilyStats:
    mean_ensemble_size: float | None
    max_ensemble_size: int | None
    improvement_mean: float | None
    improvement_max: float | None
    n_more_than_2: int
    n_more_than_1: int


@dataclass(frozen=True)
class SummaryStats:
    box: dict
    families: dict

    def to_json(self) -> dict:
        box: dict = {}
        for (family, model), stats in sorted(self.box.items()):
            box.setdefault(family, {})[model] = vars(stats).copy()
        fams = {family: vars(stats).copy() for family, stats in sorted(self.families.items())}
        return {
            "box": box,
            "families": fams,
            "conventions": {
                "quartiles": "tukey-hinges",
                "whiskers": "Q1-1.5*IQR, Q3+1.5*IQR",
                "improvement_filter": "boosted ensembles with more than 2 learners "
                                      "(n_more_than_1 also reported)",
            },
        }


def tukey_quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) by the hinge convention: odd-length halves share the median."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("quartiles of an empty sequence")

    def med(xs):
        m = len(xs)
        mid = m // 2
        return xs[mid] if m % 2 else (xs[mid - 1] + xs[mid]) / 2.0

    half = (n + 1) // 2
    return med(ordered[:half]), med(ordered), med(ordered[n - half:])


def _box_stats(values) -> BoxStats:
    q1, median, q3 = tukey_quartiles(values)
    iqr = q3 - q1
    return BoxStats(median, q1, q3, q1 - 1.5 * iqr, q3 + 1.5 * iqr)


def aggregate(records: list[RunRecord]) -> SummaryStats:
    """Box-plot stats per (family, model) plus per-family ensemble/improvement stats."""
    good = [r for r in records if not r.error]
    if not good:
        raise ValueError("no successful records to aggregate")
    box = {}
    families = sorted({r.family for r in good})
    for family in families:
        for model in MODELS:
            values = [r.test_accuracy for r in good if r.family == family and r.model_id == model]
            if values:
                box[(family, model)] = _box_stats(values)

    family_stats = {}
    for family in families:
        boosted = {r.dataset_seed: r for r in good
                   if r.family == family and r.model_id == MODEL_BOOSTED}
        single = {r.dataset_seed: r for r in good
                  if r.family == family and r.model_id == MODEL_SINGLE}
        sizes = [r.ensemble_size for r in boosted.values()]
        improvements = [
            boosted[seed].test_accuracy - single[seed].test_accuracy
            for seed in boosted.keys() & single.keys()
            if boosted[seed].ensemble_size > 2
        ]
        family_stats[family] = FamilyStats(
            mean_ensemble_size=float(np.mean(sizes)) if sizes else None,
            max_ensemble_size=int(max(sizes)) if sizes else None,
            improvement_mean=float(np.mean(improvements)) if improvements else None,
            improvement_max=float(max(improvements)) if improvements else None,
            n_more_than_2=sum(1 for r in boosted.values() if r.ensemble_size > 2),
            n_more_than_1=sum(1 for r in boosted.values() if r.ensemble_size > 1),
        )
    return SummaryStats(box=box, families=family_stats)


# --- record and report I/O ---

def write_records_csv(path, records: list[RunRecord]) -> None:
    """Records CSV sorted by (family, seed, model): ``RunRecord``'s field names, then
    each record's fields in that order (the csv module writes floats via repr)."""
    ordered = sorted(records, key=lambda r: (r.family, r.dataset_seed, r.model_id))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(RunRecord))
        writer.writerows(astuple(r) for r in ordered)


def read_records_csv(path) -> list[RunRecord]:
    """Records CSV rows as ``RunRecord``s, each column converted by its field's type.
    A missing column is a KeyError, a row shorter than the header a ValueError;
    an extra column is ignored."""
    types = get_type_hints(RunRecord)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if any(None in row.values() for row in rows):
        raise ValueError(f"{path} has a row with fewer fields than its header")
    records = [RunRecord(**{name: kind(row[name]) for name, kind in types.items()}) for row in rows]
    if not records:
        raise ValueError(f"no records found in {path}")
    return records


def emit_report(stats: SummaryStats, records: list[RunRecord], output_dir) -> dict[str, Path]:
    """Write summary JSON and box-plot CSV; returns the paths. The records CSV is
    ``run_experiment``'s to write."""
    if not records:
        raise ValueError("refusing to write a report for an empty record list")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out / "summary.json", "boxplot": out / "boxplot.csv"}
    with open(paths["summary"], "w") as fh:
        json.dump(stats.to_json(), fh, indent=1, sort_keys=True)
    with open(paths["boxplot"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "model", *(f.name for f in fields(BoxStats))])
        writer.writerows([family, model, *astuple(box)]
                         for (family, model), box in sorted(stats.box.items()))
    return paths


# --- model reload helpers (round-trip of serialized models) ---

def reload_bundle(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def evaluate_reloaded(bundle: dict, split: SplitDataset, cache: GramCache | None = None) -> dict[str, float]:
    """Test accuracy of each model in a bundle, keyed by model id; each entry is scored
    as ``fit_model`` scored it, so its recorded ``test_accuracy`` comes back."""
    cache = cache if cache is not None else GramCache()
    return {model_id: _test_accuracy(model_id, bundle[_BUNDLE_KEYS[model_id]], split, cache)
            for model_id in MODELS if _BUNDLE_KEYS[model_id] in bundle}


# --- config file ---

# a flat document: the GridSpec fields sit beside the other ExperimentConfig fields
_GRID_KEYS = {f.name for f in fields(GridSpec)}
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"grid"} | _GRID_KEYS


def config_from_dict(obj: dict) -> ExperimentConfig:
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    grid_kwargs = {k: v for k, v in obj.items() if k in _GRID_KEYS}
    config_kwargs = {k: v for k, v in obj.items() if k not in _GRID_KEYS}
    if grid_kwargs:
        config_kwargs["grid"] = GridSpec(**grid_kwargs)
    return ExperimentConfig(**config_kwargs)


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a JSON document; every default is overridable."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(obj)
