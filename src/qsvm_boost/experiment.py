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
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .boosted_qsvm import (
    GridSpec,
    ensemble_from_json,
    ensemble_to_json,
    fit_boosted,
    grid_search_best,
    initial_weights,
    predict_ensemble_batch,
)
from .datasets import GENERATORS, SplitDataset, dataset_to_csv, split_and_scale
from .kernels import GramCache
from .quantum_sim import is_integer, parse_feature_map
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

# each classical baseline kernel's cache lookup (X_b=None: X_a against itself; linear ignores gamma)
_BASELINE_GRAMS = {
    "rbf": lambda cache, X_a, X_b, gamma: cache.rbf(X_a, X_b, gamma=gamma),
    "linear": lambda cache, X_a, X_b, gamma: cache.linear(X_a, X_b),
}

DEFAULT_DATASET_PARAMS = {
    "xor": {"margin": 0.0},
    "moons": {"noise_std": 0.3},
    "circles": {"factor": 0.5, "noise_std": 0.1},
}

_RECORD_FIELDS = (
    "family", "dataset_seed", "model_id", "test_accuracy",
    "ensemble_size", "grid_points", "wall_time", "error",
)


@dataclass(frozen=True)
class ExperimentConfig:
    families: tuple[str, ...] = ("xor", "moons", "circles")
    datasets_per_family: int = 10
    n_points: int = 150
    split_sizes: tuple[int, int, int] = (50, 50, 50)
    dataset_params: dict = field(default_factory=lambda: {
        family: dict(params) for family, params in DEFAULT_DATASET_PARAMS.items()
    })
    grid: GridSpec = field(default_factory=GridSpec)
    baseline_kernels: tuple[str, ...] = ("rbf", "linear")
    baseline_Cs: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    baseline_gammas: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)
    max_rounds: int = 10
    master_seed: int = 20240911
    output_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        for name in ("datasets_per_family", "n_points", "max_rounds", "master_seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(is_integer(s) for s in self.split_sizes):
            raise ValueError(f"split_sizes must be integers, got {self.split_sizes!r}")
        object.__setattr__(self, "split_sizes", tuple(int(s) for s in self.split_sizes))
        object.__setattr__(self, "baseline_kernels", tuple(self.baseline_kernels))
        object.__setattr__(self, "baseline_Cs", tuple(sorted(float(c) for c in self.baseline_Cs)))
        object.__setattr__(self, "baseline_gammas", tuple(sorted(float(g) for g in self.baseline_gammas)))
        unknown = set(self.families) - set(GENERATORS)
        if unknown:
            raise ValueError(f"unknown dataset families {sorted(unknown)}")
        if not self.families:
            raise ValueError("families must not be empty")
        if self.datasets_per_family < 1:
            raise ValueError("datasets_per_family must be at least 1")
        if len(self.split_sizes) != 3 or sum(self.split_sizes) > self.n_points:
            raise ValueError(f"split sizes {self.split_sizes} incompatible with n_points={self.n_points}")
        for family, params in self.dataset_params.items():
            if family not in GENERATORS:
                raise ValueError(f"dataset_params names unknown family {family!r}")
            takes = set(inspect.signature(GENERATORS[family]).parameters) - {"n", "seed"}
            if not isinstance(params, dict) or set(params) - takes:
                raise ValueError(f"dataset_params for {family} must map a subset of "
                                 f"{sorted(takes)} to values, got {params!r}")
        for f, family in enumerate(self.families):  # one dataset each, so a bad value fails at load
            try:
                GENERATORS[family](self.n_points, seed=derive_seed(self.master_seed, f, 0, 0),
                                   **self.dataset_params.get(family, {}))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"cannot generate {family} datasets: {exc}") from exc
        if set(self.baseline_kernels) - set(_BASELINE_GRAMS):
            raise ValueError(f"baseline kernels must be {'/'.join(_BASELINE_GRAMS)}, "
                             f"got {self.baseline_kernels}")
        if not self.baseline_kernels:
            raise ValueError("baseline_kernels must not be empty")
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
    kernels: tuple[str, ...] = ("rbf", "linear"),
    Cs: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0),
    gammas: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
    cache: GramCache | None = None,
) -> BaselineResult:
    """Classical-kernel SVM chosen by validation-accuracy grid search.

    Tie-breaking mirrors the quantum grid: kernel menu order, then ascending
    gamma, then ascending C. The gamma list is ignored for linear cells. A
    kernel name outside rbf and linear raises ValueError.
    """
    cache = cache if cache is not None else GramCache()
    X_train, y_train = split.train.X, split.train.y
    X_val, y_val = split.val.X, split.val.y
    best = None
    for kernel in kernels:
        if kernel not in _BASELINE_GRAMS:
            raise ValueError(f"unknown baseline kernel {kernel!r}")
        gram = _BASELINE_GRAMS[kernel]
        for gamma in sorted(gammas) if kernel == "rbf" else (None,):
            k_train = gram(cache, X_train, None, gamma)
            k_val = gram(cache, X_val, X_train, gamma)
            for C in sorted(Cs):
                model = train_weighted_svm(k_train, y_train, C)
                accuracy = _accuracy(predict(model, k_val.values), y_val)
                if best is None or accuracy > best[0]:
                    best = (accuracy, kernel, gamma, C, model)
    if best is None:
        empty = "kernels" if not kernels else "Cs" if not Cs else "gammas"
        raise ValueError(f"the baseline grid is empty: no {empty} given")
    val_accuracy, kernel, gamma, C, model = best
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
        entry = {
            "feature_map": single.feature_map.canonical(),
            "alpha": single.grid_point[1],
            "C": single.grid_point[2],
            "val_accuracy": single.val_accuracy,
            "svm": svm_to_json(single.model),
        }
        fit = ModelFit(entry, 1, _grid_point_text(single.grid_point))
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
            cache,
        )
        entry = {
            "kernel": base.kernel,
            "gamma": base.gamma,
            "C": base.C,
            "val_accuracy": base.val_accuracy,
            "svm": svm_to_json(base.model),
        }
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
        spec = parse_feature_map(entry["feature_map"], X_train.shape[1])
        k_test = cache.fidelity(spec, X_test, X_train)
    else:
        k_test = _BASELINE_GRAMS[entry["kernel"]](cache, X_test, X_train, entry["gamma"])
    return _accuracy(predict(svm_from_json(entry["svm"]), k_test.values), split.test.y)


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
        params = config.dataset_params.get(family, {})
        data = GENERATORS[family](config.n_points, seed=dataset_seed, **params)
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
    """Records CSV sorted by (family, seed, model); floats written via repr."""
    ordered = sorted(records, key=lambda r: (r.family, r.dataset_seed, r.model_id))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for r in ordered:
            writer.writerow([
                r.family, r.dataset_seed, r.model_id, repr(r.test_accuracy),
                r.ensemble_size, r.grid_points, repr(r.wall_time), r.error,
            ])


def read_records_csv(path) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(RunRecord(
                family=row["family"],
                dataset_seed=int(row["dataset_seed"]),
                model_id=row["model_id"],
                test_accuracy=float(row["test_accuracy"]),
                ensemble_size=int(row["ensemble_size"]),
                grid_points=row["grid_points"],
                wall_time=float(row["wall_time"]),
                error=row["error"],
            ))
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
        writer.writerow(["family", "model", "median", "q1", "q3", "whisker_lo", "whisker_hi"])
        for (family, model), b in sorted(stats.box.items()):
            writer.writerow([family, model, repr(b.median), repr(b.q1), repr(b.q3),
                             repr(b.whisker_lo), repr(b.whisker_hi)])
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
