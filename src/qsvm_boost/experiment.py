"""Experiment harness: boosted QSVM vs single QSVM vs classical SVM.

Runs many seeded datasets per family, evaluates the three models on the
untouched test split, and aggregates box-plot statistics (Tukey hinges and
whiskers), ensemble sizes, and the boosted-over-single accuracy improvement
among larger ensembles. Every seed is derived from the master seed, so a
config reproduces its records byte-for-byte.
"""
from __future__ import annotations

import csv
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
    boosting_rounds,
    checked_items,
    decisions,
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
from .datasets import GENERATORS, OneClassError, SplitDataset, dataset_to_csv, split_and_scale
from .kernels import GramCache, linear_gram, rbf_gram
from .quantum_sim import is_integer, is_real
from .svm_solver import (
    TrainedSVM,
    predict,
    svm_from_json,
    svm_to_json,
    train_problems,
    train_weighted_svm,
    written_back,
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
            names = checked_items(name, getattr(self, name), "a list of names", lambda v: isinstance(v, str))
            if len(set(names)) < len(names):
                raise ValueError(f"{name} must not repeat a name, got {list(names)}")
            object.__setattr__(self, name, names)
        for name, low in (("datasets_per_family", 1), ("n_points", 0), ("max_rounds", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= low):
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        sizes = checked_items("split_sizes", self.split_sizes, "integers", is_integer)
        object.__setattr__(self, "split_sizes", tuple(int(s) for s in sizes))
        object.__setattr__(self, "baseline_Cs", sorted_reals("baseline_Cs", self.baseline_Cs))
        object.__setattr__(self, "baseline_gammas", sorted_reals("baseline_gammas", self.baseline_gammas))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")
        if not isinstance(self.dataset_params, dict):
            raise ValueError(f"dataset_params must be a dict by family, got {self.dataset_params!r}")
        unknown = (set(self.families) | set(self.dataset_params)) - set(GENERATORS)
        if unknown:
            raise ValueError(f"unknown family {', '.join(repr(family) for family in sorted(unknown))}")
        if not self.families:
            raise ValueError("families must not be empty")
        for family, params in self.dataset_params.items():
            if not isinstance(params, dict):
                raise ValueError(f"dataset_params for {family} must be a dict of parameters, got {params!r}")
            for key, value in params.items():  # a generator would take a bool as 0 or 1
                if not is_real(value):
                    raise ValueError(f"dataset_params for {family}: {key} must be a number, got {value!r}")
        merged = DEFAULT_DATASET_PARAMS | self.dataset_params
        _try_datasets(self.families, self.n_points, self.split_sizes, merged, self.master_seed)
        object.__setattr__(self, "dataset_params", {family: dict(p) for family, p in merged.items()})
        _baseline_cells(self.baseline_kernels, self.baseline_Cs, self.baseline_gammas)
        if not all(0.1 <= c <= 100 for c in self.baseline_Cs):
            raise ValueError("baseline C values must lie in [0.1, 100]")
        if not all(0.0001 <= g <= 10 for g in self.baseline_gammas):
            raise ValueError("baseline gamma values must lie in [0.0001, 10]")


def _try_datasets(families, n_points, split_sizes, merged, master_seed) -> None:
    """Generate and split each study family's dataset 0 on the seeds ``run_experiment`` gives it,
    then generate one dataset of each other family given a non-default value.

    ``merged`` holds each family's parameters laid over its defaults. A generator's or the
    split's error is raised as ``cannot generate <family> datasets``; a family the study never
    runs is not split, and a one-class draw of it is no fault of its parameters.
    """
    others = [g for g, p in merged.items() if g not in families and p != DEFAULT_DATASET_PARAMS[g]]
    for f, family in enumerate([*families, *others]):
        try:
            data = GENERATORS[family](n_points, seed=derive_seed(master_seed, f, 0, 0), **merged[family])
            if family in families:
                split_and_scale(data, split_sizes, seed=derive_seed(master_seed, f, 0, 1))
        except (ValueError, TypeError) as exc:
            if family in families or not isinstance(exc, OneClassError):
                raise ValueError(f"cannot generate {family} datasets: {exc}") from exc


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
    val_accuracy: float


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed from the master seed and an index path."""
    return int(np.random.SeedSequence([master_seed, *path]).generate_state(1)[0])


def _accuracy(predictions: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.asarray(predictions) == np.asarray(truth)))


def _baseline_cells(kernels, Cs, gammas) -> tuple[list[tuple[str, float | None]], tuple[float, ...]]:
    """``(kernel, gamma)`` cells in tie-break order, and the Cs ascending; a ValueError for a bad
    kernel list, a C or gamma list ``sorted_reals`` refuses, or an empty axis."""
    for kernel in checked_items("baseline_kernels", kernels, "a list of names", lambda v: isinstance(v, str)):
        if kernel not in _BASELINE_GRAMS:
            raise ValueError(f"unknown baseline kernel {kernel!r}")
    Cs, gammas = sorted_reals("baseline_Cs", Cs), sorted_reals("baseline_gammas", gammas)
    for axis, given in (("kernels", kernels), ("Cs", Cs), ("gammas", gammas if "rbf" in kernels else [None])):
        if not len(given):
            raise ValueError(f"baseline_{axis} must not be empty")
    return [(k, g) for k in kernels for g in (gammas if k == "rbf" else [None])], Cs


def classical_svm_baseline(
    split: SplitDataset,
    kernels: tuple[str, ...] = DEFAULT_BASELINE_KERNELS,
    Cs: tuple[float, ...] = DEFAULT_BASELINE_CS,
    gammas: tuple[float, ...] = DEFAULT_BASELINE_GAMMAS,
) -> BaselineResult:
    """Classical-kernel SVM chosen by validation-accuracy grid search.

    The winner is picked by ``best_cell``, the quantum grid's rule: ties go
    to kernel menu order, then ascending gamma, then ascending C. The gamma
    list is ignored for linear cells. ``_baseline_cells`` refuses a kernel
    outside rbf and linear, a C or gamma list that is not distinct real
    numbers, and an empty axis. Each (kernel, gamma) cell builds its train
    and val Grams once, uncached: no study reuses them.
    """
    X_train, y_train = split.train.X, split.train.y
    grid, Cs = _baseline_cells(kernels, Cs, gammas)
    cells, k_trains = [], []  # per (kernel, gamma): ((kernel, gamma), val x train Gram)
    for kernel, gamma in grid:
        gram, params = _BASELINE_GRAMS[kernel], {} if gamma is None else {"gamma": gamma}
        k_trains.append(gram(X_train, **params))
        cells.append(((kernel, gamma), gram(split.val.X, X_train, **params)))
    models = [train_weighted_svm(k_train, y_train, C) for k_train in k_trains for C in Cs]
    (kernel, gamma), _, model, val_accuracy = best_cell(cells, Cs, models, split.val.y)
    return BaselineResult(model, kernel, gamma, val_accuracy)


def _grid_point_text(grid_point: tuple[str, float, float]) -> str:
    fm_id, alpha, C = grid_point
    return f"{fm_id}@alpha={alpha!r}@C={C!r}"


def run_experiment(config: ExperimentConfig, verbose: bool = False) -> list[RunRecord]:
    """Full sweep: generate, split, fit all three models, evaluate on test.

    Persists per-dataset CSVs, serialized models, and the records CSV under
    ``config.output_dir``. Fit failures are recorded with an error marker and
    the sweep continues. Every dataset's boosting rounds are solved first, round
    index r of all of them in one solver call (``_solve_rounds``); each model is
    then fitted per dataset, its grid searches found in the dataset's cache. A
    round that no shared call solved, after a refused one, is solved there alone.
    """
    out = Path(config.output_dir)
    datasets_dir = out / "datasets"
    models_dir = out / "models"
    datasets_dir.mkdir(parents=True, exist_ok=True)
    models_dir.mkdir(parents=True, exist_ok=True)

    records: list[RunRecord] = []
    studied = []  # (family, dataset_seed, split_seed, split) of each dataset that generated
    for family_index, family in enumerate(config.families):
        for k in range(config.datasets_per_family):
            dataset_seed = derive_seed(config.master_seed, family_index, k, 0)
            split_seed = derive_seed(config.master_seed, family_index, k, 1)
            t0 = time.perf_counter()
            try:
                data = GENERATORS[family](config.n_points, seed=dataset_seed, **config.dataset_params[family])
                split = split_and_scale(data, config.split_sizes, seed=split_seed)
                dataset_to_csv(datasets_dir / f"{family}_{dataset_seed}.csv", split)
            except Exception as exc:  # generation failed: mark all three models
                wall, message = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
                records += [RunRecord(family, dataset_seed, m, float("nan"), 0, "", wall, message)
                            for m in MODELS]
                continue
            studied.append((family, dataset_seed, split_seed, split))

    caches = [GramCache() for _ in studied]
    shared = _solve_rounds(config, [split for *_, split in studied], caches)
    for dataset, cache, seconds in zip(studied, caches, shared):
        records.extend(_fit_dataset(config, *dataset, cache, seconds, models_dir, verbose))
    records.sort(key=lambda r: (r.family, r.dataset_seed, r.model_id))
    write_records_csv(out / "records.csv", records)
    return records


def _solve_rounds(config: ExperimentConfig, splits: list[SplitDataset], caches: list[GramCache]) -> list[dict]:
    """Run every dataset's boosting rounds at once, round index r of all of them in one
    ``train_problems`` call; each round's search lands in its dataset's cache memo, where
    ``fit_model``'s searches find it.

    Returns each dataset's seconds by model: the time its own rounds took plus its share, by
    rows, of each shared solve, a refused one included. Round 1, the unit-weight search, is
    the single QSVM's; the rest are boosting's. A dataset whose round fails leaves the drive,
    and a refused solve ends it: ``fit_model`` then solves each dataset's remaining rounds
    alone, and meets the failure again there.
    """
    seconds = [dict.fromkeys(MODELS, 0.0) for _ in splits]
    runs = [boosting_rounds(s.train.X, s.train.y, s.val.X, s.val.y, config.grid, config.max_rounds, cache)
            for s, cache in zip(splits, caches)]
    received, model_id = dict.fromkeys(range(len(runs))), MODEL_SINGLE  # the models each run gets next
    while True:
        problems = {}
        for d, models in received.items():
            t0 = time.perf_counter()
            try:
                problems[d] = runs[d].send(models)
            except Exception:  # StopIteration when its rounds are done
                pass
            seconds[d][model_id] += time.perf_counter() - t0
        if not problems:
            return seconds
        t0 = time.perf_counter()
        try:
            received = dict(zip(problems, train_problems(list(problems.values()))))
        except Exception:  # a problem refused: the drive ends
            received = {}
        shared = time.perf_counter() - t0
        rows = {d: len(grams) * len(Cs) for d, (grams, _, Cs, _) in problems.items()}
        for d, count in rows.items():
            seconds[d][model_id] += shared * count / sum(rows.values())
        model_id = MODEL_BOOSTED


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
        gamma_text = "-" if base.gamma is None else repr(base.gamma)
        fit = ModelFit(_baseline_entry(base), 1, f"{base.kernel}@gamma={gamma_text}@C={base.model.C!r}")
    else:
        raise ValueError(f"unknown model {model_id!r}")
    fit.entry["test_accuracy"] = _test_accuracy(model_id, fit.entry, split, cache)
    return fit


def _baseline_entry(base: BaselineResult) -> dict:
    """The baseline cell's bundle entry: its fields and the SVM by ``svm_to_json``."""
    return {"kernel": base.kernel, "gamma": base.gamma, "val_accuracy": base.val_accuracy,
            "svm": svm_to_json(base.model)}


def _test_accuracy(model_id: str, entry: dict, split: SplitDataset, cache: GramCache) -> float:
    """Test accuracy of the model that a bundle entry describes."""
    X_train, X_test = split.train.X, split.test.X
    if model_id == MODEL_BOOSTED:
        _, labels = predict_ensemble_batch(ensemble_from_json(entry), X_test, X_train, cache)
        return _accuracy(labels, split.test.y)
    if model_id == MODEL_SINGLE:
        single = result_from_json(entry, X_train.shape[1])
        return _accuracy(decisions(single, X_test, X_train, cache) >= 0, split.test.y)
    model = svm_from_json(entry["svm"])
    base = written_back(entry, _baseline_entry, BaselineResult(
        model, entry["kernel"], entry["gamma"], float(entry["val_accuracy"])))
    params = {} if base.gamma is None else {"gamma": base.gamma}
    k_test = _BASELINE_GRAMS[base.kernel](X_test, X_train, **params)
    return _accuracy(predict(model, k_test.values), split.test.y)


def _fit_dataset(
    config: ExperimentConfig,
    family: str,
    dataset_seed: int,
    split_seed: int,
    split: SplitDataset,
    cache: GramCache,
    shared: dict,
    models_dir: Path,
    verbose: bool,
) -> list[RunRecord]:
    """Fit, score and store one dataset's three models; a model's wall time is its own fit's plus
    the seconds ``shared`` charges it from the rounds solved across datasets."""
    records = []
    bundle: dict = {"family": family, "dataset_seed": dataset_seed, "split_seed": split_seed}
    for model_id in MODELS:
        t0 = time.perf_counter()
        try:
            fit = fit_model(split, config, model_id, cache)
        except Exception as exc:
            fit, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0 + shared[model_id]
        if fit is None:
            records.append(RunRecord(family, dataset_seed, model_id, float("nan"), 0, "", wall, error))
            continue
        bundle[_BUNDLE_KEYS[model_id]] = fit.entry
        records.append(RunRecord(family, dataset_seed, model_id, fit.entry["test_accuracy"],
                                 fit.ensemble_size, fit.grid_points, wall))

    with open(models_dir / f"{family}_{dataset_seed}.json", "w") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True)
    if verbose:
        done = {r.model_id: r.test_accuracy for r in records}
        print(f"[{family} seed={dataset_seed}] " +
              " ".join(f"{m}={done.get(m, float('nan')):.3f}" for m in MODELS))
    return records


# --- aggregation ---

# each box's fields, in boxplot.csv's column order after family and model
_BOX_COLUMNS = ("median", "q1", "q3", "whisker_lo", "whisker_hi")


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


def _box(values) -> dict:
    q1, median, q3 = tukey_quartiles(values)
    iqr = q3 - q1
    return dict(zip(_BOX_COLUMNS, (median, q1, q3, q1 - 1.5 * iqr, q3 + 1.5 * iqr)))


def aggregate(records: list[RunRecord]) -> dict:
    """The summary document ``emit_report`` writes: ``box[family][model]`` holds a box of test
    accuracies, ``families[family]`` the ensemble-size and boosted-over-single improvement
    stats, and ``conventions`` how both were computed. Error records are skipped."""
    good = [r for r in records if not r.error]
    if not good:
        raise ValueError("no successful records to aggregate")
    box, families = {}, {}
    for family in sorted({r.family for r in good}):
        by_model = {model: [r for r in good if r.family == family and r.model_id == model]
                    for model in MODELS}
        boxes = {model: _box([r.test_accuracy for r in rs]) for model, rs in by_model.items() if rs}
        if boxes:
            box[family] = boxes
        boosted = {r.dataset_seed: r for r in by_model[MODEL_BOOSTED]}
        single = {r.dataset_seed: r for r in by_model[MODEL_SINGLE]}
        sizes = [r.ensemble_size for r in boosted.values()]
        improvements = [
            boosted[seed].test_accuracy - single[seed].test_accuracy
            for seed in boosted.keys() & single.keys()
            if boosted[seed].ensemble_size > 2
        ]
        families[family] = {
            "mean_ensemble_size": float(np.mean(sizes)) if sizes else None,
            "max_ensemble_size": int(max(sizes)) if sizes else None,
            "improvement_mean": float(np.mean(improvements)) if improvements else None,
            "improvement_max": float(max(improvements)) if improvements else None,
            "n_more_than_2": sum(1 for r in boosted.values() if r.ensemble_size > 2),
            "n_more_than_1": sum(1 for r in boosted.values() if r.ensemble_size > 1),
        }
    return {"box": box, "families": families, "conventions": {
        "quartiles": "tukey-hinges", "whiskers": "Q1-1.5*IQR, Q3+1.5*IQR",
        "improvement_filter": "boosted ensembles with more than 2 learners (n_more_than_1 also reported)"}}


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
    A missing column is a KeyError; a row shorter than the header, a field its type cannot
    read, a model outside ``MODELS`` or a second record of one (family, dataset_seed,
    model_id), a ValueError naming the line; an extra column is ignored."""
    types = get_type_hints(RunRecord)
    records, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path} line {reader.line_num} has fewer fields than its header")
            for name, kind in types.items():
                try:
                    row[name] = kind(row[name])
                except ValueError as exc:
                    raise ValueError(f"{path} line {reader.line_num}, column {name}: {exc}") from None
            if row["model_id"] not in MODELS:
                raise ValueError(f"{path} line {reader.line_num}, column model_id: "
                                 f"{row['model_id']!r} is not one of {MODELS}")
            key = (row["family"], row["dataset_seed"], row["model_id"])
            if key in seen:
                raise ValueError(f"{path} line {reader.line_num} repeats the record of {key}")
            seen.add(key)
            records.append(RunRecord(**{name: row[name] for name in types}))
    if not records:
        raise ValueError(f"no records found in {path}")
    return records


def emit_report(summary: dict, output_dir) -> dict[str, Path]:
    """Write ``aggregate``'s document as summary.json and its boxes as boxplot.csv, one row
    per (family, model); returns the paths. The records CSV is ``run_experiment``'s to write."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out / "summary.json", "boxplot": out / "boxplot.csv"}
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    with open(paths["boxplot"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "model", *_BOX_COLUMNS])
        writer.writerows([family, model, *(box[column] for column in _BOX_COLUMNS)]
                         for family, boxes in sorted(summary["box"].items())
                         for model, box in sorted(boxes.items()))
    return paths


# --- model reload helpers (round-trip of serialized models) ---

def reload_bundle(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def evaluate_reloaded(bundle: dict, split: SplitDataset) -> dict[str, float]:
    """Test accuracy of each model in a bundle, keyed by model id; each entry is scored
    as ``fit_model`` scored it, so its recorded ``test_accuracy`` comes back."""
    cache = GramCache()
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
