"""Experiment harness tests: aggregation, baseline, persistence, reproducibility."""
import csv
import json
import math
import re

import numpy as np
import pytest

from qsvm_boost.boosted_qsvm import (
    STOP_PERFECT,
    GridSpec,
    ensemble_to_json,
    fit_boosted,
    grid_search_best,
    initial_weights,
)
from qsvm_boost.datasets import GENERATORS, dataset_from_csv, make_moons, split_and_scale
from qsvm_boost.experiment import (
    DEFAULT_DATASET_PARAMS,
    MODEL_BASELINE,
    MODEL_BOOSTED,
    MODEL_SINGLE,
    MODELS,
    ExperimentConfig,
    RunRecord,
    aggregate,
    classical_svm_baseline,
    config_from_dict,
    derive_seed,
    emit_report,
    evaluate_reloaded,
    fit_model,
    load_config,
    read_records_csv,
    reload_bundle,
    run_experiment,
    tukey_quartiles,
    write_records_csv,
)
from qsvm_boost.kernels import GramCache, linear_gram, rbf_gram
from qsvm_boost.quantum_sim import FeatureMapSpec
from qsvm_boost.svm_solver import predict, train_weighted_svm
from helpers import count_solver_calls

SMALL_GRID = GridSpec(
    feature_maps=(("Z", "ZZ"), ("X", "XX")),
    alphas=(1.0,),
    Cs=(1.0, 10.0),
)


def tiny_config(output_dir, **overrides) -> ExperimentConfig:
    defaults = dict(
        families=("circles",),
        datasets_per_family=1,
        n_points=60,
        split_sizes=(20, 20, 20),
        grid=SMALL_GRID,
        max_rounds=2,
        master_seed=77,
        output_dir=str(output_dir),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def make_record(family, seed, model, acc, size, error=""):
    return RunRecord(family, seed, model, acc, size, "", 0.0, error)


# --- seeds and quartiles ---

def test_derive_seed_deterministic():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(8, 1, 2) != derive_seed(7, 1, 2)


def test_tukey_quartiles_basic():
    q1, med, q3 = tukey_quartiles([0.8, 0.9, 1.0])
    assert med == pytest.approx(0.9)
    assert q1 == pytest.approx(0.85) and q3 == pytest.approx(0.95)


def test_tukey_hinges_include_median_in_odd_halves():
    q1, med, q3 = tukey_quartiles([1, 2, 3, 4, 5])
    assert (q1, med, q3) == (2, 3, 4)
    q1, med, q3 = tukey_quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.5, 2.5, 3.5)


def test_tukey_single_value():
    assert tukey_quartiles([0.7]) == (0.7, 0.7, 0.7)
    with pytest.raises(ValueError):
        tukey_quartiles([])


# --- aggregation ---

def test_aggregate_single_record_box():
    records = [make_record("xor", 1, m, 0.9, 1) for m in MODELS]
    stats = aggregate(records)
    b = stats.box[("xor", MODEL_BOOSTED)]
    assert b.median == b.q1 == b.q3 == 0.9
    assert b.whisker_lo == b.whisker_hi == 0.9


def test_aggregate_improvements_filter_more_than_two():
    records = [
        make_record("xor", 1, MODEL_BOOSTED, 0.95, 3),
        make_record("xor", 1, MODEL_SINGLE, 0.90, 1),
        make_record("xor", 2, MODEL_BOOSTED, 0.80, 2),  # size 2: excluded
        make_record("xor", 2, MODEL_SINGLE, 0.99, 1),
        make_record("xor", 3, MODEL_BOOSTED, 0.99, 4),
        make_record("xor", 3, MODEL_SINGLE, 0.98, 1),
        make_record("xor", 1, MODEL_BASELINE, 0.97, 1),
    ]
    stats = aggregate(records)
    fs = stats.families["xor"]
    assert fs.n_more_than_2 == 2
    assert fs.n_more_than_1 == 3
    assert fs.improvement_mean == pytest.approx((0.05 + 0.01) / 2)
    assert fs.improvement_max == pytest.approx(0.05)
    assert fs.mean_ensemble_size == pytest.approx(3.0)
    assert fs.max_ensemble_size == 4


def test_aggregate_skips_error_records():
    records = [
        make_record("xor", 1, MODEL_BOOSTED, 0.9, 1),
        make_record("xor", 2, MODEL_BOOSTED, float("nan"), 0, error="ValueError: x"),
    ]
    stats = aggregate(records)
    assert stats.box[("xor", MODEL_BOOSTED)].median == 0.9
    with pytest.raises(ValueError):
        aggregate([make_record("xor", 1, MODEL_BOOSTED, float("nan"), 0, error="err")])


def test_whisker_formula():
    values = [0.5, 0.6, 0.7, 0.8, 1.0]
    records = [make_record("moons", i, MODEL_SINGLE, v, 1) for i, v in enumerate(values)]
    b = aggregate(records).box[("moons", MODEL_SINGLE)]
    iqr = b.q3 - b.q1
    assert b.whisker_lo == pytest.approx(b.q1 - 1.5 * iqr)
    assert b.whisker_hi == pytest.approx(b.q3 + 1.5 * iqr)


# --- classical baseline ---

def test_baseline_separable_reaches_one():
    rng = np.random.default_rng(2)
    X = np.vstack([
        rng.normal((0.5, 0.5), 0.1, size=(30, 2)),
        rng.normal((2.5, 2.5), 0.1, size=(30, 2)),
    ])
    y = np.array([0] * 30 + [1] * 30)
    from qsvm_boost.datasets import LabeledDataset, split_and_scale

    data = LabeledDataset(X, y, "xor", 0)
    split = split_and_scale(data, (20, 20, 20), seed=3)
    entry = fit_model(split, ExperimentConfig(), MODEL_BASELINE, GramCache()).entry
    assert entry["test_accuracy"] == 1.0
    # both kernel types separate this, so the menu-order tie keeps rbf
    assert entry["kernel"] == "rbf"


@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_baseline_test_accuracy_comes_from_its_entry(kernel):
    # the recorded accuracy, the reloaded bundle's and a direct scoring of the
    # fitted model on the kernel's own test Gram must all agree
    split = split_and_scale(make_moons(60, noise_std=0.25, seed=13), (20, 20, 20), seed=14)
    config = ExperimentConfig(baseline_kernels=(kernel,))
    cache = GramCache()
    entry = fit_model(split, config, MODEL_BASELINE, cache).entry
    assert entry["kernel"] == kernel
    assert len(cache) == 0  # the cache holds fidelity Grams and searches; baseline Grams are per use
    bundle = json.loads(json.dumps({"baseline": entry}))
    assert evaluate_reloaded(bundle, split) == {MODEL_BASELINE: entry["test_accuracy"]}
    base = classical_svm_baseline(split, (kernel,), config.baseline_Cs, config.baseline_gammas)
    k_test = (rbf_gram(split.test.X, split.train.X, gamma=base.gamma) if kernel == "rbf"
              else linear_gram(split.test.X, split.train.X))
    direct = float(np.mean(predict(base.model, k_test.values) == split.test.y))
    assert entry["test_accuracy"] == direct


def test_baseline_rejects_unknown_kernel():
    split = split_and_scale(make_moons(60, noise_std=0.1, seed=4), (20, 20, 20), seed=5)
    with pytest.raises(ValueError, match="unknown baseline kernel 'poly'"):
        classical_svm_baseline(split, kernels=("poly",))


def test_baseline_linear_ignores_gamma():
    data = make_moons(60, noise_std=0.1, seed=4)
    split = split_and_scale(data, (20, 20, 20), seed=5)
    result = classical_svm_baseline(split, kernels=("linear",), gammas=(0.1, 1.0))
    assert result.kernel == "linear" and result.gamma is None


@pytest.mark.parametrize("kernels, Cs, gammas, empty", [
    ((), (1.0,), (1.0,), "kernels"),
    (("rbf", "linear"), (), (1.0,), "Cs"),
    (("rbf",), (1.0,), (), "gammas"),
])
def test_baseline_rejects_empty_grid(kernels, Cs, gammas, empty):
    split = split_and_scale(make_moons(60, noise_std=0.1, seed=4), (20, 20, 20), seed=5)
    with pytest.raises(ValueError, match=f"no {empty} given"):
        classical_svm_baseline(split, kernels, Cs, gammas)


def test_baseline_tie_breaking_order():
    # recompute every cell's validation accuracy naively; the winner must be the
    # first cell reaching the maximum in (kernel menu, ascending gamma, ascending C) order
    split = split_and_scale(make_moons(60, noise_std=0.25, seed=13), (20, 20, 20), seed=14)
    kernels, Cs, gammas = ("rbf", "linear"), (10.0, 0.1, 1.0), (1.0, 0.01, 0.1)
    cells = []
    for kernel in kernels:
        for gamma in sorted(gammas) if kernel == "rbf" else [None]:
            if kernel == "rbf":
                k_train = rbf_gram(split.train.X, gamma=gamma)
                k_val = rbf_gram(split.val.X, split.train.X, gamma=gamma)
            else:
                k_train, k_val = linear_gram(split.train.X), linear_gram(split.val.X, split.train.X)
            for C in sorted(Cs):
                model = train_weighted_svm(k_train, split.train.y, C)
                accuracy = float(np.mean(predict(model, k_val.values) == split.val.y))
                cells.append((accuracy, kernel, gamma, C))
    best = max(accuracy for accuracy, *_ in cells)
    expected = next(cell for cell in cells if cell[0] == best)
    result = classical_svm_baseline(split, kernels, Cs, gammas)
    assert (result.val_accuracy, result.kernel, result.gamma, result.C) == expected
    assert sum(cell[0] == best for cell in cells) > 1  # ties exist, so the order decides


# --- run_experiment ---

def test_run_experiment_cardinality_and_persistence(tmp_path):
    config = tiny_config(tmp_path / "out")
    records = run_experiment(config)
    assert len(records) == 3
    assert {r.model_id for r in records} == set(MODELS)
    assert all(not r.error for r in records)
    seed = records[0].dataset_seed
    assert (tmp_path / "out" / "records.csv").exists()
    assert (tmp_path / "out" / "datasets" / f"circles_{seed}.csv").exists()
    assert (tmp_path / "out" / "models" / f"circles_{seed}.json").exists()


def study_split(config: ExperimentConfig, family: str, k: int):
    """The split of dataset k of one family, as run_experiment makes it."""
    f = config.families.index(family)
    data = GENERATORS[family](config.n_points, seed=derive_seed(config.master_seed, f, k, 0),
                              **config.dataset_params[family])
    return split_and_scale(data, config.split_sizes, seed=derive_seed(config.master_seed, f, k, 1))


def test_perfect_later_round_replaces_round_one():
    # default study, circles dataset 7: round 1 is the unit-weight grid
    # winner, but a later round has zero weighted training error, so the
    # ensemble is truncated to that round alone and round 1 is dropped; the
    # single model therefore cannot be read off the ensemble's first round
    config = ExperimentConfig()
    split = study_split(config, "circles", 7)
    X_train, y_train = split.train.X, split.train.y
    X_val, y_val = split.val.X, split.val.y
    cache = GramCache()
    ensemble = fit_boosted(X_train, y_train, X_val, y_val, config.grid, config.max_rounds, cache)
    single = grid_search_best(X_train, y_train, initial_weights(len(y_train)), X_val, y_val,
                              config.grid, cache=cache)
    assert ensemble.stop_reason == STOP_PERFECT
    assert len(ensemble.rounds) == 1 and ensemble.pruned_length == 1
    assert ensemble.rounds[0].err_m == 0.0 and ensemble.rounds[0].alpha_m == 1.0
    assert ensemble.rounds[0].grid_point == ("Z,XX", 1.0, 1.0)
    assert single.grid_point == ("Z", 0.5, 10.0)


@pytest.mark.parametrize("family, k", [("circles", 7), ("moons", 8)])
def test_fit_boosted_reuses_unit_weight_search(monkeypatch, family, k):
    # circles 7 drops round 1 for a perfect later round; moons 8 keeps four rounds
    config = ExperimentConfig()
    split = study_split(config, family, k)
    calls = count_solver_calls(monkeypatch)
    args = (split.train.X, split.train.y, split.val.X, split.val.y, config.grid,
            config.max_rounds)
    fresh = ensemble_to_json(fit_boosted(*args, GramCache()))
    fresh_calls = len(calls)
    warm = GramCache()
    grid_search_best(split.train.X, split.train.y, initial_weights(len(split.train.y)),
                     split.val.X, split.val.y, config.grid, cache=warm)
    del calls[:]
    assert json.dumps(ensemble_to_json(fit_boosted(*args, warm))) == json.dumps(fresh)
    assert len(calls) == fresh_calls - 1  # round 1 was the memoized search


CRITERION_8_CONFIG = dict(
    families=("xor", "moons", "circles"),
    datasets_per_family=1,
    n_points=90,
    split_sizes=(30, 30, 30),
    grid=GridSpec(feature_maps=(("Z", "ZZ"), ("X", "XX")), alphas=(1.0, 2.0), Cs=(1.0, 10.0)),
    max_rounds=3,
    master_seed=12345,
)


def test_run_experiment_bundles_match_fresh_cache_fits(tmp_path):
    # the sweep shares one cache across a dataset's models; each model fitted
    # alone on its own cache must give the same bundle bytes
    config = ExperimentConfig(output_dir=str(tmp_path), **CRITERION_8_CONFIG)
    run_experiment(config)
    for f, family in enumerate(config.families):
        split = study_split(config, family, 0)
        dataset_seed = derive_seed(config.master_seed, f, 0, 0)
        bundle = {"family": family, "dataset_seed": dataset_seed,
                  "split_seed": derive_seed(config.master_seed, f, 0, 1)}
        for model_id, key in zip(MODELS, ("single", "boosted", "baseline")):
            bundle[key] = fit_model(split, config, model_id, GramCache()).entry
        path = tmp_path / "models" / f"{family}_{dataset_seed}.json"
        assert path.read_text() == json.dumps(bundle, indent=1, sort_keys=True)


def test_reloaded_models_reproduce_accuracies(tmp_path):
    config = tiny_config(tmp_path / "out")
    records = {r.model_id: r for r in run_experiment(config)}
    seed = records[MODEL_BOOSTED].dataset_seed
    bundle = reload_bundle(tmp_path / "out" / "models" / f"circles_{seed}.json")
    split = dataset_from_csv(tmp_path / "out" / "datasets" / f"circles_{seed}.csv")
    reloaded = evaluate_reloaded(bundle, split)
    for model_id in MODELS:
        assert reloaded[model_id] == records[model_id].test_accuracy


def test_records_csv_round_trip(tmp_path):
    records = [
        RunRecord("xor", 5, MODEL_BOOSTED, 0.93, 3, "Z@alpha=1.0@C=10.0;X,XX@alpha=0.5@C=1.0", 0.25),
        make_record("xor", 5, MODEL_SINGLE, 0.91, 1),
        make_record("moons", 4, MODEL_BASELINE, 1 / 3, 1),
        make_record("moons", 4, MODEL_SINGLE, float("nan"), 0, 'ValueError: bad "C", or alpha'),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    assert path.read_text().splitlines()[0] == (
        "family,dataset_seed,model_id,test_accuracy,ensemble_size,grid_points,wall_time,error")
    key = lambda r: (r.family, r.dataset_seed, r.model_id)
    loaded = read_records_csv(path)
    for got, want in zip(sorted(loaded, key=key), sorted(records, key=key), strict=True):
        for name in RunRecord.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b) and (a == b or math.isnan(a) and math.isnan(b)), name
    assert aggregate(loaded) == aggregate(records)

    # an extra column is ignored; a missing one is a KeyError
    rows = list(csv.reader(path.open(newline="")))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([row + ["extra"] for row in rows])
    assert len(read_records_csv(path)) == len(records)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([row[:-1] for row in rows])
    with pytest.raises(KeyError, match="error"):
        read_records_csv(path)
    # a truncated row is refused, not read with a None or "None" field
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([rows[0], rows[1][:-1], *rows[2:]])
    with pytest.raises(ValueError, match="fewer fields than its header"):
        read_records_csv(path)


def test_reproducibility_small(tmp_path):
    a = run_experiment(tiny_config(tmp_path / "a"))
    b = run_experiment(tiny_config(tmp_path / "b"))
    strip = lambda rs: [(r.family, r.dataset_seed, r.model_id, r.test_accuracy,
                         r.ensemble_size, r.grid_points, r.error) for r in rs]
    assert strip(a) == strip(b)


# --- reports ---

def test_emit_report_files(tmp_path):
    records = [make_record(f, s, m, 0.5 + 0.01 * s, 1)
               for f in ("xor", "moons") for s in (1, 2, 3) for m in MODELS]
    paths = emit_report(aggregate(records), records, tmp_path / "report")
    assert set(paths) == {"summary", "boxplot"}
    assert paths["summary"].exists() and paths["boxplot"].exists()
    assert not (tmp_path / "report" / "records.csv").exists()
    boxplot_lines = paths["boxplot"].read_text().strip().splitlines()
    assert len(boxplot_lines) == 1 + 2 * len(MODELS)  # header + families x models
    assert boxplot_lines[0] == "family,model,median,q1,q3,whisker_lo,whisker_hi"
    summary = json.loads(paths["summary"].read_text())
    assert summary["conventions"]["quartiles"] == "tukey-hinges"
    assert set(summary["box"]) == {"xor", "moons"}


def test_emit_report_refuses_empty(tmp_path):
    stats = aggregate([make_record("xor", 1, MODEL_BOOSTED, 0.9, 1)])
    with pytest.raises(ValueError):
        emit_report(stats, [], tmp_path)


# --- config ---

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(families=("blobs",))
    with pytest.raises(ValueError):
        ExperimentConfig(datasets_per_family=0)
    with pytest.raises(ValueError):
        ExperimentConfig(baseline_Cs=(0.01,))
    with pytest.raises(ValueError):
        ExperimentConfig(baseline_gammas=(100.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(baseline_kernels=("poly",))
    with pytest.raises(ValueError):
        ExperimentConfig(split_sizes=(100, 100, 100), n_points=150)
    for sizes in ([0, 50, 50], [50, 0, 50], [50, 50, 0], [-1, 50, 50]):
        with pytest.raises(ValueError, match="split sizes must be at least 1"):
            config_from_dict({"split_sizes": sizes})


def test_config_rejects_invalid_menu():
    with pytest.raises(ValueError, match="invalid Pauli letters"):
        config_from_dict({"feature_maps": [["Q"], ["Z"]]})
    # an empty map, and a bare string that would read as the map of its letters
    for menu, entry in (([[]], "[]"), (["ZZ", "Z"], "'ZZ'"), ("ZZ", "'ZZ'"), ([], "[]")):
        with pytest.raises(ValueError, match=f"non-empty lists of Pauli labels, got {re.escape(entry)}"):
            config_from_dict({"feature_maps": menu})


def test_config_rejects_bad_reps():
    for reps in (0, 2.0, True, "2"):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            config_from_dict({"reps": reps})
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            FeatureMapSpec(2, ("Z",), reps=reps)
    assert config_from_dict({"reps": np.int64(3)}).grid.reps == 3


@pytest.mark.parametrize("obj, message", [
    ({"max_rounds": 1.0}, "max_rounds must be an integer"),
    ({"max_rounds": True}, "max_rounds must be an integer"),
    ({"datasets_per_family": 1.5}, "datasets_per_family must be an integer"),
    ({"n_points": 150.0}, "n_points must be an integer"),
    ({"master_seed": 7.0}, "master_seed must be an integer"),
    ({"split_sizes": [20.5, 20, 19]}, "split_sizes must be integers"),
    ({"split_sizes": [50, 50, False]}, "split_sizes must be integers"),
    ({"output_dir": 5}, "output_dir must be a path"),
])
def test_config_rejects_non_integer_counts(obj, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(obj)


def test_config_keeps_numpy_integer_counts():
    config = config_from_dict({"datasets_per_family": np.int64(2), "split_sizes": np.array([40, 40, 40]),
                               "max_rounds": np.int32(3), "master_seed": np.uint32(9)})
    assert config.split_sizes == (40, 40, 40)
    assert all(type(s) is int for s in config.split_sizes)
    # numpy arrays and numpy floats load as number lists
    config = config_from_dict({"alphas": np.array([1.5, 0.5]), "Cs": [np.float32(10), np.int64(1)],
                               "baseline_gammas": np.float64([0.1, 1])})
    assert config.grid.alphas == (0.5, 1.5) and config.grid.Cs == (1.0, 10.0)
    assert config.baseline_gammas == (0.1, 1.0)


@pytest.mark.parametrize("obj, message", [
    ({"alphas": [float("nan")]}, "alphas must lie in"),
    ({"Cs": [float("nan")]}, "Cs must lie in"),
    ({"baseline_Cs": [float("nan")]}, "baseline C values must lie in"),
    ({"baseline_gammas": [float("nan")]}, "baseline gamma values must lie in"),
    ({"dataset_params": {"moons": {"noise_std": float("nan")}}}, "cannot generate moons datasets"),
    ({"dataset_params": {"circles": {"noise_std": float("nan")}}}, "cannot generate circles datasets"),
    ({"dataset_params": {"moons": {"noise_std": float("inf")}}}, "cannot generate moons datasets"),
    # a number list must be a list of real, non-bool numbers
    ({"alphas": "12"}, "alphas must be a list of real numbers"),
    ({"alphas": [True]}, "alphas must be a list of real numbers"),
    ({"alphas": 1.0}, "alphas must be a list of real numbers"),
    ({"Cs": "1"}, "Cs must be a list of real numbers"),
    ({"Cs": [1, "10"]}, "Cs must be a list of real numbers"),
    ({"Cs": [1, None]}, "Cs must be a list of real numbers"),
    ({"baseline_Cs": "1"}, "baseline_Cs must be a list of real numbers"),
    ({"baseline_Cs": [[1.0]]}, "baseline_Cs must be a list of real numbers"),
    ({"baseline_gammas": "1"}, "baseline_gammas must be a list of real numbers"),
    ({"baseline_gammas": np.array([True])}, "baseline_gammas must be a list of real numbers"),
    # a name list must not be a bare string, which would read as its letters
    ({"families": "xor"}, "^families must be a list of names, got 'xor'$"),
    ({"baseline_kernels": "rbf"}, "^baseline_kernels must be a list of names, got 'rbf'$"),
    # a bool dataset parameter fails even for a family the run does not generate
    ({"families": ["xor"], "dataset_params": {"circles": {"factor": True}}},
     "dataset_params for circles: factor must be a number, got True"),
    # a list must be a list, and its items of the right kind
    ({"families": 5}, "^families must be a list of names, got 5$"),
    ({"baseline_kernels": 5}, "^baseline_kernels must be a list of names, got 5$"),
    ({"split_sizes": 50}, "^split_sizes must be integers, got 50$"),
    ({"families": [["xor"]]}, re.escape("families must be a list of names, got [['xor']]")),
    ({"baseline_kernels": [["rbf"]]}, re.escape("baseline_kernels must be a list of names, got [['rbf']]")),
    ({"families": {"xor": 1}}, re.escape("families must be a list of names, got {'xor': 1}")),
    # a grid value list repeats no value, as the map menu repeats no map
    ({"alphas": [1.0, 1.0]}, re.escape("alphas must not repeat a value, got [1.0, 1.0]")),
    ({"Cs": [10, 1, 10.0]}, re.escape("Cs must not repeat a value, got [10, 1, 10.0]")),
    ({"baseline_Cs": [0.1, 0.1]}, "baseline_Cs must not repeat a value"),
    ({"baseline_gammas": np.array([1.0, 0.1, 1.0])}, "baseline_gammas must not repeat a value"),
    # nor does the baseline kernel list repeat a name
    ({"baseline_kernels": ["rbf", "linear", "rbf"]},
     re.escape("baseline_kernels must not repeat a name, got ['rbf', 'linear', 'rbf']")),
    ({"baseline_kernels": ["linear", "linear"]}, "baseline_kernels must not repeat a name"),
])
def test_config_rejects_nan(obj, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(obj)


@pytest.mark.parametrize("obj, message", [
    ({"baseline_Cs": []}, "baseline_Cs must not be empty"),
    ({"baseline_kernels": []}, "baseline_kernels must not be empty"),
    ({"baseline_gammas": []}, "baseline_gammas must not be empty"),
])
def test_config_rejects_empty_baseline_grid(obj, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(obj)
    # without rbf the gamma list is unused, so it may be empty
    config_from_dict({"baseline_kernels": ["linear"], "baseline_gammas": []})


@pytest.mark.parametrize("params, message", [
    ({"moons": {"noise": 0.3}}, "dataset_params for moons"),
    ({"circles": {"factor": 0.5, "n": 10}}, "dataset_params for circles"),
    ({"xor": {"seed": 1}}, "dataset_params for xor"),
    ({"xor": [0.1]}, "dataset_params for xor"),
    ({"blobs": {}}, "unknown family 'blobs'"),
    ({"moons": {"noise_std": -1}}, "cannot generate moons datasets: noise_std must be nonnegative"),
    ({"xor": {"margin": 1.5}}, "cannot generate xor datasets: margin must lie in"),
    ({"circles": {"factor": "half"}}, "cannot generate circles datasets"),
    ([], "dataset_params must be a dict"),
    # a bool would pass the generators' range checks as 0 or 1
    ({"moons": {"noise_std": True}}, "dataset_params for moons: noise_std must be a number, got True"),
    ({"xor": {"margin": False}}, "dataset_params for xor: margin must be a number, got False"),
    ({"circles": {"factor": 0.5, "noise_std": True}},
     "dataset_params for circles: noise_std must be a number, got True"),
])
def test_config_rejects_bad_dataset_params(params, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict({"dataset_params": params})
    config_from_dict({"dataset_params": {"moons": {"noise_std": 0.1}, "xor": {}}})


def test_partial_dataset_params_keep_the_other_defaults():
    config = config_from_dict({"dataset_params": {"xor": {"margin": 0.1}}})
    assert config.dataset_params == {**DEFAULT_DATASET_PARAMS, "xor": {"margin": 0.1}}
    assert config.dataset_params["moons"] == {"noise_std": 0.3}
    assert config.dataset_params["moons"] is not DEFAULT_DATASET_PARAMS["moons"]
    # a family given as {} takes its generator's defaults
    assert config_from_dict({"dataset_params": {"circles": {}}}).dataset_params["circles"] == {}
    assert ExperimentConfig().dataset_params == DEFAULT_DATASET_PARAMS


def test_config_from_dict_and_file(tmp_path):
    obj = {
        "families": ["moons"],
        "datasets_per_family": 2,
        "alphas": [0.5, 1.0],
        "Cs": [1.0, 10.0],
        "feature_maps": [["Z", "ZZ"], ["X", "XX"]],
        "max_rounds": 4,
        "master_seed": 5,
        "output_dir": "out",
    }
    config = config_from_dict(obj)
    assert config.families == ("moons",)
    assert config.grid.alphas == (0.5, 1.0)
    assert config.grid.feature_maps == (("Z", "ZZ"), ("X", "XX"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    assert load_config(path) == config


def test_config_rejects_unknown_keys(tmp_path):
    for key in ("familes", "data_map_id", "grid"):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({key: ["moons"]})
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ValueError):
        load_config(path)
