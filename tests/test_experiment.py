"""Experiment harness tests: aggregation, baseline, persistence, reproducibility."""
import csv
import fractions
import functools
import json
import math
import re
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvm_boost import experiment, svm_solver
from qsvm_boost.boosted_qsvm import (
    STOP_PERFECT,
    GridSearchResult,
    GridSpec,
    ensemble_from_json,
    ensemble_to_json,
    fit_boosted,
    grid_search_best,
    initial_weights,
    result_from_json,
    result_to_json,
)
from qsvm_boost.datasets import (
    GENERATORS,
    OneClassError,
    SplitDataset,
    dataset_from_csv,
    make_moons,
    make_xor,
    split_and_scale,
)
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
from qsvm_boost.quantum_sim import FeatureMapSpec, parse_feature_map
from qsvm_boost.svm_solver import predict, svm_from_json, svm_to_json, train_weighted_svm
from helpers import count_cross_grams, count_solver_calls

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
    b = stats["box"]["xor"][MODEL_BOOSTED]
    assert b["median"] == b["q1"] == b["q3"] == 0.9
    assert b["whisker_lo"] == b["whisker_hi"] == 0.9


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
    fs = stats["families"]["xor"]
    assert fs["n_more_than_2"] == 2
    assert fs["n_more_than_1"] == 3
    assert fs["improvement_mean"] == pytest.approx((0.05 + 0.01) / 2)
    assert fs["improvement_max"] == pytest.approx(0.05)
    assert fs["mean_ensemble_size"] == pytest.approx(3.0)
    assert fs["max_ensemble_size"] == 4


def test_aggregate_skips_error_records():
    records = [
        make_record("xor", 1, MODEL_BOOSTED, 0.9, 1),
        make_record("xor", 2, MODEL_BOOSTED, float("nan"), 0, error="ValueError: x"),
    ]
    stats = aggregate(records)
    assert stats["box"]["xor"][MODEL_BOOSTED]["median"] == 0.9
    with pytest.raises(ValueError):
        aggregate([make_record("xor", 1, MODEL_BOOSTED, float("nan"), 0, error="err")])


def test_whisker_formula():
    values = [0.5, 0.6, 0.7, 0.8, 1.0]
    records = [make_record("moons", i, MODEL_SINGLE, v, 1) for i, v in enumerate(values)]
    b = aggregate(records)["box"]["moons"][MODEL_SINGLE]
    iqr = b["q3"] - b["q1"]
    assert b["whisker_lo"] == pytest.approx(b["q1"] - 1.5 * iqr)
    assert b["whisker_hi"] == pytest.approx(b["q3"] + 1.5 * iqr)


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


def test_baseline_refuses_a_bare_kernel_string():
    # "rbf" was read as its letters and refused as unknown baseline kernel 'r'
    split = split_and_scale(make_moons(60, noise_std=0.1, seed=4), (20, 20, 20), seed=5)
    with pytest.raises(ValueError, match="^baseline_kernels must be a list of names, got 'rbf'$"):
        classical_svm_baseline(split, kernels="rbf")


def test_baseline_linear_ignores_gamma():
    data = make_moons(60, noise_std=0.1, seed=4)
    split = split_and_scale(data, (20, 20, 20), seed=5)
    result = classical_svm_baseline(split, kernels=("linear",), gammas=(0.1, 1.0))
    assert result.kernel == "linear" and result.gamma is None


@pytest.mark.parametrize("kernels, Cs, gammas, empty", [
    ((), (1.0,), (1.0,), "kernels"),
    (("rbf", "linear"), (), (1.0,), "Cs"),
    (("rbf",), (1.0,), (), "gammas"),
    (("rbf", "linear"), (1.0,), (), "gammas"),  # rbf needs gammas also beside linear
])
def test_baseline_rejects_empty_grid(kernels, Cs, gammas, empty):
    split = split_and_scale(make_moons(60, noise_std=0.1, seed=4), (20, 20, 20), seed=5)
    with pytest.raises(ValueError, match=f"^baseline_{empty} must not be empty$"):
        classical_svm_baseline(split, kernels, Cs, gammas)


@pytest.mark.parametrize("kernels, Cs, gammas, message", [
    # a bare string was read as its letters; a repeated value was fitted twice
    (("rbf",), (1.0,), "0.1", "^baseline_gammas must be a list of real numbers, got '0.1'$"),
    (("rbf",), "10", (0.1,), "^baseline_Cs must be a list of real numbers, got '10'$"),
    (("rbf",), (1.0,), (0.1, 0.1), r"^baseline_gammas must not repeat a value, got \(0.1, 0.1\)$"),
    (("linear",), (1.0, 1.0), (), r"^baseline_Cs must not repeat a value, got \(1.0, 1.0\)$"),
], ids=["bare_gammas", "bare_Cs", "repeated_gamma", "repeated_C"])
def test_baseline_refuses_a_bare_string_or_a_repeated_value(kernels, Cs, gammas, message, monkeypatch):
    split = split_and_scale(make_moons(60, noise_std=0.1, seed=4), (20, 20, 20), seed=5)
    fits = []
    monkeypatch.setattr(experiment, "train_weighted_svm", lambda *args: fits.append(args))
    with pytest.raises(ValueError, match=message):
        classical_svm_baseline(split, kernels, Cs, gammas)
    assert fits == []


def test_baseline_tie_breaking_order():
    # recompute every cell's validation accuracy naively; the winner must be the
    # first cell reaching the maximum in (kernel menu, ascending gamma, ascending C) order
    split = split_and_scale(make_moons(60, noise_std=0.25, seed=13), (20, 20, 20), seed=14)
    kernels, Cs, gammas = ("rbf", "linear"), (10.0, 0.1, 1.0), (1.0, 0.01, 0.1)
    cells = []
    for kernel in kernels:
        for gamma in sorted(gammas) if kernel == "rbf" else [None]:
            if kernel == "rbf":
                k_train = rbf_gram(split.train.X, gamma=gamma).values
                k_val = rbf_gram(split.val.X, split.train.X, gamma=gamma)
            else:
                k_train, k_val = linear_gram(split.train.X).values, linear_gram(split.val.X, split.train.X)
            for C in sorted(Cs):
                model = train_weighted_svm(k_train, split.train.y, C)
                accuracy = float(np.mean(predict(model, k_val.values) == split.val.y))
                cells.append((accuracy, kernel, gamma, C))
    best = max(accuracy for accuracy, *_ in cells)
    expected = next(cell for cell in cells if cell[0] == best)
    result = classical_svm_baseline(split, kernels, Cs, gammas)
    assert (result.val_accuracy, result.kernel, result.gamma, result.model.C) == expected
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


def test_a_study_solves_round_r_of_every_dataset_in_one_shared_call_and_nothing_alone(tmp_path, monkeypatch):
    # fit_model's searches repeat the drive's rounds on the same caches, so each finds its round in
    # the memo: were a search key to differ, the study would fit that grid again alone
    config = ExperimentConfig(output_dir=str(tmp_path), **CRITERION_8_CONFIG)
    splits = [study_split(config, family, 0) for family in config.families]
    labels = [split.train.y.tobytes() for split in splits]
    assert len(set(labels)) == len(labels)
    alone, solve, shared = count_solver_calls(monkeypatch), experiment.train_problems, []

    def recorded(problems):  # per shared call: the datasets whose round it solves
        shared.append([labels.index(np.asarray(y).tobytes()) for _, y, _, _ in problems])
        return solve(problems)

    monkeypatch.setattr(experiment, "train_problems", recorded)
    run_experiment(config)
    assert alone == []
    searches = []  # per dataset: the rounds a lone fit_boosted solves
    for split in splits:
        fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y, config.grid, config.max_rounds)
        searches.append(len(alone))
        del alone[:]
    assert max(searches) >= 2
    assert shared == [[d for d, n in enumerate(searches) if n > r] for r in range(max(searches))]


@pytest.mark.parametrize("run", ["study", "fit_boosted"])
def test_each_val_x_train_gram_is_built_once_per_spec_across_all_rounds(tmp_path, monkeypatch, run):
    # a dataset's cache keeps every Gram it builds: round 1's search builds each spec's val x train
    # Gram, and every later round reads that build, in a study as in a lone fit_boosted
    config = ExperimentConfig(output_dir=str(tmp_path),
                              **{**CRITERION_8_CONFIG, "families": ("xor", "moons")})
    splits = [study_split(config, family, 0) for family in config.families]
    calls = count_cross_grams(monkeypatch)
    if run == "study":
        run_experiment(config)
        seeds = [derive_seed(config.master_seed, f, 0, 0) for f in range(len(config.families))]
        bundles = [json.loads((tmp_path / "models" / f"{family}_{seed}.json").read_text())
                   for family, seed in zip(config.families, seeds)]
        rounds = [len(bundle["boosted"]["rounds"]) for bundle in bundles]
    else:
        split, splits = splits[0], splits[:1]
        rounds = [len(fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y,
                                  config.grid, config.max_rounds).rounds)]
    assert max(rounds) >= 2  # a later round ran a search of its own
    specs = [config.grid.spec_for(labels, alpha, 2).canonical()
             for labels in config.grid.feature_maps for alpha in config.grid.alphas]
    assert len(specs) == 4
    assert len(calls) == len(set(calls))  # no Gram built twice
    assert sorted(calls) == sorted((spec, split.val.X.tobytes(), split.train.X.tobytes())
                                   for split in splits for spec in specs)


def test_reloaded_models_reproduce_accuracies(tmp_path):
    config = tiny_config(tmp_path / "out")
    records = {r.model_id: r for r in run_experiment(config)}
    seed = records[MODEL_BOOSTED].dataset_seed
    bundle = reload_bundle(tmp_path / "out" / "models" / f"circles_{seed}.json")
    split = dataset_from_csv(tmp_path / "out" / "datasets" / f"circles_{seed}.csv")
    reloaded = evaluate_reloaded(bundle, split)
    for model_id in MODELS:
        assert reloaded[model_id] == records[model_id].test_accuracy


def test_a_tampered_bundle_is_refused_by_the_key_it_changed(tmp_path):
    config = tiny_config(tmp_path / "out")
    seed = run_experiment(config)[0].dataset_seed
    split = dataset_from_csv(tmp_path / "out" / "datasets" / f"circles_{seed}.csv")
    path = tmp_path / "out" / "models" / f"circles_{seed}.json"
    assert set(evaluate_reloaded(reload_bundle(path), split)) == set(MODELS)
    for model_key, tamper, key in (("single", lambda entry: entry.update(C=3.0), "C"),
                                   ("boosted", lambda entry: entry["rounds"][0].update(alpha=2.0), "rounds"),
                                   ("baseline", lambda entry: entry["svm"].update(support_indices=[]),
                                    "support_indices")):
        bundle = reload_bundle(path)
        tamper(bundle[model_key])
        with pytest.raises(ValueError, match=rf"stored keys \['{key}'\] differ from what their writer gives back"):
            evaluate_reloaded(bundle, split)


def _svm_entry() -> dict:
    return svm_to_json(train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0))


def _cell_entry() -> dict:
    model = train_weighted_svm(np.eye(2), np.array([1, 0]), C=1.0)
    return result_to_json(GridSearchResult(model, FeatureMapSpec(2, ("Z",)), 0.5))


def _ensemble_entry() -> dict:
    return {"n_qubits": 2, "pruned_length": 1, "stop_reason": STOP_PERFECT,
            "rounds": [{**_cell_entry(), "err_m": 0.25}]}


@functools.cache
def _baseline_fit() -> tuple[dict, SplitDataset]:
    split = split_and_scale(make_moons(60, noise_std=0.25, seed=13), (20, 20, 20), seed=14)
    config = ExperimentConfig(baseline_kernels=("linear",), baseline_Cs=(1.0,))
    return fit_model(split, config, MODEL_BASELINE, GramCache()).entry, split


def _reload_baseline(**changes) -> dict:
    entry, split = _baseline_fit()
    return evaluate_reloaded({"baseline": {**entry, **changes}}, split)


def _text(text: str) -> str:
    return f"feature-map text {re.escape(repr(text))}"


_TEXTS = (" paulis = Z ; reps=2;alpha=1;map=havlicek-default; ",
          "paulis=Z;reps=2.0;alpha=1.0;map=havlicek-default",
          "paulis=Z;reps=2;alpha=x;map=havlicek-default")


@pytest.mark.parametrize("load, message", [
    *(pytest.param(lambda text=text: parse_feature_map(text, 2), _text(text), id=name)
      for text, name in zip(_TEXTS, ("non-canonical-text", "reps-2.0", "alpha-x"))),
    pytest.param(lambda: svm_from_json({**_svm_entry(), "label_convention": "y{0,1}<->t{+1,-1}:t=1-2y"}),
                 r"\['label_convention'\]", id="flipped-label-convention"),
    pytest.param(lambda: svm_from_json({**_svm_entry(), "kernel": "rbf"}), r"\['kernel'\]", id="extra-svm-key"),
    pytest.param(lambda: svm_from_json({**_svm_entry(), "dual_coefs": np.asarray(_svm_entry()["dual_coefs"])}),
                 r"\['dual_coefs'\]", id="numpy-array-value"),
    pytest.param(lambda: result_from_json({**_cell_entry(), "alpha": 2.0}, 2), r"\['alpha'\]",
                 id="cell-alpha-off-its-map"),
    pytest.param(lambda: result_from_json({**_cell_entry(), "C": 100.0}, 2), r"\['C'\]", id="cell-C-off-its-svm"),
    pytest.param(lambda: _reload_baseline(C=10.0), r"\['C'\]", id="baseline-C-off-its-svm"),
    pytest.param(lambda: ensemble_from_json({"n_qubits": 2, "pruned_length": 1, "stop_reason": "bogus",
                                             "rounds": [{**_cell_entry(), "err_m": 0.25}]}),
                 "stop_reason must be one of .*, got 'bogus'", id="unknown-stop-reason"),
    pytest.param(lambda: FeatureMapSpec(2, "ZZ"), "non-empty lists of Pauli labels, got 'ZZ'",
                 id="bare-string-labels"),
])
def test_a_stored_format_loads_only_what_its_writer_gives_back(load, message):
    with pytest.raises(ValueError, match=message):
        load()


# per stored entry: a fresh written entry, and its loader
_ENTRIES = {
    "svm": (_svm_entry, svm_from_json),
    "cell": (_cell_entry, lambda entry: result_from_json(entry, 2)),
    "round": (lambda: _ensemble_entry()["rounds"][0],
              lambda entry: ensemble_from_json({**_ensemble_entry(), "rounds": [entry]})),
    "ensemble": (_ensemble_entry, ensemble_from_json),
    "baseline": (lambda: dict(_baseline_fit()[0]),
                 lambda entry: evaluate_reloaded({"baseline": entry}, _baseline_fit()[1])),
}


@pytest.mark.parametrize("kind", _ENTRIES)
def test_an_entry_missing_any_written_key_is_refused(kind):
    # a key whose loss its loader does not notice is written for nothing
    fresh, load = _ENTRIES[kind]
    load(fresh())
    for key in fresh().keys() - {"test_accuracy"}:  # a study's own score, set aside by the loader
        entry = fresh()
        del entry[key]
        with pytest.raises((KeyError, ValueError), match=re.escape(repr(key))):
            load(entry)


def _old_svm_entry() -> dict:
    svm = _svm_entry()
    return {**svm, "support_indices": np.flatnonzero(svm["dual_coefs"]).tolist()}


@pytest.mark.parametrize("kind, old, named", [
    # each value is what the entry's writer wrote before the key went: the key alone is refused
    ("svm", _old_svm_entry, "support_indices"),
    ("cell", lambda: {**_cell_entry(), "alpha": 1.0}, "alpha"),
    ("cell", lambda: {**_cell_entry(), "C": 1.0}, "C"),
    ("round", lambda: {**_ensemble_entry()["rounds"][0], "alpha": 1.0}, "rounds"),  # named by its ensemble
    ("round", lambda: {**_ensemble_entry()["rounds"][0], "C": 1.0}, "rounds"),
    ("round", lambda: {**_ensemble_entry()["rounds"][0], "alpha_m": 1.0}, "rounds"),  # ln 3 is read from err_m
    ("baseline", lambda: {**_baseline_fit()[0], "C": _baseline_fit()[0]["svm"]["C"]}, "C"),
])
def test_an_entry_holding_a_key_no_writer_writes_is_refused_by_name(kind, old, named):
    with pytest.raises(ValueError, match=rf"stored keys \['{named}'\] differ from what their writer gives back"):
        _ENTRIES[kind][1](old())


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


@pytest.mark.parametrize("column, text, reason", [
    ("dataset_seed", "5.0", "invalid literal for int() with base 10: '5.0'"),
    ("test_accuracy", "high", "could not convert string to float: 'high'"),
    ("ensemble_size", "3 rounds", "invalid literal for int() with base 10: '3 rounds'"),
])
def test_records_csv_names_the_line_and_column_of_a_field_it_cannot_read(tmp_path, column, text, reason):
    # int() and float() refused these with their own text, which named no file, line or column
    path = tmp_path / "records.csv"
    write_records_csv(path, [make_record("xor", seed, MODEL_SINGLE, 0.9, 1) for seed in (5, 6)])
    rows = list(csv.reader(path.open(newline="")))
    rows[2][rows[0].index(column)] = text
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    message = f"{path} line 3, column {column}: {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_records_csv(path)


# --- failure records ---

def sweep_config(output_dir) -> ExperimentConfig:
    """perfbench's tiny study sizes, two datasets per family."""
    grid = GridSpec(feature_maps=(("Z",), ("X", "XX")), alphas=(1.0,), Cs=(1.0, 10.0))
    return ExperimentConfig(datasets_per_family=2, n_points=60, split_sizes=(20, 20, 20), grid=grid,
                            max_rounds=2, baseline_Cs=(1.0,), baseline_gammas=(1.0,),
                            output_dir=str(output_dir))


def without_wall_time(records) -> list:
    return [replace(r, wall_time=0.0) for r in records]


def assert_failed(record, error):
    assert (record.error, record.ensemble_size, record.grid_points) == (error, 0, "")
    assert math.isnan(record.test_accuracy)


def test_a_dataset_that_fails_to_generate_gets_three_error_records(tmp_path, monkeypatch):
    clean = run_experiment(sweep_config(tmp_path / "clean"))
    config = sweep_config(tmp_path / "out")
    bad_seed = derive_seed(config.master_seed, config.families.index("moons"), 1, 0)
    generate = experiment.GENERATORS["moons"]

    def failing(n_points, seed, **params):
        if seed == bad_seed:
            raise RuntimeError("generator down")
        return generate(n_points, seed=seed, **params)

    monkeypatch.setitem(experiment.GENERATORS, "moons", failing)
    records = run_experiment(config)
    failed = [r for r in records if r.dataset_seed == bad_seed]
    assert sorted(r.model_id for r in failed) == sorted(MODELS)
    for record in failed:
        assert_failed(record, "RuntimeError: generator down")
    assert without_wall_time(r for r in records if r.dataset_seed != bad_seed) == without_wall_time(
        r for r in clean if r.dataset_seed != bad_seed)
    for folder, suffix in (("models", "json"), ("datasets", "csv")):
        written = sorted(path.name for path in (tmp_path / "out" / folder).iterdir())
        assert f"moons_{bad_seed}.{suffix}" not in written
        assert written == sorted(path.name for path in (tmp_path / "clean" / folder).iterdir()
                                 if path.name != f"moons_{bad_seed}.{suffix}")
        for name in written:
            assert (tmp_path / "out" / folder / name).read_bytes() == (
                tmp_path / "clean" / folder / name).read_bytes()

    # the records CSV keeps the error text, and the report skips those records
    loaded = read_records_csv(tmp_path / "out" / "records.csv")
    assert [r.error for r in loaded] == [r.error for r in records]
    assert aggregate(loaded) == aggregate([r for r in loaded if not r.error])


def test_a_failed_fit_marks_only_its_model(tmp_path, monkeypatch, capsys):
    clean = run_experiment(sweep_config(tmp_path / "clean"))

    def failing(*args, **kwargs):
        raise RuntimeError("boosting down")

    monkeypatch.setattr(experiment, "fit_boosted", failing)
    capsys.readouterr()
    records = run_experiment(sweep_config(tmp_path / "out"), verbose=True)
    for record in records:
        if record.model_id == MODEL_BOOSTED:
            assert_failed(record, "RuntimeError: boosting down")
    assert without_wall_time(r for r in records if r.model_id != MODEL_BOOSTED) == without_wall_time(
        r for r in clean if r.model_id != MODEL_BOOSTED)

    by_dataset = {}
    for record in records:
        by_dataset.setdefault((record.family, record.dataset_seed), {})[record.model_id] = record.test_accuracy
    for (family, seed), accuracy in by_dataset.items():
        bundle = reload_bundle(tmp_path / "out" / "models" / f"{family}_{seed}.json")
        assert "boosted" not in bundle
        split = dataset_from_csv(tmp_path / "out" / "datasets" / f"{family}_{seed}.csv")
        assert evaluate_reloaded(bundle, split) == {m: accuracy[m] for m in (MODEL_SINGLE, MODEL_BASELINE)}

    # verbose: one line per dataset, nan for the failed model
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(f"[{family} seed={seed}] " +
                                   " ".join(f"{m}={accuracy[m]:.3f}" for m in MODELS)
                                   for (family, seed), accuracy in by_dataset.items())
    assert all(f"{MODEL_BOOSTED}=nan " in line for line in lines)


def test_a_record_times_its_model_and_its_share_of_each_shared_solve(tmp_path, monkeypatch):
    # the clock moves only in the shared solves and the per-model fits, by amounts set here; round
    # 1 is the single QSVM's search, later rounds are boosting's, and a solve splits by rows
    config = sweep_config(tmp_path)
    clock, splits, solves = [0.0], [], []
    costs = {MODEL_SINGLE: 1.0, MODEL_BOOSTED: 2.0, MODEL_BASELINE: 4.0}
    split, solve, fit = experiment.split_and_scale, experiment.train_problems, experiment.fit_model

    def recorded_split(*args, **kwargs):
        splits.append(split(*args, **kwargs))
        return splits[-1]

    def timed_solve(problems):
        clock[0] += 100.0 * (len(solves) + 1)
        solves.append((100.0 * (len(solves) + 1),
                       [(id(labels), len(grams) * len(Cs)) for grams, labels, Cs, _ in problems]))
        return solve(problems)

    def timed_fit(split, config, model_id, cache):
        clock[0] += costs[model_id]
        return fit(split, config, model_id, cache)

    monkeypatch.setattr(experiment, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(experiment, "split_and_scale", recorded_split)
    monkeypatch.setattr(experiment, "train_problems", timed_solve)
    monkeypatch.setattr(experiment, "fit_model", timed_fit)
    records = run_experiment(config)

    index = {id(s.train.y): d for d, s in enumerate(splits)}
    expected = [dict(costs) for _ in splits]
    for call, (seconds, rows) in enumerate(solves):
        for labels, count in rows:
            expected[index[labels]][MODEL_BOOSTED if call else MODEL_SINGLE] += (
                seconds * count / sum(count for _, count in rows))
    seeds = [derive_seed(config.master_seed, f, k, 0)
             for f in range(len(config.families)) for k in range(config.datasets_per_family)]
    assert len(solves) == 2 and len(solves[0][1]) == len(splits) == len(seeds) == 6
    assert {(r.dataset_seed, r.model_id): r.wall_time for r in records} == pytest.approx(
        {(seeds[d], model): wall for d, walls in enumerate(expected) for model, wall in walls.items()})
    assert sum(r.wall_time for r in records) == pytest.approx(clock[0])


def three_round_sweep_config(output_dir) -> ExperimentConfig:
    """``sweep_config`` with a third feature map and round: some datasets solve a round after the second."""
    grid = GridSpec(feature_maps=(("Z",), ("X", "XX"), ("Z", "ZZ")), alphas=(1.0,), Cs=(1.0, 10.0))
    return replace(sweep_config(output_dir), grid=grid, max_rounds=3)


def test_a_dataset_whose_later_round_fails_to_solve_marks_only_its_boosted_model(tmp_path, monkeypatch):
    clean = run_experiment(three_round_sweep_config(tmp_path / "clean"))
    config = three_round_sweep_config(tmp_path / "out")
    bad_seed = derive_seed(config.master_seed, config.families.index("moons"), 1, 0)
    bad_labels = study_split(config, "moons", 1).train.y.tobytes()
    assert [study_split(config, family, k).train.y.tobytes()
            for family in config.families for k in range(2)].count(bad_labels) == 1
    checked, refused = svm_solver._checked, []

    def refusing(grams, labels, Cs, weights=None):
        # a boosted round's problem of that dataset: its weights are no longer all equal
        if np.asarray(labels).tobytes() == bad_labels and weights is not None and np.ptp(weights) > 0:
            refused.append(len(grams))
            raise ValueError("weights refused")
        return checked(grams, labels, Cs, weights)

    solve, shared = experiment.train_problems, []  # per shared call: whether it refused

    def recorded(problems):
        shared.append(True)
        models = solve(problems)
        shared[-1] = False
        return models

    monkeypatch.setattr(svm_solver, "_checked", refusing)
    monkeypatch.setattr(experiment, "train_problems", recorded)
    records = run_experiment(config)
    assert len(refused) >= 2  # in the round solved across datasets, and in its boosted fit alone
    assert shared == [False, True]  # round 2's refused call ends the drive: the clean run has a round 3
    assert max(r.ensemble_size for r in clean) == 3
    (failed,) = [r for r in records if r.dataset_seed == bad_seed and r.model_id == MODEL_BOOSTED]
    assert_failed(failed, "ValueError: weights refused")
    assert without_wall_time(r for r in records if r is not failed) == without_wall_time(
        r for r in clean if (r.dataset_seed, r.model_id) != (bad_seed, MODEL_BOOSTED))
    for folder in ("models", "datasets"):
        names = sorted(path.name for path in (tmp_path / "clean" / folder).iterdir())
        assert names == sorted(path.name for path in (tmp_path / "out" / folder).iterdir())
        for name in names:
            written = (tmp_path / "out" / folder / name).read_bytes()
            if name == f"moons_{bad_seed}.json":
                bundle = reload_bundle(tmp_path / "clean" / folder / name)
                del bundle["boosted"]
                assert written.decode() == json.dumps(bundle, indent=1, sort_keys=True)
            else:
                assert written == (tmp_path / "clean" / folder / name).read_bytes()


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
    paths = emit_report(aggregate(records), tmp_path / "report")
    assert set(paths) == {"summary", "boxplot"}
    assert paths["summary"].exists() and paths["boxplot"].exists()
    assert not (tmp_path / "report" / "records.csv").exists()
    boxplot_lines = paths["boxplot"].read_text().strip().splitlines()
    assert len(boxplot_lines) == 1 + 2 * len(MODELS)  # header + families x models
    assert boxplot_lines[0] == "family,model,median,q1,q3,whisker_lo,whisker_hi"
    summary = json.loads(paths["summary"].read_text())
    assert summary["conventions"]["quartiles"] == "tukey-hinges"
    assert set(summary["box"]) == {"xor", "moons"}


PINNED_SUMMARY = """{
 "box": {
  "moons": {
   "boosted_qsvm": {
    "median": 0.6875,
    "q1": 0.625,
    "q3": 0.75,
    "whisker_hi": 0.9375,
    "whisker_lo": 0.4375
   },
   "single_qsvm": {
    "median": 0.5625,
    "q1": 0.5,
    "q3": 0.625,
    "whisker_hi": 0.8125,
    "whisker_lo": 0.3125
   }
  },
  "xor": {
   "boosted_qsvm": {
    "median": 0.875,
    "q1": 0.6875,
    "q3": 0.9375,
    "whisker_hi": 1.3125,
    "whisker_lo": 0.3125
   },
   "single_qsvm": {
    "median": 0.75,
    "q1": 0.6875,
    "q3": 0.75,
    "whisker_hi": 0.84375,
    "whisker_lo": 0.59375
   },
   "svm_baseline": {
    "median": 0.375,
    "q1": 0.25,
    "q3": 0.5,
    "whisker_hi": 0.875,
    "whisker_lo": -0.125
   }
  }
 },
 "conventions": {
  "improvement_filter": "boosted ensembles with more than 2 learners (n_more_than_1 also reported)",
  "quartiles": "tukey-hinges",
  "whiskers": "Q1-1.5*IQR, Q3+1.5*IQR"
 },
 "families": {
  "moons": {
   "improvement_max": null,
   "improvement_mean": null,
   "max_ensemble_size": 2,
   "mean_ensemble_size": 1.5,
   "n_more_than_1": 1,
   "n_more_than_2": 0
  },
  "xor": {
   "improvement_max": 0.125,
   "improvement_mean": -0.0625,
   "max_ensemble_size": 4,
   "mean_ensemble_size": 2.6666666666666665,
   "n_more_than_1": 2,
   "n_more_than_2": 2
  }
 }
}"""

PINNED_BOXPLOT = (
    "family,model,median,q1,q3,whisker_lo,whisker_hi\r\n"
    "moons,boosted_qsvm,0.6875,0.625,0.75,0.4375,0.9375\r\n"
    "moons,single_qsvm,0.5625,0.5,0.625,0.3125,0.8125\r\n"
    "xor,boosted_qsvm,0.875,0.6875,0.9375,0.3125,1.3125\r\n"
    "xor,single_qsvm,0.75,0.6875,0.75,0.59375,0.84375\r\n"
    "xor,svm_baseline,0.375,0.25,0.5,-0.125,0.875\r\n"
)


def test_emit_report_bytes_are_pinned(tmp_path):
    # moons never grows past two learners (null improvements) and has no baseline;
    # xor's third baseline failed, so its box takes two values
    records = [
        make_record("xor", 1, MODEL_BOOSTED, 0.875, 3),
        make_record("xor", 1, MODEL_SINGLE, 0.75, 1),
        make_record("xor", 1, MODEL_BASELINE, 0.5, 1),
        make_record("xor", 2, MODEL_BOOSTED, 1.0, 1),
        make_record("xor", 2, MODEL_SINGLE, 0.625, 1),
        make_record("xor", 2, MODEL_BASELINE, 0.25, 1),
        make_record("xor", 3, MODEL_BOOSTED, 0.5, 4),
        make_record("xor", 3, MODEL_SINGLE, 0.75, 1),
        make_record("xor", 3, MODEL_BASELINE, float("nan"), 0, "ValueError: no fit"),
        make_record("moons", 1, MODEL_BOOSTED, 0.75, 2),
        make_record("moons", 1, MODEL_SINGLE, 0.5, 1),
        make_record("moons", 2, MODEL_BOOSTED, 0.625, 1),
        make_record("moons", 2, MODEL_SINGLE, 0.625, 1),
    ]
    paths = emit_report(aggregate(records), tmp_path)
    assert paths["summary"].read_bytes() == PINNED_SUMMARY.encode()
    assert paths["boxplot"].read_bytes() == PINNED_BOXPLOT.encode()


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
        with pytest.raises(ValueError, match="cannot generate xor datasets: every split needs at least one"):
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
    # a seed is a non-negative integer, as numpy's SeedSequence takes it
    ({"master_seed": -1}, "^master_seed must be an integer of at least 0, got -1$"),
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
    # nor does the family list, which would run one family twice under two seeds
    ({"families": ["xor", "xor"]}, re.escape("families must not repeat a name, got ['xor', 'xor']")),
    # each study family's dataset 0 is split at load, so a split that cannot hold both classes fails
    ({"split_sizes": [1, 50, 50]}, "cannot generate xor datasets: could not produce splits containing both"),
    # and a family given in dataset_params is generated, also when it is not in families
    ({"families": ["xor"], "dataset_params": {"moons": {"noise_std": -1}}},
     "cannot generate moons datasets: noise_std must be nonnegative"),
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
    # a key the generator does not take, and n or seed, which the study sets
    ({"moons": {"noise": 0.3}}, "cannot generate moons datasets: .*unexpected keyword argument 'noise'"),
    ({"circles": {"factor": 0.5, "n": 10}},
     "cannot generate circles datasets: .*multiple values for argument 'n'"),
    ({"xor": {"seed": 1}}, "cannot generate xor datasets: .*multiple values for keyword argument 'seed'"),
    ({"xor": [0.1]}, "dataset_params for xor"),
    ({"blobs": {}}, "unknown family 'blobs'"),
    ({"moons": {"noise_std": -1}}, "cannot generate moons datasets: noise_std must be nonnegative"),
    ({"xor": {"margin": 1.5}}, "cannot generate xor datasets: margin must lie in"),
    ({"circles": {"factor": "half"}}, "dataset_params for circles: factor must be a number, got 'half'"),
    ([], "dataset_params must be a dict"),
    # a bool would pass the generators' range checks as 0 or 1
    ({"moons": {"noise_std": True}}, "dataset_params for moons: noise_std must be a number, got True"),
    ({"xor": {"margin": False}}, "dataset_params for xor: margin must be a number, got False"),
    ({"circles": {"factor": 0.5, "noise_std": True}},
     "dataset_params for circles: noise_std must be a number, got True"),
    # a margin that keeps too few draws is refused at once, not drawn for
    ({"xor": {"margin": 0.999999}}, "cannot generate xor datasets: margin 0.999999 keeps too few"),
    ({"xor": {"margin": [0.1]}}, r"dataset_params for xor: margin must be a number, got \[0.1\]"),
    ({"moons": {"noise_std": None}}, "dataset_params for moons: noise_std must be a number, got None"),
    # a Fraction passed, then failed every dataset of its family at the CSV write
    ({"moons": {"noise_std": fractions.Fraction(3, 10)}},
     r"cannot generate moons datasets: params must be writable as JSON, got \{'noise_std': Fraction\(3, 10\)\}"),
])
def test_config_rejects_bad_dataset_params(params, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict({"dataset_params": params})
    config_from_dict({"dataset_params": {"moons": {"noise_std": 0.1}, "xor": {}}})


# loader inputs from small ranges: a config whose every field is good, and at most one field
# replaced by a draw that may be bad (negative or NaN numbers, bools, foreign keys, empty or
# repeated lists, split sizes that do not fit)
_FAMILIES = sorted(GENERATORS)
_FAMILY_KEYS = {"xor": "margin", "moons": "noise_std", "circles": "factor"}
_GOOD_INPUTS = st.fixed_dictionaries({
    "n_points": st.integers(60, 200),
    "split_sizes": st.lists(st.integers(2, 20), min_size=3, max_size=3),
    "families": st.lists(st.sampled_from(_FAMILIES), min_size=1, unique=True),
    "dataset_params": st.fixed_dictionaries({}, optional={
        family: st.fixed_dictionaries({key: st.floats(0.05, 0.9)}) for family, key in _FAMILY_KEYS.items()}),
    "master_seed": st.integers(0, 3),
    "baseline_kernels": st.lists(st.sampled_from(["rbf", "linear"]), min_size=1, unique=True),
    "baseline_Cs": st.lists(st.sampled_from([0.1, 1.0, 100.0]), min_size=1, unique=True),
    "baseline_gammas": st.lists(st.sampled_from([0.001, 0.1, 10.0]), min_size=1, unique=True),
})
_VALUES = st.floats(-0.5, 0.9) | st.sampled_from([float("nan"), True])
_FIELD_DRAWS = {
    "n_points": st.integers(4, 59),
    "split_sizes": st.lists(st.integers(0, 60), max_size=4),
    "families": st.lists(st.sampled_from(_FAMILIES), max_size=4),
    "dataset_params": st.fixed_dictionaries({}, optional={
        family: st.fixed_dictionaries({key: _VALUES})
        | st.dictionaries(st.sampled_from(["n", "seed", "noise"]), _VALUES, min_size=1)
        for family, key in _FAMILY_KEYS.items()}),
    "master_seed": st.integers(-1, 3),
    "baseline_kernels": st.lists(st.sampled_from(["rbf", "linear"]), max_size=3),
    "baseline_Cs": st.lists(st.sampled_from([0.1, 1.0, 100.0]), max_size=1),
    "baseline_gammas": st.lists(st.sampled_from([0.001, 0.1, 10.0]), max_size=1),
}
_LOADER_INPUTS = st.tuples(_GOOD_INPUTS, st.none() | st.one_of(
    st.tuples(st.just(name), draw) for name, draw in _FIELD_DRAWS.items())).map(
    lambda drawn: drawn[0] if drawn[1] is None else {**drawn[0], drawn[1][0]: drawn[1][1]})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_LOADER_INPUTS)
def test_a_loaded_config_can_generate_split_and_grid(obj):
    # the loader refuses with a ValueError, or each study family's dataset 0 generates and splits,
    # a dataset of each other family given a value generates or comes out one class, and every
    # baseline kernel has a cell
    try:
        config = config_from_dict(obj)
    except ValueError:
        return
    others = [family for family, params in config.dataset_params.items()
              if family not in config.families and params != DEFAULT_DATASET_PARAMS[family]]
    for f, family in enumerate([*config.families, *others]):
        try:
            data = GENERATORS[family](config.n_points, seed=derive_seed(config.master_seed, f, 0, 0),
                                      **config.dataset_params[family])
        except OneClassError:
            assert family in others
            continue
        if family in config.families:
            split_and_scale(data, config.split_sizes, seed=derive_seed(config.master_seed, f, 0, 1))
    cells = [(kernel, gamma, C) for kernel in config.baseline_kernels
             for gamma in (config.baseline_gammas if kernel == "rbf" else [None]) for C in config.baseline_Cs]
    assert cells and {kernel for kernel, _, _ in cells} == set(config.baseline_kernels)


@pytest.mark.parametrize("master_seed", [175, 210])
def test_a_one_class_draw_of_a_family_that_never_runs_is_no_fault(master_seed):
    # at n = 8 this xor draw comes out one class; the study runs only moons
    obj = {"families": ["moons"], "n_points": 8, "split_sizes": [2, 2, 2],
           "dataset_params": {"xor": {"margin": 0.1}}, "master_seed": master_seed}
    with pytest.raises(OneClassError):
        make_xor(8, margin=0.1, seed=derive_seed(master_seed, 1, 0, 0))
    assert config_from_dict(obj).dataset_params["xor"] == {"margin": 0.1}
    # a value the generator refuses is still refused for a family that never runs
    with pytest.raises(ValueError, match=r"^cannot generate xor datasets: margin must lie in \[0, 1\), got 2$"):
        config_from_dict({**obj, "dataset_params": {"xor": {"margin": 2}}})


def test_every_construction_a_replace_included_runs_the_trial(monkeypatch):
    config = config_from_dict({"families": ["moons", "circles"], "dataset_params": {"xor": {"margin": 0.2}},
                               "master_seed": 31})
    calls = []

    def counting(family, generate):
        def wrapped(*args, **kwargs):
            calls.append(family)
            return generate(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiment, "GENERATORS", {f: counting(f, g) for f, g in GENERATORS.items()})
    assert replace(config, output_dir="elsewhere").output_dir == "elsewhere"
    assert calls == ["moons", "circles", "xor"]
    # a refused config is not remembered: it raises, and tries, on every attempt
    for attempt in (1, 2):
        with pytest.raises(ValueError, match="cannot generate xor datasets: margin must lie in"):
            replace(config, dataset_params={"xor": {"margin": 1.5}})
        assert calls.count("xor") == 1 + attempt


def test_numpy_dataset_params_run_and_their_csvs_load(tmp_path):
    # a numpy scalar passed the config's checks, then failed every dataset of its family at the CSV write
    params = {"moons": {"noise_std": np.float32(0.3)}, "xor": {"margin": np.int64(0)}}
    config = replace(sweep_config(tmp_path / "out"), datasets_per_family=1, dataset_params=params)
    records = run_experiment(config)
    assert len(records) == 9 and not any(r.error for r in records)
    for family, stored in (("moons", '{"noise_std": 0.30000001192092896}'), ("xor", '{"margin": 0}')):
        seed = next(r.dataset_seed for r in records if r.family == family)
        path = tmp_path / "out" / "datasets" / f"{family}_{seed}.csv"
        assert path.read_text().splitlines()[0].endswith(f" params={stored}")
        assert dataset_from_csv(path).train.params == json.loads(stored)


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
