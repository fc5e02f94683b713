"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-7 share one sweep of the default experiment config (10 datasets
per family, default grids), the session's ``default_sweep`` fixture; expect
about 60 seconds for the full module.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qsvm_boost.boosted_qsvm import (
    GridSpec,
    STOP_MAX_REACHED,
    STOP_PERFECT,
    STOP_WORSE_THAN_RANDOM,
    estimator_error,
    estimator_weight,
    fit_boosted,
    predict_ensemble_batch,
    update_weights,
)
from qsvm_boost.datasets import make_xor, split_and_scale
from qsvm_boost.experiment import (
    MODEL_BOOSTED,
    MODEL_SINGLE,
    reload_bundle,
    run_experiment,
)
from qsvm_boost.kernels import GramCache, gram_matrix
from qsvm_boost.quantum_sim import FeatureMapSpec, dense_unitary_oracle, feature_map_states
from qsvm_boost.svm_solver import dual_objective, predict, train_weighted_svm
from helpers import brute_force_qp, phase_align, random_feature_map_spec, random_psd_kernel
from pinned_sweeps import records_without_wall_time


def unconverged_rounds(config, family, seeds=None) -> tuple[int, int]:
    """(unconverged, kept): how many kept rounds of the family's boosted bundles (those of
    ``seeds`` only, if given) have an SVM that did not converge, and how many there are."""
    kept = []
    for path in sorted(Path(config.output_dir, "models").glob(f"{family}_*.json")):
        bundle = reload_bundle(path)
        if "boosted" in bundle and (seeds is None or bundle["dataset_seed"] in seeds):
            kept += bundle["boosted"]["rounds"][:bundle["boosted"]["pruned_length"]]
    return sum(not entry["svm"]["converged"] for entry in kept), len(kept)


def of(counts) -> str:
    return "{} of {}".format(*counts)


def test_criterion_1_simulator_correctness():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        spec = random_feature_map_spec(rng, max_qubits=3)
        x = rng.uniform(-1.0, math.pi, size=spec.n_qubits)
        state = feature_map_states(spec, x[None])[0]
        column = dense_unitary_oracle(spec, x)[:, 0]
        worst = max(worst, float(np.max(np.abs(state - phase_align(state, column)))))
        assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"CRITERION 1 PASS: 500 oracle comparisons, worst deviation {worst:.2e} "
          f"(tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_2_kernel_validity():
    rng = np.random.default_rng(77)
    for _ in range(100):
        spec = random_feature_map_spec(rng, max_qubits=2)
        X = rng.uniform(0, math.pi, size=(20, spec.n_qubits))
        gram = gram_matrix(spec, X).values
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-12
        assert np.linalg.eigvalsh(gram).min() >= -1e-9
    flat_spec = FeatureMapSpec(2, ("Z", "ZZ"), alpha=0.0)
    X = rng.uniform(0, math.pi, size=(20, 2))
    assert np.max(np.abs(gram_matrix(flat_spec, X).values - 1.0)) <= 1e-12
    print("CRITERION 2 PASS: 100 random self-Grams symmetric/unit-diagonal/PSD; "
          "alpha=0 gives the all-ones Gram")


def test_criterion_3_svm_oracle_equivalence(tight_solver):
    rng = np.random.default_rng(4242)
    checked = 0
    for n in range(2, 7):
        for _ in range(20):
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            K = random_psd_kernel(rng, n)
            C = float(rng.uniform(0.5, 60.0))
            weights = rng.uniform(0.1, 3.0, size=n)
            model = train_weighted_svm(K, labels, C, weights)
            alphas = np.abs(model.dual_coefs)
            upper = C * weights
            t = 2.0 * labels - 1.0
            assert np.all(alphas >= -1e-9) and np.all(alphas <= upper + 1e-9)
            assert abs(np.sum(alphas * t)) <= 1e-6
            outside = np.setdiff1d(np.arange(n), model.support_indices)
            assert np.all(model.dual_coefs[outside] == 0)
            smo_obj = dual_objective(K, labels, alphas)
            oracle_obj, _ = brute_force_qp(K, labels, upper=upper)
            assert abs(smo_obj - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj))
            checked += 1
    print(f"CRITERION 3 PASS: {checked} problems (2-6 points) match the "
          "brute-force QP oracle within 1e-6 relative; dual feasibility held")


def test_criterion_4_algorithm_mechanics():
    # weighted error and estimator weight
    assert estimator_error(np.array([1, 0, 1, 0]), np.array([1, 0, 1, 1]), np.ones(4)) == 0.25
    assert abs(estimator_weight(0.25) - math.log(3.0)) < 1e-12
    np.testing.assert_allclose(
        update_weights(np.ones(2), np.array([True, False]), math.log(3.0)), [3.0, 1.0]
    )

    grid = GridSpec(feature_maps=(("Z", "ZZ"), ("X", "XX"), ("Y", "YY")),
                    alphas=(1.0, 2.0), Cs=(1.0, 10.0))

    # stopping: perfect on separable clusters
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal((0.5, 0.5), 0.05, size=(16, 2)),
                   rng.normal((2.5, 2.5), 0.05, size=(16, 2))])
    y = np.array([0] * 16 + [1] * 16)
    perfect = fit_boosted(X[:20], y[:20], X[20:], y[20:], grid, max_rounds=5)
    assert perfect.stop_reason == STOP_PERFECT and perfect.rounds[-1].err_m <= 0.0
    assert len(perfect.rounds) == 1 and perfect.rounds[0].alpha_m == 1.0

    # stopping: worse than random on identical points with balanced labels
    flat = fit_boosted(np.full((24, 2), 1.0), np.array([0, 1] * 12),
                       np.full((8, 2), 1.0), np.array([0, 1] * 4), grid, max_rounds=5)
    assert flat.stop_reason == STOP_WORSE_THAN_RANDOM and flat.rounds[0].err_m >= 0.5

    # exclusion uniqueness, pruning dominance, single-round equivalence
    split = split_and_scale(make_xor(90, margin=0.0, seed=12), (36, 27, 27), seed=13)
    cache = GramCache()
    ens = fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y,
                      grid, max_rounds=3, cache=cache)
    ids = [r.grid_point[0] for r in ens.rounds]
    assert len(ids) == len(set(ids))
    if ens.stop_reason == STOP_MAX_REACHED:
        assert all(0.0 < r.err_m < 0.5 for r in ens.rounds)
    votes = np.array([
        predict(r.model, cache.fidelity(r.feature_map, split.val.X, split.train.X).values)
        for r in ens.rounds
    ])
    alphas = np.array([r.alpha_m for r in ens.rounds])
    prefix_errors = [
        float(np.mean(((alphas[:k] @ votes[:k] / alphas[:k].sum()) >= 0.5) != split.val.y))
        for k in range(1, len(ens.rounds) + 1)
    ]
    assert prefix_errors[ens.pruned_length - 1] <= prefix_errors[-1]
    assert ens.pruned_length == int(np.argmin(prefix_errors)) + 1

    single = fit_boosted(split.train.X, split.train.y, split.val.X, split.val.y,
                         GridSpec(feature_maps=(("Z", "ZZ"),), alphas=(1.0,), Cs=(10.0,)),
                         max_rounds=1, cache=cache)
    assert single.pruned_length == 1
    _, ens_labels = predict_ensemble_batch(single, split.test.X, split.train.X, cache)
    rnd = single.rounds[0]
    k_test = cache.fidelity(rnd.feature_map, split.test.X, split.train.X)
    np.testing.assert_array_equal(ens_labels, predict(rnd.model, k_test.values))
    print("CRITERION 4 PASS: error/weight formulas, stopping conditions, exclusion "
          "uniqueness, pruning dominance and single-round equivalence verified")


def test_criterion_5_circles_replication(default_sweep):
    config, records, stats = default_sweep
    accs = [r.test_accuracy for r in records
            if r.family == "circles" and r.model_id == MODEL_BOOSTED and not r.error]
    assert len(accs) == 10
    median = float(np.median(accs))
    mean_size = stats["families"]["circles"]["mean_ensemble_size"]
    assert median >= 0.95
    assert mean_size <= 1.5
    print(f"CRITERION 5 PASS: circles median boosted accuracy {median:.3f} (>= 0.95), "
          f"mean ensemble size {mean_size:.2f} (<= 1.5); unconverged kept rounds: "
          f"circles {of(unconverged_rounds(config, 'circles'))}")


def test_criterion_6_ensemble_size_ordering(default_sweep):
    config, records, stats = default_sweep
    means = {fam: stats["families"][fam]["mean_ensemble_size"] for fam in ("moons", "xor", "circles")}
    maxes = {fam: stats["families"][fam]["max_ensemble_size"] for fam in means}
    assert means["moons"] > means["xor"] > means["circles"]
    assert all(m <= config.max_rounds for m in maxes.values())
    print(f"CRITERION 6 PASS: mean ensemble sizes moons {means['moons']:.2f} > "
          f"xor {means['xor']:.2f} > circles {means['circles']:.2f}; "
          f"max {max(maxes.values())} <= {config.max_rounds}; unconverged kept rounds: "
          + ", ".join(f"{family} {of(unconverged_rounds(config, family))}" for family in means))


def test_criterion_7_boosting_benefit(default_sweep):
    config, records, stats = default_sweep
    pooled = []
    per_family, pooled_seeds = {}, {}
    for family in ("xor", "moons"):
        boosted = {r.dataset_seed: r for r in records
                   if r.family == family and r.model_id == MODEL_BOOSTED and not r.error}
        single = {r.dataset_seed: r for r in records
                  if r.family == family and r.model_id == MODEL_SINGLE and not r.error}
        pooled_seeds[family] = [s for s in boosted.keys() & single.keys() if boosted[s].ensemble_size > 2]
        improvements = [boosted[s].test_accuracy - single[s].test_accuracy for s in pooled_seeds[family]]
        per_family[family] = improvements
        pooled.extend(improvements)
    assert pooled, "no ensembles with more than 2 learners on xor/moons"
    assert float(np.mean(pooled)) > 0.0
    for family, improvements in per_family.items():
        if improvements:
            assert float(np.mean(improvements)) > 0.0
    detail = ", ".join(
        f"{fam}: n={len(imps)} mean={np.mean(imps):+.3f}" if imps else f"{fam}: n=0"
        for fam, imps in per_family.items()
    )
    counts = {family: unconverged_rounds(config, family, seeds) for family, seeds in pooled_seeds.items()}
    print(f"CRITERION 7 PASS: improvement among >2-learner ensembles positive "
          f"(pooled {np.mean(pooled):+.3f}; {detail}); unconverged kept rounds of the pooled "
          f"ensembles: {of(map(sum, zip(*counts.values())))} "
          f"({', '.join(f'{family} {of(pair)}' for family, pair in counts.items())})")


def test_criterion_8_reproducibility(criterion_8_sweep, tmp_path):
    # the session's run of the small config is the first of the two
    config, _, _ = criterion_8_sweep
    run_experiment(replace(config, output_dir=str(tmp_path)))
    rows_a = records_without_wall_time(Path(config.output_dir) / "records.csv")
    rows_b = records_without_wall_time(tmp_path / "records.csv")
    assert rows_a == rows_b
    print(f"CRITERION 8 PASS: {len(rows_a.splitlines()) - 1} records byte-identical across two runs "
          "(wall-time column excluded)")
