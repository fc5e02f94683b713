"""Boosted ensembles of quantum-kernel SVMs on a dense statevector simulator."""

from .quantum_sim import (
    FeatureMapSpec,
    dense_term_unitary,
    dense_unitary_oracle,
    feature_map_states,
    parse_feature_map,
)
from .kernels import (
    GramCache,
    GramMatrix,
    gram_matrix,
    linear_gram,
    rbf_gram,
)
from .svm_solver import (
    TrainedSVM,
    decision_function,
    dual_objective,
    predict,
    svm_from_json,
    svm_to_json,
    train_weighted_svm,
    train_weighted_svms,
)
from .boosted_qsvm import (
    DEFAULT_FEATURE_MAP_MENU,
    BoostedEnsemble,
    BoostingRound,
    GridSpec,
    ensemble_from_json,
    ensemble_to_json,
    estimator_error,
    estimator_weight,
    fit_boosted,
    grid_search_best,
    initial_weights,
    predict_ensemble_batch,
    prune_by_validation,
    update_weights,
)
from .datasets import (
    LabeledDataset,
    SplitDataset,
    dataset_from_csv,
    dataset_to_csv,
    make_circles,
    make_moons,
    make_xor,
    split_and_scale,
)
from .experiment import (
    ExperimentConfig,
    RunRecord,
    aggregate,
    classical_svm_baseline,
    emit_report,
    load_config,
    read_records_csv,
    run_experiment,
    write_records_csv,
)

__version__ = "0.1.0"
