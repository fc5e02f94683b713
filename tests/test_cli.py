"""CLI tests: subcommands, file outputs, exit codes."""
import json
import subprocess
import sys

import pytest

from qsvm_boost import experiment
from qsvm_boost.cli import main
from qsvm_boost.datasets import SplitDataset, dataset_from_csv
from qsvm_boost.experiment import ExperimentConfig, reload_bundle, run_experiment
from helpers import src_env


def run_cli(*args) -> int:
    return main(list(args))


def test_generate_plain(tmp_path):
    out = tmp_path / "xor.csv"
    assert run_cli("generate", "--family", "xor", "--n", "40", "--seed", "3",
                   "--out", str(out)) == 0
    data = dataset_from_csv(out)
    assert len(data) == 40 and data.kind == "xor"


def test_generate_split(tmp_path):
    out = tmp_path / "circles.csv"
    assert run_cli("generate", "--family", "circles", "--n", "60", "--seed", "5",
                   "--split", "--sizes", "20,20,20", "--out", str(out)) == 0
    split = dataset_from_csv(out)
    assert isinstance(split, SplitDataset)
    assert len(split.train) == 20


def test_generate_bad_family_exits_1(tmp_path):
    assert run_cli("generate", "--family", "blobs", "--out", str(tmp_path / "x.csv")) == 1


def test_generate_bad_margin_exits_1(tmp_path):
    assert run_cli("generate", "--family", "xor", "--margin", "2.0",
                   "--out", str(tmp_path / "x.csv")) == 1


def test_generate_bad_sizes_names_the_flag(tmp_path, capsys):
    # int() refused "a" with its own text, which named no flag
    out = tmp_path / "x.csv"
    assert run_cli("generate", "--family", "xor", "--split", "--sizes", "a,b,c", "--out", str(out)) == 1
    assert "argument --sizes: expected comma-separated integers, got 'a,b,c'" in capsys.readouterr().err
    assert not out.exists()


def test_generate_passes_only_the_family_parameters(tmp_path):
    # a flag the family's generator does not take is an error, not dropped
    for family, flags in (("xor", ["--noise-std", "5", "--factor", "0.9"]),
                          ("moons", ["--margin", "0.1"]), ("circles", ["--margin", "0.0"])):
        out = tmp_path / f"{family}_bad.csv"
        assert run_cli("generate", "--family", family, *flags, "--out", str(out)) == 1
        assert not out.exists()
    # flags left out take the generator's defaults: the same bytes as the defaults given
    for family, flags in (("xor", ["--margin", "0.0"]), ("moons", ["--noise-std", "0.2"]),
                          ("circles", ["--factor", "0.5", "--noise-std", "0.1"])):
        plain, given = tmp_path / f"{family}_plain.csv", tmp_path / f"{family}_given.csv"
        assert run_cli("generate", "--family", family, "--seed", "4", "--out", str(plain)) == 0
        assert run_cli("generate", "--family", family, "--seed", "4", *flags, "--out", str(given)) == 0
        assert plain.read_bytes() == given.read_bytes()


def test_fit_all_models(tmp_path):
    # the study run with the fit command's grids writes the split it fitted;
    # fitting that split from the command line must give the same bundle entries
    config = ExperimentConfig(families=("circles",), datasets_per_family=1, n_points=60,
                              split_sizes=(20, 20, 20), max_rounds=2, master_seed=2,
                              output_dir=str(tmp_path / "study"))
    stem = f"circles_{run_experiment(config)[0].dataset_seed}"
    bundle = reload_bundle(tmp_path / "study" / "models" / f"{stem}.json")
    data_csv = tmp_path / "study" / "datasets" / f"{stem}.csv"
    bundle_keys = {"single_qsvm": "single", "boosted_qsvm": "boosted", "svm_baseline": "baseline"}
    for model, key in bundle_keys.items():
        out = tmp_path / f"{model}.json"
        assert run_cli("fit", "--data", str(data_csv), "--model", model,
                       "--max-rounds", "2", "--out", str(out)) == 0
        blob = json.loads(out.read_text())
        assert 0.0 <= blob["test_accuracy"] <= 1.0
        assert blob == bundle[key]


def test_fit_requires_split_csv(tmp_path):
    data_csv = tmp_path / "plain.csv"
    run_cli("generate", "--family", "xor", "--n", "40", "--out", str(data_csv))
    assert run_cli("fit", "--data", str(data_csv), "--model", "svm_baseline",
                   "--out", str(tmp_path / "m.json")) == 1


def test_fit_malformed_csv_exits_1(tmp_path):
    data_csv = tmp_path / "split.csv"
    run_cli("generate", "--family", "moons", "--n", "30", "--split", "--sizes", "10,10,10",
            "--out", str(data_csv))
    lines = data_csv.read_text().splitlines()
    data_csv.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 2)[0]]) + "\n")
    assert run_cli("fit", "--data", str(data_csv), "--model", "svm_baseline",
                   "--out", str(tmp_path / "m.json")) == 1


def test_fit_refuses_a_label_other_than_0_or_1(tmp_path, capsys):
    # a label of 2 exited 1 with the one-class message
    data_csv = tmp_path / "split.csv"
    run_cli("generate", "--family", "moons", "--n", "30", "--split", "--sizes", "10,10,10",
            "--out", str(data_csv))
    lines = data_csv.read_text().splitlines()
    x1, x2, _, split = lines[-1].split(",")
    data_csv.write_text("\n".join(lines[:-1] + [f"{x1},{x2},2,{split}"]) + "\n")
    capsys.readouterr()
    assert run_cli("fit", "--data", str(data_csv), "--model", "svm_baseline",
                   "--out", str(tmp_path / "m.json")) == 1
    assert capsys.readouterr().err == "error: labels must be 0 or 1, got [2]\n"


def write_small_config(tmp_path):
    config = {
        "families": ["circles"],
        "datasets_per_family": 1,
        "n_points": 60,
        "split_sizes": [20, 20, 20],
        "feature_maps": [["Z", "ZZ"], ["X", "XX"]],
        "alphas": [1.0],
        "Cs": [1.0, 10.0],
        "max_rounds": 2,
        "master_seed": 3,
        "output_dir": str(tmp_path / "results"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_experiment_and_report(tmp_path):
    config_path = write_small_config(tmp_path)
    assert run_cli("experiment", "--config", str(config_path), "--quiet") == 0
    results = tmp_path / "results"
    assert (results / "records.csv").exists()
    assert (results / "summary.json").exists()
    assert (results / "boxplot.csv").exists()

    report_dir = tmp_path / "report"
    assert run_cli("report", "--records", str(results / "records.csv"),
                   "--out", str(report_dir)) == 0
    assert (report_dir / "summary.json").exists()
    for name in ("summary.json", "boxplot.csv"):
        assert (report_dir / name).read_bytes() == (results / name).read_bytes()


def test_experiment_output_dir_replaces_the_configs(tmp_path):
    config_path = write_small_config(tmp_path)
    assert run_cli("experiment", "--config", str(config_path), "--output-dir",
                   str(tmp_path / "elsewhere"), "--quiet") == 0
    assert (tmp_path / "elsewhere" / "records.csv").exists()
    assert not (tmp_path / "results").exists()


def test_experiment_writes_records_once(tmp_path, monkeypatch, capsys):
    written = []
    write = experiment.write_records_csv

    def counting(path, records):
        written.append(path)
        write(path, records)

    monkeypatch.setattr(experiment, "write_records_csv", counting)
    assert run_cli("experiment", "--config", str(write_small_config(tmp_path)), "--quiet") == 0
    records_path = tmp_path / "results" / "records.csv"
    assert written == [records_path]
    assert capsys.readouterr().out.startswith(f"wrote {records_path}, ")


def test_experiment_bad_config_exits_1(tmp_path, monkeypatch):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"nonsense_key": 1}))
    assert run_cli("experiment", "--config", str(config_path)) == 1
    config_path.write_text(json.dumps({"feature_maps": [["Q"], ["Z"]]}))
    assert run_cli("experiment", "--config", str(config_path)) == 1
    config_path.write_text(json.dumps({"reps": 0}))
    assert run_cli("experiment", "--config", str(config_path)) == 1
    for bad in ({"feature_maps": [[]]}, {"feature_maps": ["ZZ", "Z"]}, {"split_sizes": [0, 50, 50]},
                {"Cs": [1, "10"]}, {"dataset_params": []}, {"baseline_kernels": ["rbf", "linear", "rbf"]},
                {"split_sizes": [1, 50, 50]}, {"families": ["xor", "xor"]}, {"master_seed": -1},
                {"families": ["xor"], "dataset_params": {"moons": {"noise_std": -1}}},
                {"dataset_params": {"xor": {"margin": 0.999999}}}):
        config_path.write_text(json.dumps(bad))
        assert run_cli("experiment", "--config", str(config_path), "--output-dir",
                       str(tmp_path / "load_fails"), "--quiet") == 1
        assert not (tmp_path / "load_fails").exists()
    for bad in ({"baseline_Cs": []}, {"baseline_kernels": []}, {"baseline_gammas": []},
                {"dataset_params": {"moons": {"noise": 0.3}}}, {"dataset_params": {"blobs": {}}},
                {"dataset_params": {"moons": {"noise_std": True}}}, {"families": "xor"},
                {"families": 5}, {"baseline_kernels": 5}, {"split_sizes": 50}, {"families": [["xor"]]},
                {"baseline_kernels": [["rbf"]]}, {"families": {"xor": 1}},
                {"alphas": [1.0, 1.0], "Cs": [10, 10.0]}, {"baseline_gammas": [0.1, 0.1]}):
        config_path.write_text(json.dumps(bad))
        assert run_cli("experiment", "--config", str(config_path)) == 1
    # a bad dataset parameter value fails at load, before the xor datasets run
    config_path.write_text(json.dumps({
        "families": ["xor", "moons"], "datasets_per_family": 1, "feature_maps": [["Z"]],
        "alphas": [1.0], "Cs": [1.0], "dataset_params": {"moons": {"noise_std": -1}},
    }))
    assert run_cli("experiment", "--config", str(config_path),
                   "--output-dir", str(tmp_path / "out"), "--quiet") == 1
    assert not (tmp_path / "out").exists()
    # an output_dir that is not a path fails at load, not when the sweep opens it
    monkeypatch.chdir(tmp_path)
    config_path.write_text(json.dumps({"output_dir": 5}))
    assert run_cli("experiment", "--config", str(config_path), "--quiet") == 1
    assert not (tmp_path / "5").exists()
    config_path.write_text("{broken")
    assert run_cli("experiment", "--config", str(config_path)) == 1
    assert run_cli("experiment", "--config", str(tmp_path / "missing.json")) == 1


def test_experiment_non_integer_or_nan_config_exits_1(tmp_path):
    config_path = tmp_path / "bad.json"
    for text in ('{"reps": 2.0}', '{"reps": true}', '{"max_rounds": 1.0}',
                 '{"datasets_per_family": 1.5}', '{"split_sizes": [20.5, 20, 19]}',
                 '{"alphas": [NaN]}', '{"baseline_Cs": [NaN]}',
                 '{"dataset_params": {"moons": {"noise_std": NaN}}}',
                 '{"dataset_params": {"moons": {"noise_std": Infinity}}}'):
        config_path.write_text(text)
        assert run_cli("experiment", "--config", str(config_path),
                       "--output-dir", str(tmp_path / "out"), "--quiet") == 1, text
    assert not (tmp_path / "out").exists()


def test_report_missing_records_exits_1(tmp_path):
    assert run_cli("report", "--records", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path)) == 1


HEADER = "family,dataset_seed,model_id,test_accuracy,ensemble_size,grid_points,wall_time,error\n"


@pytest.mark.parametrize("rows, message", [
    # a misspelt model was dropped from every box, and its family's sizes read None
    (["xor,1,boosted_qvsm,0.9,3,,0.0,", "xor,1,single_qsvm,0.8,1,,0.0,"],
     "line 2, column model_id: 'boosted_qvsm' is not one of ('single_qsvm', 'boosted_qsvm', 'svm_baseline')"),
    # a repeated record counted twice in its box and once, the last, in the family's sizes
    (["xor,1,boosted_qsvm,0.9,3,,0.0,", "xor,1,boosted_qsvm,0.5,1,,0.0,"],
     "line 3 repeats the record of ('xor', 1, 'boosted_qsvm')"),
])
def test_report_refuses_a_record_no_study_writes(tmp_path, capsys, rows, message):
    records = tmp_path / "records.csv"
    records.write_text(HEADER + "".join(row + "\n" for row in rows))
    assert run_cli("report", "--records", str(records), "--out", str(tmp_path / "report")) == 1
    assert capsys.readouterr().err == f"error: {records} {message}\n"
    assert not (tmp_path / "report").exists()


def test_no_arguments_exits_1():
    assert run_cli() == 1


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "qsvm_boost.cli", "--help"],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "experiment" in proc.stdout
