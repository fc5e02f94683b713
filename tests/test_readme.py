"""The README's config block loads, its library quick start runs, it names the report's header
and states the solver's constants."""
import ast
import json
import re
from pathlib import Path

from qsvm_boost import svm_solver
from qsvm_boost.experiment import MODEL_BOOSTED, RunRecord, aggregate, config_from_dict, emit_report

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_config_block_loads():
    (block,) = code_blocks("json")
    obj = json.loads(block)
    config = config_from_dict(obj)
    assert config.grid.feature_maps == tuple(tuple(fm) for fm in obj["feature_maps"])
    assert config.datasets_per_family == obj["datasets_per_family"]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = code_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    stop_reason, pruned_length, accuracy = capsys.readouterr().out.split()
    assert stop_reason in {"perfect", "worse_than_random", "max_reached", "maps_exhausted"}
    assert int(pruned_length) >= 1
    assert 0.0 <= float(accuracy) <= 1.0


def test_readme_names_the_boxplot_header(tmp_path):
    paths = emit_report(aggregate([RunRecord("xor", 1, MODEL_BOOSTED, 0.5, 1, "", 0.0)]), tmp_path)
    header = paths["boxplot"].read_text().splitlines()[0]
    assert f"`{header}`" in README


def test_readme_states_the_solver_constants():
    stated = re.findall(r"`(_KKT_TOLERANCE|_MAX_PASSES) = ([^`]+)`", README)
    assert sorted(name for name, _ in stated) == ["_KKT_TOLERANCE", "_MAX_PASSES"]
    for name, text in stated:
        assert ast.literal_eval(text) == getattr(svm_solver, name), name
