"""Tests of the benchmark itself: self-time arithmetic and a tiny run of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_direct_children_once():
    synthetic = [
        _span("parent", 0.0, 10.0),
        _span("child", 1.0, 3.0, parent=0),
        _span("overlapping child", 2.0, 5.0, parent=0),  # [2, 3] already covered
        _span("grandchild", 1.5, 2.0, parent=1),  # counts against its parent only
        _span("child past the end", 9.0, 12.0, parent=0),  # clipped to [9, 10]
        _span("leaf", 20.0, 21.5),
    ]
    assert spans.self_times(synthetic) == pytest.approx([5.0, 1.5, 3.0, 0.5, 3.0, 1.5])


def test_self_time_of_children_covering_the_parent_is_zero():
    synthetic = [_span("parent", 0.0, 4.0), _span("a", 0.0, 3.0, 0), _span("b", 1.0, 4.0, 0)]
    assert spans.self_times(synthetic)[0] == pytest.approx(0.0)


def test_kkt_gap_of_an_optimal_and_a_suboptimal_dual():
    K, labels, upper = np.eye(2), np.array([0, 1]), np.array([10.0, 10.0])
    # alpha = (1, 1) solves this dual exactly; alpha = (0.5, 0.5) leaves a gap of 1
    assert spans.kkt_gap(K, labels, np.array([-1.0, 1.0]), upper) == pytest.approx(0.0)
    assert spans.kkt_gap(K, labels, np.array([-0.5, 0.5]), upper) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(workload, trace, tmp_path, capsys):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.05, trace=trace)
    assert run.run(args, tmp_path, tiny=True) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "study":
        assert result["metrics"]["smo.fits"]["value"] > 0
    elif workload == "kernel_wide":
        assert result["metrics"]["sim.calls"]["value"] > 0
        assert result["metrics"]["smo.fits"]["value"] == 0
